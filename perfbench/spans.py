"""Span recording for the traced run, from outside the library.

``Tracer.install`` replaces the public functions and methods named in
``TARGETS`` with wrappers that record one span per call: name, start, end
and parent (the span open when the call began). Class methods are patched
on their class; module-level functions are patched in every ``stratkit``
module namespace that holds them, so ``from .x import f`` call sites are
covered too. Spans stay in memory and are written out when the run ends.
Self times are derived from the spans: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from array import array
from collections import defaultdict
from functools import cached_property, wraps
from time import perf_counter

from stratkit import decomposition, oracle, order, topology


def _after_subset_filter(tracer, args, result):
    tracer.counts["decomposition.subset_candidates"] += 1 << args[0].k
    tracer.counts["decomposition.subset_open"] += len(result)


def _error_subset_filter(tracer, args, exc):
    tracer.counts["decomposition.refused"] += 1


def _after_enumerate(tracer, args, result):
    if tracer.parent_name() == "decomposition.poset_stratified":
        tracer.counts["decomposition.order_candidates"] += len(result)


def _after_preorder_rows(tracer, args, result, miss):
    if miss:
        n = args[0]
        tracer.counts["oracle.enumerate.candidates"] += 1 << (n * n - n)
        tracer.counts["oracle.enumerate.kept"] += len(result)
    _after_enumerate(tracer, args, result)


def _after_sweep(tracer, args, result):
    tracer.counts["oracle.instances"] += result.instances
    tracer.counts["oracle.order_pairs"] += result.order_pairs


def _after_save(tracer, args, result):
    tracer.counts["documents.save.bytes"] += len(result.encode())


def _after_load(tracer, args, result):
    tracer.counts["documents.load.bytes"] += len(args[0].encode())


def _generate_name(args):
    return f"generate.{args[0]}"


def _after_generate(tracer, args, result):
    kind, n, params = args[0], args[1], args[2]
    if kind == "preorder":
        draws = n * (n - 1)
    elif n == 0:
        draws = 0
    else:  # optional block-count draw, the shuffle, then the free points
        draws = (params.get("blocks") is None) + (n - 1) + (n - result.value.k)
    tracer.counts["generate.draws"] += draws


# (owner, attribute, span name, hooks). An owner is a class (method,
# classmethod or cached_property) or a module (function, patched in every
# stratkit module that imported it).
TARGETS = [
    (decomposition.Decomposition, "alexandrov_equivalences", "decomposition.alexandrov", {}),
    (decomposition.Decomposition, "quotient_open_family", "decomposition.subset_filter",
     {"after": _after_subset_filter, "error": _error_subset_filter}),
    (decomposition.Decomposition, "poset_stratified_equivalences",
     "decomposition.poset_stratified", {}),
    (decomposition.Decomposition, "frontier_equivalences", "decomposition.frontier", {}),
    (decomposition.Decomposition, "is_stratification", "decomposition.stratification", {}),
    (decomposition.Decomposition, "semicontinuity", "decomposition.semicontinuity", {}),
    (decomposition.Decomposition, "quotient_space", "decomposition.quotient_space", {}),
    (decomposition.Decomposition, "preorder", "decomposition.preorder", {}),
    (decomposition.Decomposition, "__post_init__", "decomposition.build", {}),
    (decomposition.Decomposition, "from_strata", "decomposition.build", {}),
    (decomposition.Decomposition, "pointwise", "decomposition.build", {}),
    (decomposition, "classify", "decomposition.classify", {}),
    (oracle, "labeled_preorder_rows", "oracle.enumerate", {"after_miss": _after_preorder_rows}),
    (oracle, "labeled_poset_rows", "oracle.enumerate", {"after": _after_enumerate}),
    (oracle, "set_partitions", "oracle.enumerate", {"materialize": True}),
    (oracle, "exhaustive_verify", "oracle.sweep", {"after": _after_sweep}),
    (topology.FiniteSpace, "__post_init__", "topology.space_build", {}),
    (topology.FiniteSpace, "from_min_open", "topology.space_build", {}),
    (topology.FiniteSpace, "from_subbasis", "topology.space_build", {}),
    (topology.SpaceMap, "is_continuous", "topology.map_check", {}),
    (topology.SpaceMap, "is_open", "topology.map_check", {}),
    (topology.SpaceMap, "is_closed", "topology.map_check", {}),
    (topology, "final_topology", "topology.final_topology", {}),
    (order.Proset, "from_pairs", "order.proset_build", {}),
    (order, "alexandrov_space", "order.translations", {}),
    (order, "specialization_preorder", "order.translations", {}),
    (order, "adjunction_roundtrips", "order.oracle_checks", {}),
    (order, "singleton_local_closure_check", "order.oracle_checks", {}),
]


def _late_targets():
    """Targets in modules that import ``decomposition`` themselves."""
    cli, documents, dot, fixtures, generate = (
        importlib.import_module(f"stratkit.{name}")
        for name in ("cli", "documents", "dot", "fixtures", "generate")
    )
    return [
        (documents, "save", "documents.save", {"after": _after_save}),
        (documents, "load", "documents.load", {"after": _after_load}),
        (generate, "generate", _generate_name, {"after": _after_generate}),
        (fixtures, "face_poset_model", "fixtures.face_poset_model", {}),
        (dot, "export_dot", "dot.export_dot", {}),
        (cli, "main", "cli.command", {}),
    ]


class Tracer:
    """Spans live in flat arrays (name id, start, end, parent index), so a
    long traced run adds no Python objects for the collector to scan."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids, self.parents = array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.active = True

    def __len__(self) -> int:
        return len(self.starts)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans and no counts."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one that just closed."""
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None

    def wrap(self, name, fn, hooks):
        tracer = self
        after, error = hooks.get("after"), hooks.get("error")
        after_miss, materialize = hooks.get("after_miss"), hooks.get("materialize")
        cache_info = getattr(fn, "cache_info", None) if after_miss else None
        fixed_id = None if callable(name) else self.name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, starts, ends = tracer.stack, tracer.starts, tracer.ends
            index = len(starts)
            tracer.name_ids.append(tracer.name_id(name(args)) if fixed_id is None else fixed_id)
            tracer.parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(tuple(result))
            except Exception as exc:
                ends[index] = perf_counter()
                stack.pop()
                if error:
                    error(tracer, args, exc)
                raise
            ends[index] = perf_counter()
            stack.pop()
            if after:
                after(tracer, args, result)
            if after_miss:
                miss = cache_info is None or cache_info().misses != misses
                after_miss(tracer, args, result, miss)
            return result

        return wrapper

    def install(self, *callers) -> None:
        """Patch every target; ``callers`` are further modules (the
        benchmark's own) whose imported names are patched too."""
        modules = [m for key, m in sys.modules.items()
                   if key == "stratkit" or key.startswith("stratkit.")]
        modules += callers
        for owner, attr, name, hooks in TARGETS + _late_targets():
            if isinstance(owner, type):
                self._patch_class(owner, attr, name, hooks)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hooks)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def _patch_class(self, cls, attr, name, hooks) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, cached_property):
            patched = cached_property(self.wrap(name, raw.func, hooks))
            patched.__set_name__(cls, attr)
        elif isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, hooks))
        else:
            patched = self.wrap(name, raw, hooks)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived numbers ----------------------------------------------------------

    def totals(self, start: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name, over the spans recorded in [start, stop): ``calls``
        and ``s`` over outermost spans (no enclosing span of the same name),
        and ``self_s`` over all spans."""
        stop = len(self) if stop is None else stop
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        child_time: dict[int, float] = defaultdict(float)
        for index in range(start, stop):
            if parents[index] >= 0:
                child_time[parents[index]] += ends[index] - starts[index]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index in range(start, stop):
            own, duration = name_ids[index], ends[index] - starts[index]
            entry = out[self.names[own]]
            entry["self_s"] += duration - child_time.get(index, 0.0)
            parent = parents[index]
            while parent >= 0 and name_ids[parent] != own:
                parent = parents[parent]
            if parent < 0:
                entry["calls"] += 1
                entry["s"] += duration
        return out

    def write(self, path) -> None:
        """One JSON array per line: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self)):
                handle.write(json.dumps([index, self.names[self.name_ids[index]],
                                         round(self.starts[index], 9),
                                         round(self.ends[index], 9), self.parents[index]]))
                handle.write("\n")
