"""The four benchmark workloads.

Each workload is a closed loop with one client: ``prepare`` builds the
inputs from the workload seed (this is the set-up that ``setup_s`` times),
the runner times the once-only operations, if any, and then repeats
rounds, one pass over the prepared operations each, until the run's time
is spent. Rounds are short so that every operation is timed many times in
a run. Every operation is timed on its own and its output is checked,
outside the timer, against a reference:

* ``sweep``: golden digests of the sweep reports and the known totals;
* ``classify-wide`` and ``documents-bulk``: the independent verdicts of
  ``reference.py``;
* ``cli-check``: golden stdout digests and exit codes captured from the
  seed commit (``golden.json``), and the README exit-code contract for
  malformed documents.

Operations listed with a ``known_failure`` reason fail at the seed commit
on purpose (see ``baseline.json``). They count in ``ops_failed_ratio``,
but only a wrong answer, or a failure outside that ledger, makes a run
incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from stratkit import Decomposition, classify, exhaustive_verify, face_poset_model, fixture
from stratkit import generate, load, save
from stratkit import oracle
from stratkit.order import alexandrov_space

from reference import verdict_of

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

OK, FAILED, WRONG = "ok", "failed", "wrong"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``check`` is not.

    ``check`` maps the result to (status, detail); ``units`` is how many
    workload units (instances, decompositions, ...) the result completed.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    units: Callable[[object], int] = lambda result: 1
    known_failure: str | None = None


def loop_probe() -> None:
    """A fixed pure-Python loop, about 4 ms: it runs no stratkit code, so
    its time moves with the host, not with stratkit."""
    total = 0
    for i in range(50_000):
        total += i * i % 7


@dataclass
class Prepared:
    ops: list[Op]
    before_round: Callable[[], None] = lambda: None
    # timed before every operation of an untraced round; round_cost is in its units
    probe: Callable[[], None] = loop_probe
    # timed and checked once per run, before the rounds; not in round_cost
    once: list[Op] = field(default_factory=list)
    in_process_ops: list[Op] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what ops_per_s counts
    prepare: Callable[[Path, int, bool], Prepared]
    probe_name: str = "pure-Python loop"


# -- sweep ------------------------------------------------------------------------


def _clear_enumeration_caches() -> None:
    """Each round pays the enumerations, as a fresh ``stratkit verify`` does."""
    for fn in (oracle.labeled_preorder_rows, oracle.labeled_poset_rows):
        while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__  # under a tracing wrapper
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _sweep_check(n: int):
    golden = GOLDEN["sweep"][str(n)]

    def check(report) -> tuple[str, str]:
        got = (report.instances, report.order_pairs, report.failures)
        want = (golden["instances"], golden["order_pairs"], 0)
        if got != want:
            return WRONG, f"n={n}: (instances, order_pairs, failures) {got} != {want}"
        if sha256(report.to_json().encode()) != golden["sha256"]:
            return WRONG, f"n={n}: sweep report differs from the golden report"
        return OK, ""

    return check


def _sweep_op(n: int) -> Op:
    return Op(f"exhaustive_verify({n})", lambda: exhaustive_verify(n), _sweep_check(n),
              units=lambda report: report.instances)


def prepare_sweep(root: Path, seed: int, smoke: bool) -> Prepared:
    # The sweep is exhaustive, so the seed selects nothing: every run
    # enumerates the same instances. A round is the n = 3 sweep (145
    # instances, about 0.1 s); the n = 4 sweep (5325 instances, about 5 s)
    # runs once per run, so that its checks and the k = 4 poset search run
    # without leaving a run too few rounds.
    small, large = (2, 3) if smoke else (3, 4)
    return Prepared([_sweep_op(small)], before_round=_clear_enumeration_caches,
                    once=[_sweep_op(large)])


# -- classify-wide --------------------------------------------------------------------

OCTAHEDRON = (
    ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "e"), ("a", "d", "e"),
    ("f", "b", "c"), ("f", "b", "d"), ("f", "c", "e"), ("f", "d", "e"),
)
TETRAHEDRON = (("a", "b", "c", "d"),)
CIRCLE = (("a", "b"), ("b", "c"), ("a", "c"))
GUARD_LEDGER = "more than 20 strata: refused by the 2**k guard at the seed commit"


def _generated_space(n: int, density: float, seed: int):
    return alexandrov_space(generate("preorder", n, {"density": density}, seed).value)


def _random_partition(space, blocks: int, seed: int) -> Decomposition:
    n = len(space.points)
    return generate("partition", n, {"space": space, "blocks": blocks}, seed).value


def _graded_partition(space, blocks: int) -> Decomposition:
    """Cut the points, ordered by shrinking minimal open, into at most
    ``blocks`` runs of about equal size. Points with equal minimal opens
    stay together, so the strata relation only points forward and the
    result is poset-stratified."""
    groups: dict[int, list[str]] = {}
    for name, row in zip(space.points, space.min_open):
        groups.setdefault(row, []).append(name)
    ordered = sorted(groups.items(), key=lambda item: (-item[0].bit_count(), item[0]))
    runs: dict[int, list[str]] = {}
    placed = 0
    for _, names in ordered:
        runs.setdefault(placed * blocks // len(space.points), []).extend(names)
        placed += len(names)
    return Decomposition.from_strata(
        space, {str(i): names for i, names in enumerate(runs.values())}
    )


def _proper_preorder_pointwise(n: int, seed: int) -> Decomposition:
    """Pointwise decomposition of a generated preorder with a 2-cycle."""
    while True:
        space = _generated_space(n, 0.25, seed)
        if len(set(space.min_open)) < n:
            return Decomposition.pointwise(space)
        seed += 1


def _classify_op(label: str, dec: Decomposition, expected: str, known_failure=None) -> Op:
    def check(verdict) -> tuple[str, str]:
        if verdict != expected:
            return WRONG, f"{label}: verdict {verdict!r}, reference {expected!r}"
        return OK, ""

    # a fresh copy per call: the quotient and the preorder are cached on
    # the instance, and a user classifying a new document pays for them
    return Op(label, lambda: classify(Decomposition(dec.space, dec.strata)).verdict(), check,
              known_failure=known_failure)


def prepare_classify_wide(root: Path, seed: int, smoke: bool) -> Prepared:
    rng = random.Random(seed)
    points = 40 if smoke else 200
    # k stops at 15 (about 0.15 s) so that a round takes about 0.7 s
    random_ks = [4, 5, 6] if smoke else list(range(8, 16))
    graded_ks = range(4, 6) if smoke else range(8, 15)
    # The two spaces are the same in every run, like the sweep's instances:
    # the cost of a partition depends on its space, so a seeded space
    # would move the round's cost from one seed to the next. The seed draws
    # the partitions and the order.
    spaces = [
        _generated_space(points, 1.0 / points, 2001),
        _generated_space(points, 2.0 / points, 2002),
    ]
    cases: list[tuple[str, Decomposition, str | None]] = []
    for i, k in enumerate(random_ks):
        dec = _random_partition(spaces[i % 2], k, rng.randrange(1 << 32))
        cases.append((f"random n={points} k={k} #{i}", dec, None))
    for k in graded_ks:
        dec = _graded_partition(spaces[0], k)
        cases.append((f"graded n={points} k={dec.k}", dec, None))

    tetrahedron = face_poset_model(TETRAHEDRON)
    octahedron = face_poset_model(OCTAHEDRON)
    cases += [
        ("tetrahedron pointwise k=15", Decomposition.pointwise(tetrahedron.space), None),
        ("tetrahedron skeleton", tetrahedron.skeleton(), None),
        ("octahedron skeleton", octahedron.skeleton(), None),
        ("circle pointwise", Decomposition.pointwise(face_poset_model(CIRCLE).space), None),
    ]
    for n in (6, 7) if smoke else (8, 10, 12):
        cases.append(
            (f"proper preorder pointwise n={n}",
             _proper_preorder_pointwise(n, rng.randrange(1 << 32)), None)
        )

    # beyond today's 20-strata guard
    octahedron_pointwise = Decomposition.pointwise(octahedron.space)
    cases.append(("octahedron pointwise k=26", octahedron_pointwise, GUARD_LEDGER))
    wide_points = 100 if smoke else 1000
    wide_space = _generated_space(wide_points, 0.5 / wide_points, rng.randrange(1 << 32))
    wide = _random_partition(wide_space, 64, rng.randrange(1 << 32))
    cases.append((f"random n={wide_points} k=64", wide, GUARD_LEDGER))

    ops = []
    for label, dec, ledger in cases:
        expected = verdict_of(dec)
        if dec is octahedron_pointwise and expected != "stratification":
            # the pointwise decomposition of a poset is a stratification
            raise RuntimeError("reference verdict disagrees with the construction")
        ops.append(_classify_op(label, dec, expected, ledger))
    rng.shuffle(ops)
    return Prepared(ops)


# -- documents-bulk ------------------------------------------------------------------


def _document_op(label: str, workdir: Path, n: int, density: float, blocks: int, seed: int) -> Op:
    path = workdir / f"{label.replace(' ', '_')}.json"

    def call():
        proset = generate("preorder", n, {"density": density}, seed)
        space = alexandrov_space(proset.value)
        doc = generate("partition", n, {"space": space, "blocks": blocks}, seed + 1)
        text = save(doc)
        path.write_text(text, encoding="utf-8")
        loaded = load(path.read_text(encoding="utf-8"))
        return text, loaded, classify(loaded.value).verdict()

    def check(result) -> tuple[str, str]:
        text, loaded, verdict = result
        if save(loaded) != text:
            return WRONG, f"{label}: load then save is not byte-identical"
        if loaded.value.k != blocks or len(loaded.value.space.points) != n:
            return WRONG, f"{label}: loaded decomposition has the wrong shape"
        expected = verdict_of(loaded.value)
        if verdict != expected:
            return WRONG, f"{label}: verdict {verdict!r}, reference {expected!r}"
        return OK, ""

    return Op(label, call, check)


def _workdir(root: Path) -> Path:
    """A fresh directory for one set-up's files, inside the checkout."""
    parent = root / ".perfbench"
    parent.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=parent))


def prepare_documents_bulk(root: Path, seed: int, smoke: bool) -> Prepared:
    rng = random.Random(seed)
    workdir = _workdir(root)
    small, large = (30, 60) if smoke else (300, 1000)
    # (points, average out-degree of the drawn relation, blocks, seed):
    # degree 0.5 stays below the giant component (sparse minimal opens,
    # about 2 points each); degree 2 closes about two thirds of the points
    # into one strongly connected class, so most minimal opens are large
    # (dense: a 10 MB document at 1000 points, whose save and load grow
    # with the square of the points). A round is three sparse and three
    # dense 300-point documents drawn from the workload seed, about 1 s.
    # The two 1000-point documents, about 5 s together, are made once per
    # run from fixed seeds, like the sweep's instances, so that the peak
    # memory they set is the same in every run. The large sparse
    # document's cost is mostly the n*(n-1) generator draws.
    def ops_for(mix):
        return [_document_op(f"n={n} {'sparse' if degree < 1 else 'dense'} #{c}", workdir,
                             n, degree / n, blocks, doc_seed)
                for c, (n, degree, blocks, doc_seed) in enumerate(mix)]

    ops = ops_for([(small, degree, 6, rng.randrange(1 << 32))
                   for degree in (0.5, 0.5, 0.5, 2.0, 2.0, 2.0)])
    rng.shuffle(ops)
    once = ops_for([(large, 0.5, 8, 1000), (large, 2.0, 8, 1001)])
    return Prepared(ops, once=once, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


# -- cli-check --------------------------------------------------------------------------

CLI_COMMANDS = {
    "check-json": ["check", "{doc}", "--format", "json"],
    "classify-expect": ["classify", "{doc}", "--expect", "{verdict}"],
    "quotient": ["quotient", "{doc}"],
    "preorder-dot": ["preorder", "{doc}", "--dot"],
    "coarsen": ["coarsen", "{doc}"],
    "export-dot": ["export-dot", "{doc}"],
}
FIXTURE_DOCS = ("chain_3", "line_3", "pseudo_circle_4", "quadrant_4", "two_point_discrete")
POOL_SIZE = 24
TYPE_ERROR_LEDGER = "uncaught TypeError: traceback and exit 1 at the seed commit (ROADMAP item 5)"
# name -> (document text, known failure at the seed commit)
MALFORMED = {
    "truncated-json": ('{"kind": "space", "points": ["a"]', None),
    "unknown-kind": ('{"kind": "manifold"}', None),
    "strata-not-covering": (
        '{"kind": "decomposition", "space": {"fixture": "line_3"},'
        ' "strata": {"S0": ["m"], "S1": ["p"]}}',
        None,
    ),
    "unknown-fixture": (
        '{"kind": "decomposition", "space": {"fixture": "torus"}, "strata": {}}',
        None,
    ),
    "subbasis-non-string": ('{"kind":"space","points":["a"],"subbasis":["a",3]}', TYPE_ERROR_LEDGER),
    "symbolic-tag-list": ('{"kind":"symbolic-family","tag":[]}', TYPE_ERROR_LEDGER),
}


def pool_document(i: int) -> str:
    """Small generated decomposition number ``i`` of the fixed cli pool."""
    n = 6 + i % 7
    space = _generated_space(n, (0.15, 0.3)[i % 2], 7000 + i)
    blocks = min(n, 2 + i % 4)
    return save(generate("partition", n, {"space": space, "blocks": blocks}, 9000 + i))


def fixture_document(name: str) -> str:
    return save(fixture(name).document)


def cli_argv(command: str, doc_path: str, verdict: str) -> list[str]:
    return [a.format(doc=doc_path, verdict=verdict) for a in CLI_COMMANDS[command]]


def _cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("STRATKIT_MAX_POINTS", None)
    return env


def _golden_check(label: str, golden: dict):
    def check(result) -> tuple[str, str]:
        code, out, err = result
        if code != golden["exit"] or sha256(out) != golden["sha256"]:
            return WRONG, f"{label}: exit {code} or stdout differs from the golden output"
        return OK, ""

    return check


def _contract_check(label: str):
    def check(result) -> tuple[str, str]:
        code, out, err = result
        if code == 2 and b"Traceback" not in err:
            return OK, ""
        if code == 0:
            return WRONG, f"{label}: malformed document accepted"
        return FAILED, f"{label}: exit {code}, contract says 2"

    return check


def _subprocess_call(root: Path, argv: list[str]):
    env = _cli_env(root)

    def call():
        proc = subprocess.run(
            [sys.executable, "-m", "stratkit", *argv],
            cwd=root, env=env, capture_output=True, timeout=120, check=False,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return call


def _in_process_call(argv: list[str]):
    import contextlib
    import io

    from stratkit import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue().encode()

    return call


def prepare_cli_check(root: Path, seed: int, smoke: bool) -> Prepared:
    rng = random.Random(seed)
    workdir = _workdir(root)
    golden = GOLDEN["cli"]
    # one fixture and one pool document: 18 invocations, a round of about 3 s
    chosen = [f"fixture:{name}" for name in rng.sample(FIXTURE_DOCS, 1)]
    chosen += [f"pool:{i}" for i in rng.sample(range(POOL_SIZE), 1)]
    commands = list(CLI_COMMANDS)[:2] if smoke else list(CLI_COMMANDS)

    invocations = []  # (label, argv, check, known failure)
    for doc_id in chosen:
        kind, name = doc_id.split(":")
        text = fixture_document(name) if kind == "fixture" else pool_document(int(name))
        entry = golden[doc_id]
        if sha256(text.encode()) != entry["document_sha256"]:
            raise RuntimeError(f"{doc_id}: document bytes differ from the golden document")
        verdict = verdict_of(load(text).value)
        path = workdir / f"{doc_id.replace(':', '_')}.json"
        path.write_text(text, encoding="utf-8")
        for command in commands:
            label = f"{command} {doc_id}"
            argv = cli_argv(command, str(path), verdict)
            invocations.append((label, argv, _golden_check(label, entry[command]), None))
    for name, (text, ledger) in MALFORMED.items():
        path = workdir / f"malformed_{name}.json"
        path.write_text(text, encoding="utf-8")
        label = f"check-json malformed:{name}"
        invocations.append((label, ["check", str(path), "--format", "json"], _contract_check(label), ledger))
    rng.shuffle(invocations)

    ops = [Op(label, _subprocess_call(root, argv), check, known_failure=ledger)
           for label, argv, check, ledger in invocations]
    in_process = [Op(label, _in_process_call(argv), check, known_failure=ledger)
                  for label, argv, check, ledger in invocations]
    env = _cli_env(root)

    def interpreter_probe():
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env,
                       capture_output=True, timeout=60, check=True)

    return Prepared(ops, in_process_ops=in_process, probe=interpreter_probe,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "instances", prepare_sweep),
        Workload("classify-wide", "decompositions", prepare_classify_wide),
        Workload("documents-bulk", "documents", prepare_documents_bulk),
        Workload("cli-check", "invocations", prepare_cli_check, "python -c pass"),
    )
}
