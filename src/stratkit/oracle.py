"""Brute-force enumeration of small structures and the verification sweep.

Labeled preorders on n elements correspond exactly to topologies on n
points, so enumerating relations enumerates spaces. Every enumeration
refuses a size outside 0..``MAX_ELEMENTS`` (6), in ``_check_size``. The
sweep covers every (space, partition) pair of one size, reruns every
equivalence-group agreement from the decomposition module, compares the
polynomial quotient and Alexandrov routes with the definitional ones that
filter all 2**k sets of strata (once per instance), checks the theorems
production does not assert (the decomposition preorder against the closed
saturations, the combination law for stratifications), and checks the
order-level statements against every labeled partial order on the stratum
set. A correct build reports zero failures; the first failure is
captured as a serializable document bundle.

Relabeling the points is a homeomorphism, so no checked statement can
tell two pairs in one orbit of the symmetric group apart. The sweep
therefore runs its checks on one instance per orbit: the least relabeled
row tuple of each preorder (``preorder_orbits``, built by one-point
extension) and, under that preorder's automorphisms, the first partition
of each orbit in ``set_partitions`` order (``partition_orbits``). Every
tally, ``spaces``, ``instances`` and ``order_pairs`` add the orbit size,
so they count labeled instances, and the report is byte-identical to one
that checks every labeled pair (``tests/helpers.labeled_sweep`` is that
reference). ``first_counterexample`` is a canonical orbit representative.
At n = 5 the 360,984 labeled instances are 4,323 orbits. Through the
CLI that sweep took 1.8 s at a 17 MB peak in each of three runs; at
n = 6, 42,533,981 labeled instances, one run took 207 s at a 62 MB peak
(Python 3.11, one core of a shared 2-vCPU host).

Each check is a law in one ordered table, ``LAWS``: a name, a scope (a
space, an instance, or an order that the search over labeled partial
orders on the strata, ``_orders_by_continuity``, finds continuous for an
instance) and a check that returns True (holds), False (fails) or None
(does not apply); a check that raises InternalInvariantError or
PreconditionError fails. The sweep runs the table in order, so its order
decides which law names the first counterexample. ``compatible_orders``
and ``strict_refinements_never_open`` assert the order laws on one
decomposition and, as ``poset_stratified_triple_agreement`` does in the
sweep, that every order containing the preorder is among those found
(``_refinements_continuous``), which the order laws alone cannot see.
Adding a law changes ``tests/data/sweep5_json.sha256`` and the sweep
digests in ``perfbench/golden.json``.
This module is also the one place the quotient map is built point by
point, as a ``SpaceMap`` (``classify``, ``check`` and ``theorem-b`` build
none), in ``semicontinuity_matches_point_map``: the sweep's reference
for the stratum-level verdicts.
The labeled partial orders the search reads are built once per entry
call, by the call that reads them (a ``Sweep`` for each stratum count up
to its size, ``compatible_orders`` and ``strict_refinements_never_open``
for theirs), and dropped with it: no enumeration is cached between calls,
so a call at n = 6 leaves no 21 MB of rows behind.
"""

from __future__ import annotations

from itertools import compress, permutations, repeat
from math import factorial
from operator import not_
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .decomposition import Decomposition, as_poset_stratified
from .documents import canonical_json, payload_of
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .kernel import (
    iter_bits, min_open_rows, preimage_of, reflexive_transitive_closure, rows_meeting, rows_within,
    transpose,
)
from .order import (
    Poset, Proset, adjunction_roundtrips, alexandrov_space, singleton_local_closure_check,
)
from .topology import FiniteSpace, SpaceMap, Value, cached_property, check_type, final_topology

#: Known totals (OEIS A000798, A001035, A000110), checked by the tests.
PREORDER_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}
POSET_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}
PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}

#: The one bound on every labeled enumeration: elements, strata or points.
MAX_ELEMENTS = 6


def _one_point_extensions(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every preorder on m + 1 elements whose restriction to the first m is
    ``rows``: the new element m gets an up-closed up-set U and a down-closed
    down-set D with every member of D already below every member of U."""
    m = len(rows)
    bit = 1 << m
    down = transpose(rows)  # down[j]: the elements below j
    ups = [u for u in range(bit) if not preimage_of(rows, u) & ~u]
    for d in range(bit):
        if preimage_of(down, d) & ~d:
            continue
        meet = bit - 1
        for i in iter_bits(d):
            meet &= rows[i]
        base = tuple([row | bit if (d >> i) & 1 else row for i, row in enumerate(rows)])
        for u in ups:
            if not u & ~meet:
                yield base + (u | bit,)


def _check_size(n: int, what: str, unit: str) -> None:
    """Refuse a size that is not an int in 0..MAX_ELEMENTS: a negative size
    is not the empty case, and a bool or float is not a size."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"{what} size must be a nonnegative integer, got {n!r}")
    if n > MAX_ELEMENTS:
        raise ValidationError(f"{what} bound is {MAX_ELEMENTS} {unit}")


def labeled_preorder_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Every reflexive transitive relation on n labeled elements.

    Built by one-point extension from the empty relation, then sorted into
    ascending order of the off-diagonal bits read as a number (pair (i, j),
    i != j, row-major, is bit 0, 1, ...): since the diagonal bit of row i
    is always set, that is ascending order of the rows read last to first.
    The result is deterministic and duplicate free.
    """
    _check_size(n, "relation enumeration", "elements")
    level = [()]
    for _ in range(n):
        level = [ext for rows in level for ext in _one_point_extensions(rows)]
    return tuple(sorted(level, key=lambda rows: rows[::-1]))


def labeled_poset_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The antisymmetric members of ``labeled_preorder_rows``: those whose
    rows are all distinct, as mutually comparable elements share one up-set
    (``Proset.is_poset``)."""
    return tuple(rows for rows in labeled_preorder_rows(n) if len(set(rows)) == len(rows))


def _relabelings(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every permutation p of range(n) as its inverse and its action on
    masks (entry m is the image of mask m), so a relation's rows relabel
    as ``rows[inverse[j]]`` mapped through the table, for j in order."""
    out = []
    for perm in permutations(range(n)):
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << perm[low.bit_length() - 1]
        inverse = [0] * n
        for i, j in enumerate(perm):
            inverse[j] = i
        out.append((tuple(inverse), table))
    return out


def preorder_orbits(n: int) -> list[tuple[tuple[int, ...], tuple[list[int], ...]]]:
    """One preorder on n elements per relabeling orbit, with the mask
    tables of its automorphisms, in ascending order of representative.

    The orbits on m + 1 elements are found from the representatives on m
    by one-point extension (removing any element from a preorder leaves
    one isomorphic to a representative), and each extension is replaced
    by its least relabeled row tuple over all (m + 1)! permutations, which
    is the representative of its orbit. The orbit of a representative has
    n! / (number of automorphisms) members.
    """
    reps = [()]
    relabelings = _relabelings(0)
    for m in range(1, n + 1):
        relabelings = _relabelings(m)
        reps = sorted({
            min(tuple([table[ext[i]] for i in inverse]) for inverse, table in relabelings)
            for rows in reps
            for ext in _one_point_extensions(rows)
        })
    return [
        (rows, tuple(
            table for inverse, table in relabelings
            if tuple([table[rows[i]] for i in inverse]) == rows
        ))
        for rows in reps
    ]


def partition_orbits(
    partitions: Sequence[tuple[tuple[str, ...], ...]], automorphisms: Sequence[list[int]]
) -> Iterator[tuple[tuple[tuple[str, ...], ...], int]]:
    """The first of ``partitions`` (of the points "0".."n-1") in each orbit
    under the automorphisms, given as mask tables, with the orbit's size."""
    seen: set[frozenset[int]] = set()
    for partition in partitions:
        blocks = frozenset([sum(1 << int(p) for p in block) for block in partition])
        if blocks in seen:
            continue
        images = {frozenset([table[b] for b in blocks]) for table in automorphisms}
        seen |= images
        yield partition, len(images)


def _default_elements(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def enumerate_prosets(n: int) -> Iterator[Proset]:
    """All labeled preorders on elements "0".."n-1", deterministic order."""
    elements = _default_elements(n)
    for rows in labeled_preorder_rows(n):
        yield Proset(elements, rows)


def enumerate_posets(n: int) -> Iterator[Poset]:
    """All labeled partial orders on elements "0".."n-1"."""
    elements = _default_elements(n)
    for rows in labeled_poset_rows(n):
        yield Poset(elements, rows)


def set_partitions(items: Sequence[str]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Every partition of the items into nonempty blocks.

    Blocks appear in first-occurrence order (restricted-growth order), so
    the iteration is deterministic and complete: the counts are the Bell
    numbers.
    """
    items = tuple(items)
    n = len(items)
    if n == 0:
        yield ()
        return

    def rec(i: int, blocks: list[list[str]]):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def enumerate_partitions(n: int) -> Iterator[tuple[tuple[str, ...], ...]]:
    """All partitions of points "0".."n-1"."""
    _check_size(n, "partition enumeration", "elements")
    yield from set_partitions(_default_elements(n))


# -- the labeled-order search -------------------------------------------------


def _orders_by_continuity(
    dec: Decomposition, orders: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], list[bool]]:
    """``orders``, every labeled partial order on the stratum indices as
    up-set rows, and for each whether the quotient map is continuous into
    its order topology."""
    return orders, list(map(dec._pi_continuous_rows, orders))


def _refinements_continuous(
    dec: Decomposition, orders: Sequence[tuple[int, ...]], continuous: Sequence[bool]
) -> bool:
    """Whether the search found every order containing the decomposition
    preorder continuous: none of the others contains it."""
    missed = compress(orders, map(not_, continuous))
    return not any(map(rows_within, repeat(dec.preorder.up), missed))


# -- the law table ------------------------------------------------------------


def quotient_space_by_subset_filter(dec: Decomposition) -> tuple[FiniteSpace, frozenset[int]]:
    """The quotient space from its definition, with the family it is built
    from: all 2**k sets of strata filtered for an open preimage
    (``Decomposition.quotient_open_family``), and the intersection of the
    members through each stratum as its minimal open. Exponential in k."""
    family = frozenset(dec.quotient_open_family())
    return FiniteSpace(dec.ids, min_open_rows(dec.k, family)), family


def alexandrov_by_subset_filter(
    dec: Decomposition, quotient: FiniteSpace, family: frozenset[int]
) -> tuple[bool, bool, bool]:
    """The three Alexandrov characterizations from their definitions, on
    the output of ``quotient_space_by_subset_filter``: (1) whether the
    intersection of the members through each stratum is a member, (2)
    whether the family equals the up-set family of the decomposition
    preorder, and (3) whether every up-set is in the family (continuity
    into the preorder topology). Exponential in k."""
    up = dec.preorder.up
    up_family = frozenset(j for j in range(1 << dec.k) if not preimage_of(up, j) & ~j)
    has_min_open = all(row in family for row in quotient.min_open)
    return has_min_open, family == up_family, up_family <= family


def semicontinuity_matches_point_map(dec: Decomposition) -> bool:
    """The stratum-level openness and closedness of the quotient map, and
    the openness witness, against the point-level ``SpaceMap`` of it, whose
    assignment is read off the strata bit by bit: no image routine is shared."""
    semi = dec.semicontinuity()
    assignment = [0] * len(dec.space.points)
    for t, mask in enumerate(dec.masks):
        for i in iter_bits(mask):
            assignment[i] = t
    pi = SpaceMap(dec.space, dec.quotient_space, tuple(assignment))
    opn = pi.is_open()
    return (semi.pi_open, semi.pi_closed, dec._quotient_open.witness) == (
        opn.holds, pi.is_closed().holds, opn.witness
    )


def preorder_matches_closed_saturations(dec: Decomposition) -> bool:
    """The decomposition preorder against its direct description.

    The least set of strata around stratum j whose preimage is closed is
    the reflexive-transitive closure, at j, of "meets the closure of"
    between strata. It must be the down-set of j, and i <= j must hold
    exactly when stratum i lies inside its preimage.
    """
    p = dec.preorder
    saturations = reflexive_transitive_closure(
        [rows_meeting(dec.masks, closure) for closure in dec._closures]
    )
    for j, saturation in enumerate(saturations):
        if saturation != p.down[j]:
            return False
        closed_union = preimage_of(dec.masks, saturation)
        for i, mask in enumerate(dec.masks):
            if (not (mask & ~closed_union)) != bool((p.up[i] >> j) & 1):
                return False
    return True


class _Space(NamedTuple):
    """The case of a space law: a preorder and its order topology."""

    proset: Proset
    space: FiniteSpace


class _Instance:
    """The case of an instance law: a decomposition, every labeled partial
    order on its strata, and the values its laws share, each computed on
    first use and then kept. A value whose computation raises is not kept,
    so each law that reads it fails."""

    def __init__(self, dec: Decomposition, orders: tuple[tuple[int, ...], ...]):
        self.dec, self.orders = dec, orders

    subset_filter = cached_property(lambda self: quotient_space_by_subset_filter(self.dec))
    search = cached_property(lambda self: _orders_by_continuity(self.dec, self.orders))
    frontier = cached_property(lambda self: self.dec.frontier_equivalences().value)
    poset_stratified = cached_property(lambda self: self.dec.poset_stratified_equivalences().value)
    stratification = cached_property(lambda self: self.dec.is_stratification().holds)


class _Order:
    """The case of an order law: the up-set rows of an order on the strata
    that the search finds an instance's quotient map continuous into, and
    whether the order contains the decomposition preorder, and strictly."""

    def __init__(self, instance: _Instance, rows: tuple[int, ...]):
        base = instance.dec.preorder.up
        self.instance, self.rows = instance, rows
        self.refines = rows_within(base, rows)
        self.strict = self.refines and rows != base

    opens = cached_property(lambda self: self.instance.dec._open_into(self.rows).holds)


def _open_cover_recovers_space(case: _Space) -> bool:
    space = case.space
    subspaces = [space.subspace(space.names_of(mask)) for mask in dict.fromkeys(space.min_open)]
    family = [(sub, {p: p for p in sub.points}) for sub in subspaces]
    return final_topology(space.points, family) == space


class Law(NamedTuple):
    """A named statement: ``check`` takes one case of ``scope`` and returns
    whether the statement holds there, or None where it does not apply."""

    name: str
    scope: str
    check: Callable[[Any], bool | None]


#: The sweep's laws in the order it records them (see the module docstring).
#: The checks call the functions the benchmark's tracer wraps by their
#: global names, so the tracer sees each call.
LAWS = (
    Law("adjunction_roundtrips", "space",
        lambda case: adjunction_roundtrips(case.proset, case.space) is None),
    Law("poset_iff_singletons_locally_closed", "space",
        lambda case: singleton_local_closure_check(case.proset) is not None),
    Law("open_cover_final_topology_recovers_space", "space", _open_cover_recovers_space),
    Law("quotient_fixpoint_matches_subset_filter", "instance",
        lambda case: case.dec.quotient_space == case.subset_filter[0]),
    Law("closed_saturation_matches_preorder_down_sets", "instance",
        lambda case: preorder_matches_closed_saturations(case.dec)),
    Law("alexandrov_triple_agreement", "instance",
        lambda case: case.dec.alexandrov_equivalences().values
        == alexandrov_by_subset_filter(case.dec, *case.subset_filter)),
    Law("frontier_quadruple_agreement", "instance", lambda case: case.frontier is not None),
    Law("poset_stratified_triple_agreement", "instance",
        lambda case: any(case.search[1]) == case.poset_stratified
        and (not case.poset_stratified or _refinements_continuous(case.dec, *case.search))),
    Law("semicontinuity_pairings", "instance",
        lambda case: semicontinuity_matches_point_map(case.dec)),
    Law("locally_closed_and_frontier_iff_poset_stratified_and_open", "instance",
        lambda case: (all(v.holds for _, v in case.dec.locally_closed_strata()) and case.frontier)
        == (case.poset_stratified and case.dec._quotient_open.holds)),
    Law("stratification_induces_initial_partial_order", "instance",
        lambda case: as_poset_stratified(case.dec) is not None if case.stratification else None),
    # over its own preorder: stratification iff the map is open (local
    # finiteness holds identically at finite scale)
    Law("stratification_iff_quotient_map_open_over_own_order", "instance",
        lambda case: case.stratification == case.dec._quotient_open.holds
        if case.poset_stratified else None),
    Law("compatible_orders_contain_decomposition_preorder", "order", lambda case: case.refines),
    Law("continuous_open_order_implies_stratification", "order",
        lambda case: case.instance.stratification if case.opens else None),
    Law("strict_refinement_is_continuous_never_open", "order",
        lambda case: not case.opens if case.instance.stratification and case.strict else None),
)
_SCOPES = {s: tuple(law for law in LAWS if law.scope == s) for s in ("space", "instance", "order")}


def _checked_search(d: Decomposition) -> list[tuple[int, ...]]:
    """The rows of each order the search finds the quotient map continuous
    into, asserting that every order containing the decomposition preorder
    is among them and that each order law holds on each."""
    _check_size(d.k, "order enumeration", "strata")
    case = _Instance(d, labeled_poset_rows(d.k))
    if not _refinements_continuous(d, *case.search):
        raise InternalInvariantError("refinement broke continuity of the quotient map")
    found = [_Order(case, rows) for rows in compress(*case.search)]
    for order in found:
        for law in _SCOPES["order"]:
            if law.check(order) is False:
                raise InternalInvariantError(f"order-level statement fails: {law.name}")
    return [order.rows for order in found]


def compatible_orders(d: Decomposition) -> tuple[Poset, ...]:
    """Every partial order on the stratum ids that makes the quotient map
    of a poset-stratified decomposition continuous, asserting the
    decomposition preorder is initial among them."""
    check_type(d, Decomposition, "decomposition")
    if not d.poset_stratified_equivalences().value:
        raise PreconditionError("decomposition is not poset-stratified")
    return tuple(Poset(d.ids, rows) for rows in _checked_search(d))


def strict_refinements_never_open(d: Decomposition) -> int:
    """The number of strict refinements of the frontier order of a
    stratification, asserting the quotient map is continuous but never
    open into each."""
    check_type(d, Decomposition, "decomposition")
    verdict = d.is_stratification()
    if not verdict:
        raise PreconditionError(
            "input decomposition is not a stratification", reasons=verdict.reasons
        )
    return len(_checked_search(d)) - 1  # every order found but the frontier order


# -- the sweep ----------------------------------------------------------------


class Tally(NamedTuple):
    passed: int
    failed: int


class SweepReport(Value):
    """Counts and per-check tallies of one sweep. It holds the first
    counterexample as a dict, so it compares and hashes by identity."""

    _fields = __match_args__ = (
        "n", "spaces", "instances", "order_pairs", "tallies", "first_counterexample"
    )
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self,
        n: int,
        spaces: int,
        instances: int,
        order_pairs: int,
        tallies: tuple[tuple[str, Tally], ...],
        first_counterexample: dict | None,
    ):
        values = (n, spaces, instances, order_pairs, tallies, first_counterexample)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"SweepReport({fields})"

    @property
    def failures(self) -> int:
        return sum(t.failed for _, t in self.tallies)

    def summary(self) -> str:
        return f"{self.instances} instances, {self.failures} failures"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "spaces": self.spaces,
            "instances": self.instances,
            "order_pairs": self.order_pairs,
            "failures": self.failures,
            "checks": {
                name: {"passed": t.passed, "failed": t.failed} for name, t in self.tallies
            },
            "first_counterexample": self.first_counterexample,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


class Sweep:
    """Tallies of the sweep's laws over the instances it is given.

    Each space or instance is checked once and adds ``weight`` to every
    count it touches: the number of labeled spaces or instances it
    stands for. ``exhaustive_verify`` passes one representative per
    relabeling orbit, weighted by the orbit size. The labeled partial
    orders on k strata, for each k up to n, are built here once and read
    by every instance.
    """

    def __init__(self, n: int):
        self.n = n
        self._orders = [labeled_poset_rows(k) for k in range(n + 1)]
        self.spaces = 0
        self.instances = 0
        self.order_pairs = 0
        self._counts: dict[str, list[int]] = {}
        self._first_cex: dict | None = None

    def _run(self, scope: str, case, weight: int, space: FiniteSpace, dec=None) -> None:
        """Record the outcome of each law of ``scope`` that applies to ``case``."""
        for law in _SCOPES[scope]:
            try:
                ok = law.check(case)
            except (InternalInvariantError, PreconditionError):
                ok = False
            if ok is None:
                continue
            self._counts.setdefault(law.name, [0, 0])[0 if ok else 1] += weight
            if not ok and self._first_cex is None:
                self._first_cex = {"check": law.name, "space": payload_of(space)}
                if dec is not None:
                    self._first_cex["decomposition"] = payload_of(dec)

    def check_space(self, proset: Proset, weight: int) -> FiniteSpace:
        """Run the space laws on the order topology of ``proset`` and
        return that space."""
        self.spaces += weight
        space = alexandrov_space(proset)
        self._run("space", _Space(proset, space), weight, space)
        return space

    def check_instance(
        self, space: FiniteSpace, partition: tuple[tuple[str, ...], ...], weight: int
    ) -> None:
        """Run the instance laws and the order laws on the decomposition of
        ``space`` into the blocks of ``partition``."""
        self.instances += weight
        dec = Decomposition.from_strata(
            space, {str(b): block for b, block in enumerate(partition)}
        )
        case = _Instance(dec, self._orders[dec.k])
        self._run("instance", case, weight, space, dec)
        self.order_pairs += weight * len(case.search[0])
        for rows in compress(*case.search):
            self._run("order", _Order(case, rows), weight, space, dec)

    def report(self) -> SweepReport:
        tallies = tuple(
            (name, Tally(passed, failed))
            for name, (passed, failed) in sorted(self._counts.items())
        )
        return SweepReport(
            n=self.n,
            spaces=self.spaces,
            instances=self.instances,
            order_pairs=self.order_pairs,
            tallies=tallies,
            first_counterexample=self._first_cex,
        )


def exhaustive_verify(n: int) -> SweepReport:
    """Recheck every order-and-decomposition statement on all instances of
    size n, one per relabeling orbit, each weighted by its orbit size.
    See the module docstring for what one instance contributes."""
    _check_size(n, "exhaustive sweep", "points")
    points = _default_elements(n)
    partitions = tuple(set_partitions(points))
    labelings = factorial(n)
    sweep = Sweep(n)
    for rows, automorphisms in preorder_orbits(n):
        orbit = labelings // len(automorphisms)
        space = sweep.check_space(Proset(points, rows), orbit)
        for partition, size in partition_orbits(partitions, automorphisms):
            sweep.check_instance(space, partition, orbit * size)
    return sweep.report()
