"""Brute-force enumeration of small structures and the verification sweep.

Labeled preorders on n elements correspond exactly to topologies on n
points, so enumerating relations enumerates spaces. The sweep covers
every (space, partition) pair up to a size bound, reruns every
equivalence-group agreement from the decomposition module, compares the
polynomial quotient and Alexandrov routes with the definitional ones that
filter all 2**k sets of strata (once per instance), checks the theorems
production does not assert (the decomposition preorder against the closed
saturations, the combination law for stratifications), and checks the
order-level statements against every labeled partial order on the stratum
set. Each value is computed once per instance and each check is one
``record``; an InternalInvariantError raised by a production agreement is
recorded as its failure. A correct build reports zero failures; the first
failure is captured as a serializable document bundle.

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
CLI that sweep took a median of 3.24 s in one set of six runs and 1.98 s
in a later set of ten (Python 3.11, one core of a shared 2-vCPU host).

This module is the one home of the search over labeled partial orders on
the strata (``_orders_by_continuity``) and of the statements made over
the orders it finds continuous (``_order_statements``). The sweep checks
the production poset-stratified value, decided by antisymmetry of the
decomposition preorder, against the search and records the statements;
``compatible_orders`` and ``strict_refinements_never_open`` assert them
for one decomposition. The statements run only on the orders the search
finds continuous, so whether every order containing the preorder is
among them is checked on its own (``_refinements_continuous``): the
sweep folds it into ``poset_stratified_triple_agreement`` on each
instance whose preorder is a partial order, and
``strict_refinements_never_open`` asserts it. Without it, a search that
dropped the refinements would leave their statements nothing to run on.
It is also the one place the quotient map is built point by point, as a
``SpaceMap`` (``classify``, ``check`` and ``theorem-b`` build none), in
``semicontinuity_matches_point_map``: the sweep's reference for the
stratum-level verdicts.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, permutations, repeat
from math import factorial
from operator import not_
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .decomposition import Decomposition, as_poset_stratified
from .documents import canonical_json, payload_of
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .order import (
    Poset,
    Proset,
    adjunction_roundtrips,
    alexandrov_space,
    reflexive_transitive_closure,
    singleton_local_closure_check,
)
from .topology import (
    FiniteSpace, SpaceMap, Value, final_topology, iter_bits, min_open_rows, preimage_of,
    rows_within, transpose,
)

#: Known totals (OEIS A000798, A001035, A000110), checked by the tests.
PREORDER_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
POSET_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}

T = TypeVar("T")

MAX_ORDER_ELEMENTS = 4
MAX_PARTITION_ELEMENTS = 6


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


@lru_cache(maxsize=None)
def labeled_preorder_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Every reflexive transitive relation on n labeled elements.

    Built by one-point extension from the empty relation, then sorted into
    ascending order of the off-diagonal bits read as a number (pair (i, j),
    i != j, row-major, is bit 0, 1, ...): since the diagonal bit of row i
    is always set, that is ascending order of the rows read last to first.
    The result is deterministic and duplicate free.
    """
    if n > 6:
        raise ValidationError("relation enumeration is limited to 6 elements")
    level = [()]
    for _ in range(n):
        level = [ext for rows in level for ext in _one_point_extensions(rows)]
    return tuple(sorted(level, key=lambda rows: rows[::-1]))


@lru_cache(maxsize=None)
def labeled_poset_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The antisymmetric members of ``labeled_preorder_rows``: those where
    each element's up-set meets its down-set in the element alone."""
    return tuple(
        rows for rows in labeled_preorder_rows(n)
        if all(up & down == 1 << i for i, (up, down) in enumerate(zip(rows, transpose(rows))))
    )


def naive_preorder_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Independent rederivation: filter all 2**(n*n) boolean matrices.

    Slow by design; the in-repo oracle for the enumeration counts.
    """
    if n > 3:
        raise ValidationError("the naive relation filter is limited to 3 elements")
    out = []
    for code in range(1 << (n * n)):
        rows = [0] * n
        for i in range(n):
            for j in range(n):
                if (code >> (i * n + j)) & 1:
                    rows[i] |= 1 << j
        if any(not (rows[i] >> i) & 1 for i in range(n)):
            continue
        ok = True
        for i in range(n):
            acc = rows[i]
            for j in iter_bits(rows[i]):
                acc |= rows[j]
            if acc != rows[i]:
                ok = False
                break
        if ok:
            out.append(tuple(rows))
    return tuple(out)


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


def _check_size(n: int, max_n: int, what: str, unit: str) -> None:
    """Refuse a size outside 0..max_n: a negative size is not the empty case."""
    if n < 0:
        raise ValidationError(f"{what} size must be nonnegative, got {n}")
    if n > max_n:
        raise ValidationError(f"{what} bound is {max_n} {unit}")


def _default_elements(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def enumerate_prosets(n: int, max_n: int = MAX_ORDER_ELEMENTS) -> Iterator[Proset]:
    """All labeled preorders on elements "0".."n-1", deterministic order."""
    _check_size(n, max_n, "preorder enumeration", "elements")
    elements = _default_elements(n)
    for rows in labeled_preorder_rows(n):
        yield Proset(elements, rows)


def enumerate_posets(n: int, max_n: int = MAX_ORDER_ELEMENTS) -> Iterator[Poset]:
    """All labeled partial orders on elements "0".."n-1"."""
    _check_size(n, max_n, "poset enumeration", "elements")
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


def enumerate_partitions(n: int, max_n: int = MAX_PARTITION_ELEMENTS) -> Iterator[
    tuple[tuple[str, ...], ...]
]:
    """All partitions of points "0".."n-1"."""
    _check_size(n, max_n, "partition enumeration", "elements")
    yield from set_partitions(_default_elements(n))


# -- the labeled-order search -------------------------------------------------


def _orders_by_continuity(
    dec: Decomposition,
) -> tuple[tuple[tuple[int, ...], ...], list[bool]]:
    """Every labeled partial order on the stratum indices, as up-set rows,
    and for each whether the quotient map is continuous into its order
    topology."""
    orders = labeled_poset_rows(dec.k)
    return orders, list(map(dec._pi_continuous_rows, orders))


def _refinements_continuous(
    dec: Decomposition, orders: Sequence[tuple[int, ...]], continuous: Sequence[bool]
) -> bool:
    """Whether the search found every order containing the decomposition
    preorder continuous: none of the others contains it."""
    missed = compress(orders, map(not_, continuous))
    return not any(map(rows_within, repeat(dec.preorder.up), missed))


def _order_statements(
    dec: Decomposition,
    orders: Sequence[tuple[int, ...]],
    continuous: Sequence[bool],
    strat: bool | None,
) -> Iterator[tuple[tuple[int, ...], str, bool]]:
    """(order rows, check name, holds) on each order the quotient map is
    continuous into: the order contains the decomposition preorder; and if
    ``strat``, whether ``dec`` is a stratification, is known, an open map
    into the order implies it, and a strict refinement is never open."""
    base = dec.preorder.up
    for rows in compress(orders, continuous):
        contains_base = rows_within(base, rows)
        yield rows, "compatible_orders_contain_decomposition_preorder", contains_base
        if strat is None:
            continue
        opn = dec._open_into(rows).holds
        if opn:
            yield rows, "continuous_open_order_implies_stratification", strat
        if strat and rows != base and contains_base:
            yield rows, "strict_refinement_is_continuous_never_open", not opn


def _asserted(
    statements: Iterator[tuple[tuple[int, ...], str, bool]],
) -> Iterator[tuple[tuple[int, ...], str]]:
    """Each statement as (order rows, check name), raising
    InternalInvariantError at the first that fails."""
    for rows, name, holds in statements:
        if not holds:
            raise InternalInvariantError(f"order-level statement fails: {name}")
        yield rows, name


class CompatibleOrdersReport(NamedTuple):
    """All partial orders on the stratum ids that make the quotient map
    continuous; the decomposition preorder is contained in each."""

    orders: tuple[Poset, ...]

    @property
    def count(self) -> int:
        """The number of orders. This property shadows ``tuple.count``."""
        return len(self.orders)


def compatible_orders(d: Decomposition, bound: int = 4) -> CompatibleOrdersReport:
    """Enumerate the partial orders a poset-stratified decomposition works
    over, asserting the decomposition preorder is initial among them."""
    if not d.poset_stratified_equivalences().value:
        raise PreconditionError("decomposition is not poset-stratified")
    _check_size(d.k, bound, "order enumeration", "strata")
    statements = _order_statements(d, *_orders_by_continuity(d), None)
    return CompatibleOrdersReport(tuple(Poset(d.ids, rows) for rows, _ in _asserted(statements)))


class RefinementReport(NamedTuple):
    refinements_tested: int


def strict_refinements_never_open(d: Decomposition, bound: int = 4) -> RefinementReport:
    """Over every strict refinement of the frontier order of a
    stratification, the quotient map stays continuous but is never open."""
    verdict = d.is_stratification()
    if not verdict:
        raise PreconditionError(
            "input decomposition is not a stratification", reasons=verdict.reasons
        )
    _check_size(d.k, bound, "order enumeration", "strata")
    orders, continuous = _orders_by_continuity(d)
    if not _refinements_continuous(d, orders, continuous):
        raise InternalInvariantError("refinement broke continuity of the quotient map")
    statements = _order_statements(d, orders, continuous, True)
    return RefinementReport(sum(
        name == "strict_refinement_is_continuous_never_open" for _, name in _asserted(statements)
    ))


# -- the sweep ----------------------------------------------------------------


def _or_none(check: Callable[..., T], *args) -> T | None:
    """``check(*args)``, or None when it raises InternalInvariantError: a
    production agreement failed, which the sweep records as a failure."""
    try:
        return check(*args)
    except InternalInvariantError:
        return None


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
    the openness witness, against the point-level ``SpaceMap`` of it."""
    semi = dec.semicontinuity()
    pi = SpaceMap(dec.space, dec.quotient_space, dec._point_to_stratum)
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
        [dec._strata_meeting_mask(closure) for closure in dec._closures]
    )
    for j, saturation in enumerate(saturations):
        if saturation != p.down[j]:
            return False
        closed_union = preimage_of(dec.masks, saturation)
        for i, mask in enumerate(dec.masks):
            if (not (mask & ~closed_union)) != bool((p.up[i] >> j) & 1):
                return False
    return True


class Tally(NamedTuple):
    passed: int
    failed: int

    @property
    def total(self) -> int:
        return self.passed + self.failed


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
    """Tallies of the sweep's checks over the instances it is given.

    Each space or instance is checked once and adds ``weight`` to every
    count it touches: the number of labeled spaces or instances it
    stands for. ``exhaustive_verify`` passes one representative per
    relabeling orbit, weighted by the orbit size.
    """

    def __init__(self, n: int):
        self.n = n
        self.spaces = 0
        self.instances = 0
        self.order_pairs = 0
        self._weight = 1
        self._counts: dict[str, list[int]] = {}
        self._first_cex: dict | None = None

    def _record(self, name: str, ok: bool, context) -> None:
        slot = self._counts.setdefault(name, [0, 0])
        slot[0 if ok else 1] += self._weight
        if not ok and self._first_cex is None:
            space, dec = context
            bundle = {"check": name, "space": payload_of(space)}
            if dec is not None:
                bundle["decomposition"] = payload_of(dec)
            self._first_cex = bundle

    def check_space(self, proset: Proset, weight: int) -> FiniteSpace:
        """Run the space-level checks on the order topology of ``proset``
        and return that space."""
        self.spaces += weight
        self._weight = weight
        record = self._record
        space = alexandrov_space(proset)
        ctx = (space, None)
        ok = _or_none(adjunction_roundtrips, proset, space) is not None
        record("adjunction_roundtrips", ok, ctx)
        ok = _or_none(singleton_local_closure_check, proset) is not None
        record("poset_iff_singletons_locally_closed", ok, ctx)
        family = []
        for mask in dict.fromkeys(space.min_open):
            member = space.names_of(mask)
            sub = space.subspace(member)
            family.append((sub, {p: p for p in sub.points}))
        record(
            "open_cover_final_topology_recovers_space",
            final_topology(space.points, family) == space,
            ctx,
        )
        return space

    def check_instance(
        self, space: FiniteSpace, partition: tuple[tuple[str, ...], ...], weight: int
    ) -> None:
        """Run the instance-level checks and the order search on the
        decomposition of ``space`` into the blocks of ``partition``."""
        self.instances += weight
        self._weight = weight
        record = self._record
        dec = Decomposition.from_strata(
            space, {str(b): block for b, block in enumerate(partition)}
        )
        ctx = (space, dec)
        quotient, family = quotient_space_by_subset_filter(dec)
        record("quotient_fixpoint_matches_subset_filter", dec.quotient_space == quotient, ctx)
        ok = _or_none(preorder_matches_closed_saturations, dec)
        record("closed_saturation_matches_preorder_down_sets", ok is True, ctx)
        ok = _or_none(lambda: dec.alexandrov_equivalences().values
                      == alexandrov_by_subset_filter(dec, quotient, family))
        record("alexandrov_triple_agreement", ok is True, ctx)
        frontier = _or_none(lambda: dec.frontier_equivalences().value)
        record("frontier_quadruple_agreement", frontier is not None, ctx)
        # the search: some labeled partial order makes the map continuous
        orders, continuous = _orders_by_continuity(dec)
        self.order_pairs += weight * len(orders)
        poset_strat = _or_none(lambda: dec.poset_stratified_equivalences().value)
        agree = poset_strat == any(continuous)
        if poset_strat:  # the preorder is a partial order, so some orders contain it
            agree = agree and _refinements_continuous(dec, orders, continuous)
        record("poset_stratified_triple_agreement", agree, ctx)
        ok = _or_none(semicontinuity_matches_point_map, dec)
        record("semicontinuity_pairings", ok is True, ctx)

        locally_closed = all(v.holds for _, v in dec.locally_closed_strata())
        pi_open = dec._quotient_open.holds
        if frontier is not None and poset_strat is not None:
            record(
                "locally_closed_and_frontier_iff_poset_stratified_and_open",
                (locally_closed and frontier) == (poset_strat and pi_open),
                ctx,
            )
        strat = _or_none(lambda: dec.is_stratification().holds)
        if strat:
            try:
                as_poset_stratified(dec)
                ok = True
            except (InternalInvariantError, PreconditionError):
                ok = False
            record("stratification_induces_initial_partial_order", ok, ctx)
        if poset_strat and strat is not None:
            # over its own preorder: stratification iff the map is open
            # (local finiteness holds identically at finite scale)
            record(
                "stratification_iff_quotient_map_open_over_own_order",
                strat == pi_open,
                ctx,
            )
        for _, name, holds in _order_statements(dec, orders, continuous, strat):
            record(name, holds, ctx)

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


def exhaustive_verify(n: int, max_n: int = 4) -> SweepReport:
    """Recheck every order-and-decomposition statement on all instances of
    size n, one per relabeling orbit, each weighted by its orbit size.
    See the module docstring for what one instance contributes."""
    _check_size(n, max_n, "exhaustive sweep", "points")
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
