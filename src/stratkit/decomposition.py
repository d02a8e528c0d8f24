"""Decompositions of finite spaces and the classification ladder.

A decomposition is a partition of a space into named nonempty strata. Its
quotient map onto the stratum set induces the quotient topology (the
decomposition space) and, through specialization, the decomposition
preorder. The checks here grade a decomposition, by the bit-row set
algebra of ``kernel.py``, along the ladder

    decomposition  ->  Alexandrov  ->  poset-stratified  ->  stratification

where each rung is characterized several independent ways.

``classify`` stays polynomial in the number of strata k and computes each
value it reports once, from one stratum-level relation and the stratum
closures. ``_reach[t]`` is the set of strata meeting the open hull of
stratum t. A set J of strata has an open preimage iff ``_reach[t]`` lies
in J for each t in J, and a closed preimage iff its complement has an open
one. So the quotient topology is the up-set topology of the
reflexive-transitive closure of ``_reach`` (the quotient of a finite space
is always Alexandrov), and the decomposition preorder is its
specialization preorder.

The quotient map is decided at stratum level too, into the order topology
of a preorder on the strata given by its rows: the quotient's own, a
supplied ``Poset`` reindexed to the sorted ids, or an order the sweep
searches. It is continuous iff ``_reach`` lies inside the up-sets, open
iff the strata each minimal open meets form an up-set, and closed iff
those each point closure meets form a down-set. Scanned in point-name
order, these give the witness a point-level map check gives. ``classify``,
``check`` and ``theorem-b`` build no point-level map: it is the sweep's
reference, compared with these verdicts under ``semicontinuity_pairings``.

What runs in ``classify``:

* tables: each stratum's open hull (the union of its points' minimal
  opens, which ``_reach`` reads) and its closure (the union of its points'
  closures) come from one pass over its bits (``kernel.preimages_of``);
  local closedness is their intersection against the stratum. A caller
  that reads only ``_reach`` (``coarsen``, the quotient, the preorder)
  walks the minimal opens alone and builds no point closures.
* quotient: the closure of ``_reach``, returned as it is when already
  transitive (``kernel.reflexive_transitive_closure``).
* Alexandrov: the fixpoint rows have open preimages, tested once per
  distinct row; the preorder's up-sets equal the quotient's minimal
  opens; continuity into the preorder topology.
* frontier: per stratum, the strata whose closures it meets (its
  ``_reach`` row) against those whose closures contain it, closures
  against the minimal closed saturations (the preimages of the
  preorder's down-sets, computed once and shared with the
  poset-stratified group), the second row against the preorder's up-set,
  and openness of the quotient map.
* poset-stratified: the preorder is antisymmetric (some partial order
  makes the quotient map continuous exactly when the preorder, the least
  candidate, is one), antisymmetric with a continuous map, and strata open
  in the preimages of their down-sets.
* semicontinuity: saturations of minimal opens and of point closures by
  the ``_reach`` test, against the quotient map's openness and closedness
  in the quotient space, image by image in one pass per basis; an image
  that repeats an earlier one is not tested again.

Production asserts only agreements between values it reports: the labels
of each of the three groups above, and each saturation formula against
its map-side counterpart on every image. A disagreement raises
InternalInvariantError, since it can only mean a defect in this library,
never bad input.

Agreements whose outcome nothing reports are theorems on finite inputs,
and only the exhaustive sweep in ``oracle.py`` tallies them: the preorder
against the closed saturations, the combination law for stratifications,
the definitional routes that enumerate all 2**k sets of strata
(``quotient_open_family``, guarded by ``topology.MAX_POINTS`` read at call
time, and ``oracle.quotient_space_by_subset_filter`` built on it) and the
search over every labeled partial order on the strata, which
``compatible_orders`` and ``strict_refinements_never_open`` also run for
one decomposition.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress, tee
from typing import Iterable, NamedTuple

from . import topology
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .kernel import (
    iter_bits, names_at, preimage_of, preimages_of, reflexive_transitive_closure, rows_meeting,
    rows_within,
)
from .order import Poset, Proset, specialization_preorder
from .topology import FiniteSpace, Value, Verdict, cached_property, check_collection, check_type

class AgreementReport(NamedTuple):
    """Independently computed values of one equivalence group.

    The builder asserts all values equal before constructing the report,
    so ``value`` is well defined. ``witnesses`` carries a human-readable
    counterexample per failing label.
    """

    labels: tuple[str, ...]
    values: tuple[bool, ...]
    witnesses: tuple[tuple[str, str], ...] = ()

    @property
    def value(self) -> bool:
        return self.values[0] if self.values else True

    def __bool__(self) -> bool:
        return self.value


class StratificationVerdict(NamedTuple):
    holds: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


class SemicontinuityReport(NamedTuple):
    """Saturation formulas and quotient-map properties, evaluated separately.

    Saturating every open set to a union of strata yields opens iff the
    quotient map is open; dually for closed sets and closed maps. The
    classical naming follows the map side: open means lower semicontinuous,
    closed means upper semicontinuous, both means continuous.
    """

    sat_open_open: bool
    sat_closed_closed: bool
    pi_open: bool
    pi_closed: bool

    @property
    def label(self) -> str:
        if self.pi_open and self.pi_closed:
            return "continuous"
        if self.pi_open:
            return "lower-semicontinuous"
        if self.pi_closed:
            return "upper-semicontinuous"
        return "neither"


class OrderCheck(NamedTuple):
    """How the quotient map behaves against a supplied partial order."""

    continuous: bool
    open: bool
    continuity_witness: object = None
    openness_witness: object = None


def _agree(labels, values, witnesses=()) -> AgreementReport:
    if len(set(values)) > 1:
        detail = ", ".join(f"{l}={v}" for l, v in zip(labels, values))
        raise InternalInvariantError(f"equivalent conditions disagree: {detail}")
    return AgreementReport(tuple(labels), tuple(values), tuple(witnesses))


def _closed_under(pairs, rows, names) -> Verdict:
    """Whether the mask of each (key, mask) pair is closed under the relation
    ``rows`` (no member relates to a non-member); the witness is the first
    failing key, as a set of ``names``."""
    for key, mask in pairs:
        if preimage_of(rows, mask) & ~mask:
            return Verdict(False, frozenset(names_at(names, key)))
    return Verdict(True)


def _first_difference(rows, others) -> tuple[int, int] | None:
    """The first index i, in order, at which the two row sequences differ,
    with the lowest bit j on which they differ there; None if none does."""
    for i, (row, other) in enumerate(zip(rows, others)):
        if row != other:
            return i, next(iter_bits(row ^ other))
    return None


def _checked_ids(ids):
    """The ids, each a nonempty string; checked before any sorting compares them."""
    for sid in ids:
        if not isinstance(sid, str) or not sid:
            raise ValidationError(f"stratum ids must be nonempty strings, got {sid!r}")
    return ids


class Decomposition(Value):
    """A finite space with a validated partition into named strata.

    ``strata`` holds (stratum id, point mask) pairs with the ids strictly
    sorted. Strata must be nonempty, pairwise disjoint, and cover the
    space. The induced quotient map sends a point to the id of its
    stratum; the strata are its fibers, and the one record of it.
    """

    _fields = __match_args__ = ("space", "strata")

    def __init__(self, space: FiniteSpace, strata: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "strata", strata)
        self.__post_init__()

    def __post_init__(self):
        check_type(self.space, FiniteSpace, "Decomposition space")
        items = tuple(self.strata)
        object.__setattr__(self, "strata", items)
        ids = _checked_ids([sid for sid, _ in items])
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValidationError("stratum ids must be unique and sorted")
        union = 0
        full = self.space.full_mask
        for sid, mask in items:
            if not isinstance(mask, int) or isinstance(mask, bool):
                raise ValidationError(f"stratum mask for {sid!r} must be an int, got {mask!r}")
            if mask < 0 or mask > full:
                raise ValidationError(f"stratum mask out of range for {sid!r}")
            if not mask:
                raise ValidationError(f"stratum empty: {sid!r}")
            if mask & union:
                raise ValidationError("strata not disjoint")
            union |= mask
        if union != full:
            raise ValidationError("strata do not cover the space")

    @classmethod
    def from_strata(
        cls, space: FiniteSpace, strata: Mapping[str, Iterable[str]]
    ) -> "Decomposition":
        check_type(space, FiniteSpace, "Decomposition space")
        check_type(strata, Mapping, "Decomposition strata")
        items = []
        for sid in sorted(_checked_ids(strata)):
            check_collection(strata[sid], f"stratum {sid!r}", must="list its points")
            items.append((sid, space.mask_of(strata[sid])))
        return cls(space, tuple(items))

    @classmethod
    def pointwise(cls, space: FiniteSpace) -> "Decomposition":
        """One stratum per point, named after the point."""
        check_type(space, FiniteSpace, "Decomposition space")
        return cls.from_strata(space, {p: (p,) for p in space.points})

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{sid}={{{','.join(sorted(self.space.names_of(mask)))}}}"
            for sid, mask in self.strata
        )
        return f"Decomposition({parts})"

    # -- basic accessors -------------------------------------------------

    # Per-stratum tuples are built from lists: tuple() over a generator
    # grows the tuple by resizing, and every such tuple leaves one more
    # block in the interpreter's tuple free list, which a long run of
    # classify calls fills to its cap (about 2 MB at 11 to 15 strata).

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple([sid for sid, _ in self.strata])

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple([mask for _, mask in self.strata])

    @property
    def k(self) -> int:
        return len(self.strata)

    def stratum(self, sid: str) -> frozenset[str]:
        for s, mask in self.strata:
            if s == sid:
                return self.space.names_of(mask)
        raise ValidationError(f"unknown stratum id: {sid!r}")

    def pi(self, point: str) -> str:
        """Stratum id of a point: the decomposition map."""
        image = rows_meeting(self.masks, 1 << self.space.point_index(point))
        return self.ids[image.bit_length() - 1]

    # -- stratum-level relations ---------------------------------------------

    @cached_property
    def _hulls(self) -> tuple[int, ...]:
        """Open hull of each stratum, as a point mask: the union of its
        points' minimal opens. Read alone (``_reach``), it needs no point
        closures; a reader of both tables reads ``_closures`` first."""
        min_open = self.space.min_open
        return tuple([preimage_of(min_open, mask) for mask in self.masks])

    @cached_property
    def _closures(self) -> tuple[int, ...]:
        """Closure of each stratum, as a point mask: the union of its points'
        closures. One pass over the strata builds it and ``_hulls`` too,
        unless the hulls are built already (the sweep reads ``_reach``
        first): then it walks the point closures alone."""
        space = self.space
        if "_hulls" in self.__dict__:
            closures = space.point_closures
            return tuple([preimage_of(closures, mask) for mask in self.masks])
        hulls, closures = preimages_of(space.min_open, space.point_closures, self.masks)
        self.__dict__["_hulls"] = hulls
        return closures

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """``_reach[t]``: the strata meeting the open hull of stratum t."""
        return tuple([rows_meeting(self.masks, hull) for hull in self._hulls])

    @cached_property
    def _closed_saturations(self) -> tuple[int, ...]:
        """The minimal closed saturation of each stratum: the union of the
        strata in its down-set under the decomposition preorder, found once
        for each distinct down-set (the strata of one class share it)."""
        downs = self.preorder.down
        union = {down: preimage_of(self.masks, down) for down in set(downs)}
        return tuple([union[down] for down in downs])

    def _preimage_is_open(self, idx_mask: int) -> bool:
        """Whether the union of the strata in ``idx_mask`` is open: every
        point of stratum t has its minimal open inside the union iff the
        open hull of t meets only strata of the set."""
        return not preimage_of(self._reach, idx_mask) & ~idx_mask

    # -- quotient topology -------------------------------------------------

    @cached_property
    def quotient_space(self) -> FiniteSpace:
        """The stratum set with the quotient topology.

        The minimal open around stratum i is the least id-set J containing
        i whose preimage is open: the reflexive-transitive closure of
        ``_reach`` at i. The least such J exists because sets with open
        preimage are closed under intersection. Closed rows need no check.
        """
        return FiniteSpace._from_valid(self.ids, reflexive_transitive_closure(self._reach))

    def quotient_open_family(self) -> tuple[int, ...]:
        """All id-sets with open preimage, by brute 2**k filtering.

        This is the definition of the quotient topology; the fixpoint route
        in ``quotient_space`` must induce exactly this family. Oracle only:
        the size guard is ``topology.MAX_POINTS`` at call time.
        """
        limit = topology.MAX_POINTS
        if self.k > limit:
            raise ValidationError(
                f"quotient family needs 2**{self.k} candidates; guard is {limit} strata"
            )
        return tuple(
            j for j in range(1 << self.k) if self.space._is_open(preimage_of(self.masks, j))
        )

    # -- decomposition preorder ---------------------------------------------

    @cached_property
    def preorder(self) -> Proset:
        """Specialization preorder of the quotient: i <= j iff i in closure({j}).

        The up-set of i is the minimal open of i in the quotient. The
        direct description -- the down-set of j is the least stratum-set
        whose preimage is closed, and i <= j iff stratum i lies inside that
        preimage -- is checked by the exhaustive sweep
        (``oracle.preorder_matches_closed_saturations``), not here.
        """
        return specialization_preorder(self.quotient_space)

    # -- classification rungs -------------------------------------------------

    def locally_closed_strata(self) -> tuple[tuple[str, Verdict], ...]:
        """Per stratum, whether it is its open hull intersected with its
        closure (see ``FiniteSpace.is_locally_closed``); the witness of a
        locally closed stratum is its hull, as point names. The verdicts
        are built on each call from ``_locally_closed``, the booleans alone,
        which is all ``is_stratification`` and ``classify`` read."""
        points, locally_closed = self.space.points, self._locally_closed
        return tuple([
            (sid, Verdict(holds, witness=frozenset(names_at(points, hull)) if holds else None))
            for sid, hull, holds in zip(self.ids, self._hulls, locally_closed)
        ])

    @cached_property
    def _locally_closed(self) -> tuple[bool, ...]:
        """Per stratum, whether its open hull meets its closure in the stratum alone."""
        closures = self._closures  # first: its pass builds the hulls too
        return tuple([
            hull & closure == mask
            for hull, closure, mask in zip(self._hulls, closures, self.masks)
        ])

    def alexandrov_equivalences(self) -> AgreementReport:
        """Three characterizations of the quotient being an Alexandrov space.

        (1) the fixpoint rows of ``quotient_space`` have open preimages, so
        each is the minimal open of its stratum, (2) the up-sets of the
        decomposition preorder equal those minimal opens, so its up-set
        topology is the quotient topology, (3) the quotient map is
        continuous into the preorder topology (``_reach`` inside the
        preorder). All three hold for finite inputs; the point of the
        operation is their agreement. The oracle compares them with the
        2**k subset filter.
        """
        rows = self.quotient_space.min_open
        # strata sharing a minimal open share its preimage: one test per distinct row
        has_min_open = all((row >> i) & 1 for i, row in enumerate(rows)) and all(
            map(self._preimage_is_open, dict.fromkeys(rows))
        )
        p = self.preorder
        same_topology = p.up == rows
        continuous = self._pi_continuous_rows(p.up)
        return _agree(
            (
                "quotient_has_minimal_opens",
                "preorder_topology_equals_quotient_topology",
                "map_to_preorder_space_continuous",
            ),
            (has_min_open, same_topology, continuous),
        )

    def frontier_equivalences(self) -> AgreementReport:
        """Four characterizations of the frontier condition.

        (1) a stratum meeting another's closure is contained in it, (2)
        each stratum closure is the minimal closed union of strata around
        it, (3) the decomposition preorder coincides with closure
        containment, (4) the quotient map is open. Witnesses name the
        lexicographically first counterexample.
        """
        return self._frontier

    @cached_property
    def _frontier(self) -> AgreementReport:
        closures, masks = self._closures, self.masks
        witnesses = []

        # per stratum, the closures it meets and those containing it: the
        # first row is ``_reach``, since S_i meets cl(S_j) iff the open hull
        # of S_i meets S_j; the second is built when a scan reaches it
        bits = [1 << j for j in range(self.k)]
        inside, inside_again = tee(
            sum(compress(bits, map(mask.__eq__, map(mask.__and__, closures)))) for mask in masks
        )

        bad = _first_difference(self._reach, inside)
        frontier = bad is None
        if not frontier:
            witnesses.append((
                "frontier_condition",
                f"stratum {self.ids[bad[0]]!r} meets the closure of "
                f"{self.ids[bad[1]]!r} without being contained in it",
            ))

        bad = _first_difference(closures, self._closed_saturations)
        closure_is_saturation = bad is None
        if not closure_is_saturation:
            witnesses.append((
                "closure_is_minimal_closed_saturation",
                f"closure of stratum {self.ids[bad[0]]!r} is not a union of strata",
            ))

        bad = _first_difference(self.preorder.up, inside_again)
        order_matches = bad is None
        if not order_matches:
            witnesses.append((
                "preorder_equals_closure_containment",
                f"pair ({self.ids[bad[0]]!r}, {self.ids[bad[1]]!r}) ordered by only "
                "one of the two descriptions",
            ))

        open_verdict = self._quotient_open
        if not open_verdict:
            witnesses.append((
                "quotient_map_open",
                f"open set {sorted(open_verdict.witness)} has a non-open image",
            ))

        return _agree(
            (
                "frontier_condition",
                "closure_is_minimal_closed_saturation",
                "preorder_equals_closure_containment",
                "quotient_map_open",
            ),
            (frontier, closure_is_saturation, order_matches, open_verdict.holds),
            witnesses,
        )

    # -- the quotient map into an order topology ---------------------------

    # A target is a preorder on the stratum indices given by its up-set rows
    # (or, for closedness, its down-set rows); its opens are the up-sets.

    def _pi_continuous_rows(self, up_rows: tuple[int, ...]) -> bool:
        """Continuity: each up-set contains the ``_reach`` row of each of
        its members, which for reflexive transitive rows holds iff
        ``_reach[t]`` lies inside ``up_rows[t]`` for every t."""
        return rows_within(self._reach, up_rows)

    def _continuous_into(self, up_rows: tuple[int, ...]) -> Verdict:
        """Continuity; the witness is the first up-set, in id order, whose
        preimage is not open."""
        if self._pi_continuous_rows(up_rows):
            return Verdict(True)
        return _closed_under(zip(up_rows, up_rows), self._reach, self.ids)

    def _open_into(self, up_rows: tuple[int, ...]) -> Verdict:
        """Openness: each minimal open has an up-closed image, the strata it
        meets, computed when reached; the witness is the first that has not."""
        images = ((basic, rows_meeting(self.masks, basic)) for basic in self.space._open_basis)
        return _closed_under(images, up_rows, self.space.points)

    def _onto_quotient(self, closed: bool) -> tuple[Verdict, bool]:
        """Openness (closedness) of the quotient map onto the quotient space,
        in one pass over the minimal opens (point closures). Each image must
        be closed under the up-sets (down-sets) exactly when its saturation
        formula holds: the union of its strata (of the others) is open. Each
        distinct image is tested once, where it first occurs. The first
        failure is the witness; the verdict comes with the formula's."""
        if closed:
            basics, rows, others = self.space._closed_basis, self.preorder.down, (1 << self.k) - 1
        else:
            basics, rows, others = self.space._open_basis, self.quotient_space.min_open, 0
        seen = set()  # images already tested: each passed, or the pass ended there
        for basic in basics:
            image = rows_meeting(self.masks, basic)
            if image in seen:
                continue
            seen.add(image)
            mapped = not preimage_of(rows, image) & ~image
            formula = self._preimage_is_open(others ^ image)
            if mapped != formula:
                kind = "closed" if closed else "open"
                raise InternalInvariantError(
                    f"{kind} saturation disagrees with quotient map {kind}ness"
                )
            if not mapped:
                return Verdict(False, frozenset(names_at(self.space.points, basic))), formula
        return Verdict(True), True

    # openness is reported by the frontier group and ``semicontinuity`` both
    _open_pass = cached_property(lambda self: self._onto_quotient(False))
    _closed_pass = cached_property(lambda self: self._onto_quotient(True))
    _quotient_open = property(lambda self: self._open_pass[0])

    def poset_stratified_equivalences(self) -> AgreementReport:
        """Three characterizations of being poset-stratified.

        (1) some partial order on the stratum ids makes the quotient map
        continuous into its order topology, (2) the decomposition preorder
        is a partial order and the quotient map is continuous into its
        order topology, (3) every stratum is open in the preimage of its
        down-set, the minimal closed stratum-set around it. The map is
        continuous into the order topology of R exactly when the preorder
        lies inside R, so (1) holds exactly when the preorder is
        antisymmetric. The exhaustive sweep in ``oracle.py`` checks (1)
        against a search over every labeled partial order, and that each
        order it finds contains the preorder (the preorder is initial).
        """
        return self._poset_stratified

    @cached_property
    def _poset_stratified(self) -> AgreementReport:
        p = self.preorder
        cond1 = bool(p.is_poset())
        cond2 = cond1 and self._pi_continuous_rows(p.up)

        # the minimal opens of a stratum's points cover its open hull
        cond3 = not any(
            hull & saturation & ~mask
            for hull, saturation, mask in zip(self._hulls, self._closed_saturations, self.masks)
        )

        return _agree(
            (
                "stratified_over_some_partial_order",
                "preorder_is_partial_order_and_map_continuous",
                "strata_open_in_minimal_closed_saturation",
            ),
            (cond1, cond2, cond3),
        )

    def is_stratification(self) -> StratificationVerdict:
        """Locally closed strata and the frontier condition. (Local
        finiteness, the third clause, holds for every finite decomposition.)

        The combination law -- the two clauses hold together exactly when
        the decomposition is poset-stratified with an open quotient map --
        is a theorem; the exhaustive sweep tallies it as
        ``locally_closed_and_frontier_iff_poset_stratified_and_open``.
        """
        reasons = [
            f"stratum {sid!r} is not locally closed"
            for sid, holds in zip(self.ids, self._locally_closed)
            if not holds
        ]
        if not self.frontier_equivalences().value:
            reasons.append("frontier condition fails")
        return StratificationVerdict(not reasons, tuple(reasons))

    def check_against_order(self, order: Poset) -> OrderCheck:
        """Behavior of the quotient map into the order topology of a given
        partial order on the stratum ids.

        Ids with no preimage cannot appear: the order must be a ``Poset``
        on exactly the stratum ids.
        """
        up_rows = _order_rows(self, order)
        cont, opn = self._continuous_into(up_rows), self._open_into(up_rows)
        return OrderCheck(cont.holds, opn.holds, cont.witness, opn.witness)

    def coarsen(self) -> tuple["Decomposition", "PosetStratification"]:
        """Merge strata along the equivalence classes of the preorder.

        The merged decomposition is poset-stratified over the reflection of
        the decomposition preorder; classes are named by their least member
        id. Two strata land in the same class exactly when their down-sets,
        the minimal closed stratum-unions around them, coincide.
        """
        poset, q = self.preorder.reflection()
        merged = zip(poset.elements, [preimage_of(self.masks, fiber) for fiber in q._fibers])
        dec = Decomposition(self.space, tuple(merged))
        return dec, PosetStratification(dec, poset)

    def semicontinuity(self) -> SemicontinuityReport:
        """Saturation formulas versus quotient-map properties.

        Saturation (preimage of image) commutes with unions, so it is
        enough to saturate the minimal opens and the point closures. A
        saturation is open iff the image is closed under ``_reach``, and
        closed iff the other strata are. Each formula must agree with its
        map-side counterpart, which tests the same image in the quotient, on
        every image of the one pass deciding that property of the map.
        """
        (pi_open, sat_open), (pi_closed, sat_closed) = self._open_pass, self._closed_pass
        return SemicontinuityReport(sat_open, sat_closed, pi_open.holds, pi_closed.holds)


def _order_rows(d: Decomposition, order: Poset) -> tuple[int, ...]:
    """The up-set rows of ``order`` reindexed to the sorted ``d.ids``: the
    one door for a supplied order, which must be a ``Poset`` on exactly
    the stratum ids."""
    check_type(order, Poset, "order")
    if extra := set(order.elements) - set(d.ids):
        raise ValidationError(
            f"order element {sorted(extra)[0]!r} has empty preimage in the decomposition"
        )
    if missing := set(d.ids) - set(order.elements):
        raise ValidationError(f"order is missing stratum id {sorted(missing)[0]!r}")
    position = {sid: 1 << i for i, sid in enumerate(d.ids)}
    bits = [position[e] for e in order.elements]
    return tuple([preimage_of(bits, order.up[order.element_index(sid)]) for sid in d.ids])


class PosetStratification(Value):
    """A decomposition together with a partial order on its stratum ids
    making the quotient map a continuous surjection onto the order
    topology. Both properties are validated at construction; the order
    must be a ``Poset`` (``_order_rows``)."""

    _fields = __match_args__ = ("dec", "order")

    def __init__(self, dec: Decomposition, order: Poset):
        object.__setattr__(self, "dec", dec)
        object.__setattr__(self, "order", order)
        self.__post_init__()

    def __post_init__(self):
        check_type(self.dec, Decomposition, "PosetStratification decomposition")
        if not self.dec._pi_continuous_rows(self._up):
            raise ValidationError("decomposition map is not continuous for the given order")

    @cached_property
    def _up(self) -> tuple[int, ...]:
        """The order's up-set rows, indexed like ``dec.ids``."""
        return _order_rows(self.dec, self.order)

    def __repr__(self) -> str:
        return f"PosetStratification({self.dec!r}, order={self.order!r})"


# -- derived constructions ---------------------------------------------------


def as_poset_stratified(d: Decomposition) -> PosetStratification:
    """View a stratification as poset-stratified over its frontier order.

    Requires ``is_stratification``; the failed clauses are reported
    otherwise. The order is the decomposition preorder, whose agreement
    with closure containment the frontier group asserts. Its antisymmetry
    (the combination law, which the sweep tallies) and the continuity of
    the quotient map into it are checked here; a failure of either raises
    InternalInvariantError.
    """
    check_type(d, Decomposition, "decomposition")
    verdict = d.is_stratification()
    if not verdict:
        raise PreconditionError(
            "input decomposition is not a stratification", reasons=verdict.reasons
        )
    p = d.preorder
    try:  # a stratification's preorder is a partial order the map is continuous into
        return PosetStratification(d, Poset(p.elements, p.up))
    except ValidationError as exc:
        raise InternalInvariantError(str(exc)) from exc


def stratification_from_open_map(ps: PosetStratification) -> None:
    """A poset-stratified space over a locally finite order topology with an
    open quotient map decomposes into a stratification.

    Finite order topologies are locally finite, so openness of the quotient
    map is the one hypothesis checked (failure raises PreconditionError).
    The conclusion and the refinement property of the supplied order are
    asserted; returning at all confirms both.
    """
    check_type(ps, PosetStratification, "poset stratification")
    d = ps.dec
    open_verdict = d._open_into(ps._up)
    if not open_verdict:
        raise PreconditionError(
            "decomposition map is not an open map for the supplied order",
            reasons=(f"open set {sorted(open_verdict.witness)} has a non-open image",),
        )
    verdict = d.is_stratification()
    if not verdict:
        raise InternalInvariantError(
            "open map over a locally finite order did not yield a stratification: "
            + "; ".join(verdict.reasons)
        )
    if not rows_within(d.preorder.up, ps._up):
        raise InternalInvariantError("supplied order does not refine the decomposition preorder")


# -- the aggregated report -----------------------------------------------------


class ClassificationReport(NamedTuple):
    """Every classification rung for one decomposition, with witnesses."""

    alexandrov: AgreementReport
    locally_closed: tuple[tuple[str, bool], ...]
    frontier: AgreementReport
    poset_stratified: AgreementReport
    stratification: StratificationVerdict
    semicontinuity: SemicontinuityReport

    @property
    def witnesses(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.frontier.witnesses)

    def verdict(self) -> str:
        """Highest rung of the ladder the decomposition reaches."""
        if self.stratification.holds:
            return "stratification"
        if self.poset_stratified.value:
            return "poset-stratified"
        if self.alexandrov.value:
            return "alexandrov"
        return "decomposition"

    def to_json_dict(self) -> dict:
        return {
            "alexandrov": dict(zip(self.alexandrov.labels, self.alexandrov.values)),
            # a clause of the stratification test that every finite input meets
            "locally_finite": True,
            "locally_closed": dict(self.locally_closed),
            "frontier": dict(zip(self.frontier.labels, self.frontier.values)),
            "poset_stratified": dict(
                zip(self.poset_stratified.labels, self.poset_stratified.values)
            ),
            "stratification": {
                "holds": self.stratification.holds,
                "reasons": list(self.stratification.reasons),
            },
            "semicontinuity": {
                "sat_open_open": self.semicontinuity.sat_open_open,
                "sat_closed_closed": self.semicontinuity.sat_closed_closed,
                "pi_open": self.semicontinuity.pi_open,
                "pi_closed": self.semicontinuity.pi_closed,
                "label": self.semicontinuity.label,
            },
            "verdict": self.verdict(),
            "witnesses": dict(self.witnesses),
        }


def classify(d: Decomposition) -> ClassificationReport:
    """Run every classification check and collect the results.

    Polynomial in the size of the space and the number of strata; the
    frontier group is memoised on ``d``, so ``is_stratification`` reuses
    it instead of recomputing.
    """
    if not isinstance(d, Decomposition):
        raise ValidationError(f"classify needs a Decomposition, got {type(d).__name__}")
    # before ``_reach``, which reads the hulls alone: one pass builds both tables
    locally_closed = tuple(list(zip(d.ids, d._locally_closed)))
    return ClassificationReport(
        alexandrov=d.alexandrov_equivalences(),
        locally_closed=locally_closed,
        frontier=d.frontier_equivalences(),
        poset_stratified=d.poset_stratified_equivalences(),
        stratification=d.is_stratification(),
        semicontinuity=d.semicontinuity(),
    )
