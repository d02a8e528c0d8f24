"""Decompositions of finite spaces and the classification ladder.

A decomposition is a partition of a space into named nonempty strata. Its
quotient map onto the stratum set induces the quotient topology (the
decomposition space) and, through specialization, the decomposition
preorder. The checks in this module grade a decomposition along the
ladder

    decomposition  ->  Alexandrov  ->  poset-stratified  ->  stratification

where each rung is characterized several independent ways.

``classify`` stays polynomial in the number of strata k and computes each
value it reports once, from one stratum-level relation and the stratum
closures. ``_reach[t]`` is the set of strata meeting the open hull of
stratum t. A set J of strata has an open preimage iff ``_reach[t]`` lies
in J for each t in J, and a closed preimage iff its complement has an open
one. So the quotient topology is the up-set topology of the
reflexive-transitive closure of ``_reach`` (the quotient of a finite space
is always Alexandrov), the decomposition preorder is its specialization
preorder, and the quotient map is continuous into the order topology of a
preorder R exactly when ``_reach`` lies inside R row by row. What runs in
``classify``:

* Alexandrov: the fixpoint rows have open preimages; the preorder's
  up-sets equal the quotient's minimal opens; ``_reach`` lies inside the
  preorder (continuity into its order topology).
* frontier: closure containment, closures as preimages of the preorder's
  down-sets, the preorder against closure containment, and openness of
  the quotient map.
* poset-stratified: the preorder is antisymmetric (some partial order
  makes the quotient map continuous exactly when the preorder, the least
  candidate, is one), antisymmetric with a continuous map, and strata open
  in the preimages of their down-sets.
* semicontinuity: saturations of minimal opens and of point closures by
  the stratum-level test, against the quotient map's openness and
  closedness.

Production asserts only agreements between values it reports: the labels
of each of the three groups above, and each saturation formula against
its map-side counterpart. A disagreement raises InternalInvariantError,
since it can only mean a defect in this library, never bad input.

Agreements whose outcome nothing reports are theorems on finite inputs,
and only the exhaustive sweep in ``oracle.py`` tallies them: the preorder against
the closed saturations built from the stratum closures
(``closed_saturation_matches_preorder_down_sets``), the combination law
for stratifications
(``locally_closed_and_frontier_iff_poset_stratified_and_open``), the
definitional routes that enumerate all 2**k sets of strata --
``quotient_open_family``, ``quotient_space_by_subset_filter`` and the
comparison of the filtered family with the up-set family -- and the
search over every labeled partial order on the strata.
``compatible_orders`` and ``strict_refinements_never_open`` enumerate
orders for a given decomposition. The subset routes are guarded by
``topology.MAX_POINTS``, read at call time.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Iterable, Mapping, NamedTuple

from . import topology
from .errors import InternalInvariantError, PreconditionError, ValidationError
from .order import (
    Poset,
    Proset,
    alexandrov_space,
    reflexive_transitive_closure,
    specialization_preorder,
)
from .topology import FiniteSpace, SpaceMap, Value, Verdict, iter_bits, min_open_rows, preimage_of

#: The decomposition preorder is an ordinary preorder on stratum ids.
DecompositionPreorder = Proset


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
    def lower_semicontinuous(self) -> bool:
        return self.pi_open

    @property
    def upper_semicontinuous(self) -> bool:
        return self.pi_closed

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


class Decomposition(Value):
    """A finite space with a validated partition into named strata.

    ``strata`` holds (stratum id, point mask) pairs with the ids strictly
    sorted. Strata must be nonempty, pairwise disjoint, and cover the
    space. The induced quotient map sends a point to the id of its
    stratum.
    """

    _fields = __match_args__ = ("space", "strata")

    def __init__(self, space: FiniteSpace, strata: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "strata", strata)
        self.__post_init__()

    def __post_init__(self):
        items = tuple(self.strata)
        object.__setattr__(self, "strata", items)
        ids = [sid for sid, _ in items]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValidationError("stratum ids must be unique and sorted")
        for sid in ids:
            if not isinstance(sid, str) or not sid:
                raise ValidationError(f"stratum ids must be nonempty strings, got {sid!r}")
        union = 0
        full = self.space.full_mask
        for sid, mask in items:
            if not isinstance(mask, int) or mask <= 0 or mask > full:
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
        items = tuple((sid, space.mask_of(strata[sid])) for sid in sorted(strata))
        return cls(space, items)

    @classmethod
    def pointwise(cls, space: FiniteSpace) -> "Decomposition":
        """One stratum per point, named after the point."""
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

    @cached_property
    def _point_to_stratum(self) -> tuple[int, ...]:
        out = [0] * len(self.space.points)
        for t, mask in enumerate(self.masks):
            for i in iter_bits(mask):
                out[i] = t
        return tuple(out)

    def stratum(self, sid: str) -> frozenset[str]:
        for s, mask in self.strata:
            if s == sid:
                return self.space.names_of(mask)
        raise ValidationError(f"unknown stratum id: {sid!r}")

    def pi(self, point: str) -> str:
        """Stratum id of a point: the decomposition map."""
        return self.ids[self._point_to_stratum[self.space.point_index(point)]]

    def _strata_meeting_mask(self, point_mask: int) -> int:
        out = 0
        for t, mask in enumerate(self.masks):
            if mask & point_mask:
                out |= 1 << t
        return out

    # -- stratum-level relations ---------------------------------------------

    @cached_property
    def _hulls(self) -> tuple[int, ...]:
        """Open hull of each stratum, as a point mask."""
        return tuple([self.space.open_hull_mask(mask) for mask in self.masks])

    @cached_property
    def _closures(self) -> tuple[int, ...]:
        """Closure of each stratum, as a point mask: the union of its points' closures."""
        pc = self.space.point_closures
        return tuple([reduce(int.__or__, map(pc.__getitem__, iter_bits(m))) for m in self.masks])

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """``_reach[t]``: the strata meeting the open hull of stratum t."""
        return tuple([self._strata_meeting_mask(hull) for hull in self._hulls])

    def _preimage_is_open(self, idx_mask: int) -> bool:
        """Whether the union of the strata in ``idx_mask`` is open: every
        point of stratum t has its minimal open inside the union iff the
        open hull of t meets only strata of the set."""
        reach = self._reach
        return all(not (reach[t] & ~idx_mask) for t in iter_bits(idx_mask))

    # -- quotient topology -------------------------------------------------

    @cached_property
    def quotient_space(self) -> FiniteSpace:
        """The stratum set with the quotient topology.

        The minimal open around stratum i is the least id-set J containing
        i whose preimage is open: the reflexive-transitive closure of
        ``_reach`` at i. The least such J exists because sets with open
        preimage are closed under intersection.
        """
        return FiniteSpace(self.ids, reflexive_transitive_closure(self._reach))

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
            j for j in range(1 << self.k) if self.space.is_open_mask(preimage_of(self.masks, j))
        )

    def quotient_space_by_subset_filter(self) -> FiniteSpace:
        """Quotient space built from the filtered open family (oracle route)."""
        return FiniteSpace(self.ids, min_open_rows(self.k, self.quotient_open_family()))

    @cached_property
    def pi_map(self) -> SpaceMap:
        return SpaceMap(self.space, self.quotient_space, self._point_to_stratum)

    # -- decomposition preorder ---------------------------------------------

    @cached_property
    def preorder(self) -> DecompositionPreorder:
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
        closure (see ``FiniteSpace.is_locally_closed``); the witness is the
        hull."""
        return self._locally_closed

    @cached_property
    def _locally_closed(self) -> tuple[tuple[str, Verdict], ...]:
        out = []
        for sid, mask, hull, closure in zip(self.ids, self.masks, self._hulls, self._closures):
            holds = (hull & closure) == mask
            out.append((sid, Verdict(holds, witness=self.space.names_of(hull) if holds else None)))
        return tuple(out)

    @cached_property
    def _pi_open(self) -> Verdict:
        return self.pi_map.is_open()

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
        has_min_open = all(
            (row >> i) & 1 and self._preimage_is_open(row) for i, row in enumerate(rows)
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
        closures = self._closures
        witnesses = []

        frontier = True
        for i in range(self.k):
            for j in range(self.k):
                if self.masks[i] & closures[j] and self.masks[i] & ~closures[j]:
                    frontier = False
                    witnesses.append(
                        (
                            "frontier_condition",
                            f"stratum {self.ids[i]!r} meets the closure of "
                            f"{self.ids[j]!r} without being contained in it",
                        )
                    )
                    break
            if not frontier:
                break

        p = self.preorder
        closure_is_saturation = True
        for j in range(self.k):
            if closures[j] != preimage_of(self.masks, p.down[j]):
                closure_is_saturation = False
                witnesses.append(
                    (
                        "closure_is_minimal_closed_saturation",
                        f"closure of stratum {self.ids[j]!r} is not a union of strata",
                    )
                )
                break

        order_matches = True
        for i in range(self.k):
            for j in range(self.k):
                contained = not (self.masks[i] & ~closures[j])
                if contained != bool((p.up[i] >> j) & 1):
                    order_matches = False
                    witnesses.append(
                        (
                            "preorder_equals_closure_containment",
                            f"pair ({self.ids[i]!r}, {self.ids[j]!r}) ordered by only "
                            "one of the two descriptions",
                        )
                    )
                    break
            if not order_matches:
                break

        open_verdict = self._pi_open
        if not open_verdict:
            witnesses.append(
                (
                    "quotient_map_open",
                    f"open set {sorted(open_verdict.witness)} has a non-open image",
                )
            )

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

    def _pi_continuous_rows(self, up_rows: tuple[int, ...]) -> bool:
        """Continuity of the quotient map into the order topology of up_rows
        (the up-set masks of a preorder on the stratum indices).

        Each up-set must have an open preimage, i.e. contain the ``_reach``
        row of each of its members; as up_rows is reflexive and transitive,
        that holds iff ``_reach[t]`` lies inside ``up_rows[t]`` for every t.
        """
        return all(not (reach & ~up) for reach, up in zip(self._reach, up_rows))

    def _pi_open_rows(self, up_rows: tuple[int, ...]) -> bool:
        """Openness of the quotient map into the order topology of up_rows."""
        for basic in set(self.space.min_open):
            image = self._strata_meeting_mask(basic)
            for s in iter_bits(image):
                if up_rows[s] & ~image:
                    return False
        return True

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

        cond3 = True
        for i in range(self.k):
            around = preimage_of(self.masks, p.down[i])
            for x in iter_bits(self.masks[i]):
                if self.space.min_open[x] & around & ~self.masks[i]:
                    cond3 = False
                    break
            if not cond3:
                break

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
        reasons = []
        for sid, verdict in self.locally_closed_strata():
            if not verdict:
                reasons.append(f"stratum {sid!r} is not locally closed")
        if not self.frontier_equivalences().value:
            reasons.append("frontier condition fails")
        return StratificationVerdict(not reasons, tuple(reasons))

    def check_against_order(self, order: Poset) -> OrderCheck:
        """Behavior of the quotient map into the order topology of a given
        partial order on the stratum ids.

        Ids with no preimage cannot appear: the order elements must be
        exactly the stratum ids.
        """
        _require_matching_elements(self, order)
        target = alexandrov_space(order)
        f = SpaceMap.from_names(
            self.space, target, {p: self.pi(p) for p in self.space.points}
        )
        cont = f.is_continuous()
        opn = f.is_open()
        return OrderCheck(
            continuous=cont.holds,
            open=opn.holds,
            continuity_witness=None if cont else cont.witness,
            openness_witness=None if opn else opn.witness,
        )

    def coarsen(self) -> tuple["Decomposition", "PosetStratification"]:
        """Merge strata along the equivalence classes of the preorder.

        The merged decomposition is poset-stratified over the reflection of
        the decomposition preorder; classes are named by their least member
        id. Two strata land in the same class exactly when their down-sets,
        the minimal closed stratum-unions around them, coincide.
        """
        p = self.preorder
        classes = p.equivalence_classes()
        merged: dict[str, int] = {}
        for members in classes:
            mask = 0
            for sid in members:
                mask |= self.masks[self.ids.index(sid)]
            merged[members[0]] = mask
        poset, _ = p.reflection()
        dec = Decomposition(
            self.space, tuple(sorted((sid, mask) for sid, mask in merged.items()))
        )
        return dec, PosetStratification(dec, poset)

    def semicontinuity(self) -> SemicontinuityReport:
        """Saturation formulas versus quotient-map properties.

        Saturation (preimage of image) commutes with unions, so it is
        enough to saturate the minimal opens and the point closures. The
        saturation of a set is the preimage of the strata it meets, so its
        openness and closedness are stratum-level tests. Each saturation
        formula must agree with its map-side counterpart. A union of strata
        is closed iff the union of the other strata is open.
        """
        sat_open_open = all(
            self._preimage_is_open(self._strata_meeting_mask(basic))
            for basic in set(self.space.min_open)
        )
        all_strata = (1 << self.k) - 1
        sat_closed_closed = all(
            self._preimage_is_open(all_strata & ~self._strata_meeting_mask(basic))
            for basic in set(self.space.point_closures)
        )
        pi_open = self._pi_open.holds
        pi_closed = bool(self.pi_map.is_closed())
        if sat_open_open != pi_open:
            raise InternalInvariantError("open saturation disagrees with quotient map openness")
        if sat_closed_closed != pi_closed:
            raise InternalInvariantError(
                "closed saturation disagrees with quotient map closedness"
            )
        return SemicontinuityReport(sat_open_open, sat_closed_closed, pi_open, pi_closed)


def _require_matching_elements(d: Decomposition, order: Poset) -> None:
    extra = set(order.elements) - set(d.ids)
    if extra:
        raise ValidationError(
            f"order element {sorted(extra)[0]!r} has empty preimage in the decomposition"
        )
    missing = set(d.ids) - set(order.elements)
    if missing:
        raise ValidationError(f"order is missing stratum id {sorted(missing)[0]!r}")


class PosetStratification(Value):
    """A decomposition together with a partial order on its stratum ids
    making the quotient map a continuous surjection onto the order
    topology. Both properties are validated at construction."""

    _fields = __match_args__ = ("dec", "order")

    def __init__(self, dec: Decomposition, order: Poset):
        object.__setattr__(self, "dec", dec)
        object.__setattr__(self, "order", order)
        self.__post_init__()

    def __post_init__(self):
        _require_matching_elements(self.dec, self.order)
        if not self.pi_into_order.is_continuous():
            raise ValidationError(
                "decomposition map is not continuous for the given order"
            )

    @cached_property
    def pi_into_order(self) -> SpaceMap:
        target = alexandrov_space(self.order)
        return SpaceMap.from_names(
            self.dec.space, target, {p: self.dec.pi(p) for p in self.dec.space.points}
        )

    def __repr__(self) -> str:
        return f"PosetStratification({self.dec!r}, order={self.order!r})"


# -- derived constructions ---------------------------------------------------


def as_poset_stratified(d: Decomposition) -> PosetStratification:
    """View a stratification as poset-stratified over its frontier order.

    Requires ``is_stratification``; the failed clauses are reported
    otherwise. The resulting order is the decomposition preorder. That it
    coincides with closure containment of strata (the frontier label
    ``preorder_equals_closure_containment``) is asserted with the frontier
    group. That it is antisymmetric is the combination law, which the
    sweep tallies; here ``Poset`` checks antisymmetry and
    ``PosetStratification`` the continuity of the quotient map, and a
    failure of either raises InternalInvariantError.
    """
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
    d = ps.dec
    open_verdict = ps.pi_into_order.is_open()
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
    p = d.preorder
    for i, sid in enumerate(d.ids):
        for j in iter_bits(p.up[i]):
            if not ps.order.leq(sid, d.ids[j]):
                raise InternalInvariantError(
                    "supplied order does not refine the decomposition preorder"
                )


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
    return ClassificationReport(
        alexandrov=d.alexandrov_equivalences(),
        locally_closed=tuple([(sid, v.holds) for sid, v in d.locally_closed_strata()]),
        frontier=d.frontier_equivalences(),
        poset_stratified=d.poset_stratified_equivalences(),
        stratification=d.is_stratification(),
        semicontinuity=d.semicontinuity(),
    )
