"""Preorders, partial orders, and their correspondence with finite spaces.

The up-set map p -> {q : p <= q} of a preorder is exactly the minimal-open
map of a topology whose opens are the upward-closed sets, and every finite
space arises this way from its specialization preorder (x <= y iff x lies
in the closure of {y}). The two translations are mutually inverse; both
directions live here, together with the poset reflection and a small
catalog of symbolic infinite families used for local-finiteness questions
that have no finite witnesses.

Relation closure and the other bit-row routines are ``kernel.py``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InternalInvariantError, ValidationError
from .kernel import iter_bits, names_at, preimage_of, reflexive_transitive_closure, transpose
from .topology import (
    FiniteMap, FiniteSpace, Verdict, _Relation, cached_property, check_collection, check_type,
    checked_names,
)


class Proset(_Relation):
    """A finite preordered set.

    The relation is stored row-compressed: ``up[i]`` is the bit mask of all
    j with ``elements[i] <= elements[j]``. Construction validates
    reflexivity and transitivity (``topology._Relation``).
    """

    _fields = __match_args__ = ("elements", "up")
    _member = "element"
    _length_fault = "relation must have a row for every element"
    _range_fault = "relation row out of range at {i!r}"
    _reflexive_fault = "relation not reflexive: ({i!r}, {i!r}) missing"
    _transitive_fault = (
        "relation not transitive: ({i!r}, {k!r}) missing (given ({i!r}, {j!r}) and ({j!r}, {k!r}))"
    )

    def __init__(self, elements: tuple[str, ...], up: tuple[int, ...]):
        fields = self.__dict__
        fields["elements"], fields["up"] = elements, up
        self.__post_init__()

    element_index = _Relation._index_of

    @classmethod
    def from_pairs(
        cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]], close: bool = True
    ) -> "Proset":
        """Build from a pair list.

        With ``close`` the reflexive-transitive closure is taken; otherwise
        the pairs must already form a preorder and the violating pair is
        reported.
        """
        if not isinstance(close, bool):
            raise ValidationError("close must be a boolean")
        els = checked_names(elements, "element")
        index = {e: i for i, e in enumerate(els)}
        n = len(els)
        rows = [0] * n
        check_collection(pairs, "pairs", "pairs")
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise ValidationError(f"pairs must hold two elements each, got {pair!r}") from None
            # an unhashable element would raise TypeError from ``in``
            if not isinstance(a, str) or a not in index:
                raise ValidationError(f"pair mentions unknown element: {a!r}")
            if not isinstance(b, str) or b not in index:
                raise ValidationError(f"pair mentions unknown element: {b!r}")
            rows[index[a]] |= 1 << index[b]
        return cls._on_names(els, reflexive_transitive_closure(rows) if close else tuple(rows))

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{a}<={self.elements[j]}"
            for i, a in enumerate(self.elements)
            for j in iter_bits(self.up[i])
            if i != j
        )
        return f"{type(self).__name__}([{', '.join(self.elements)}]; {rels})"

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Column masks: ``down[j]`` is the set of i with i <= j."""
        return transpose(self.up)

    def leq(self, a: str, b: str) -> bool:
        return bool((self.up[self.element_index(a)] >> self.element_index(b)) & 1)

    def up_set(self, e: str) -> frozenset[str]:
        """All q with e <= q: the minimal open neighborhood in the order topology."""
        return self.names_of(self.up[self.element_index(e)])

    def down_set(self, e: str) -> frozenset[str]:
        """All q with q <= e: the minimal closed neighborhood in the order topology."""
        return self.names_of(self.down[self.element_index(e)])

    def is_poset(self) -> Verdict:
        """Antisymmetry check; the witness on failure is a two-cycle pair:
        the first element by name whose class has another member, and the
        least other member by name. Mutually comparable elements have equal
        up-sets, so distinct rows need no column."""
        if len(set(self.up)) == len(self.up):
            return Verdict(True)
        els = self.elements
        for i in self._lex_indices:
            if others := self.up[i] & self.down[i] & ~(1 << i):
                witness = (els[i], min(names_at(els, others)))
                return Verdict(False, witness=witness, note="two-cycle")
        return Verdict(True)

    def equivalence_classes(self) -> tuple[tuple[str, ...], ...]:
        """Classes of mutual comparability, each sorted, ordered by least
        member: the fibers of the reflection map."""
        fibers = self.reflection()[1]._fibers
        return tuple([tuple(sorted(names_at(self.elements, fiber))) for fiber in fibers])

    def reflection(self) -> tuple["Poset", "MonotoneMap"]:
        """Quotient by mutual comparability, the one place its classes are
        found: they are the fibers of the returned map (``_fibers``).

        Classes are named by their lexicographically least member and
        ordered by it; the induced order [p] <= [q] iff p <= q is well
        defined and a partial order. Returns the poset and the monotone
        quotient map.
        """
        els = self.elements
        classes = list(map(int.__and__, self.up, self.down))  # each element's class, as a mask
        least = {mask: min(names_at(els, mask)) for mask in dict.fromkeys(classes)}
        position = {mask: c for c, mask in enumerate(sorted(least, key=least.get))}
        assignment = tuple([position[mask] for mask in classes])
        class_bits = [1 << c for c in assignment]
        reps = [least[mask] for mask in position]
        rows = [preimage_of(class_bits, self.up[self._index[rep]]) for rep in reps]
        poset = Poset(tuple(reps), tuple(rows))
        return poset, MonotoneMap(self, poset, assignment)


class Poset(Proset):
    """A proset whose relation is also antisymmetric."""

    def _check_rows(self):
        super()._check_rows()
        verdict = self.is_poset()
        if not verdict:
            a, b = verdict.witness
            raise ValidationError(
                f"relation not antisymmetric: ({a!r}, {b!r}) and ({b!r}, {a!r}) both present"
            )

    def hasse(self) -> tuple[tuple[str, str], ...]:
        """Cover pairs (a, b): a < b with nothing strictly between, that is
        b strictly above a but not strictly above anything strictly above a."""
        els = self.elements
        strict = [row & ~(1 << i) for i, row in enumerate(self.up)]
        return tuple(sorted([
            (els[i], els[j])
            for i, row in enumerate(strict)
            for j in iter_bits(row & ~preimage_of(strict, row))
        ]))


class MonotoneMap(FiniteMap):
    """A map between prosets; monotonicity is a check, not an invariant."""

    _value = Proset

    def is_monotone(self) -> Verdict:
        """Whether a <= b implies f(a) <= f(b). The witness on failure is the
        first element a by name with a failing b, and the least such b by
        index: the up-set of a must lie in the preimage of the up-set of
        f(a)."""
        src, target_up, asg = self.source, self.target.up, self.assignment
        for i in src._lex_indices:
            if bad := src.up[i] & ~self._preimage(target_up[asg[i]]):
                return Verdict(
                    False,
                    witness=(src.elements[i], src.elements[(bad & -bad).bit_length() - 1]),
                    note="comparable pair whose images are not comparable",
                )
        return Verdict(True)


# -- the two functors ----------------------------------------------------


def alexandrov_space(p: Proset) -> FiniteSpace:
    """Order topology of a preorder: opens are exactly the up-closed sets.

    The minimal open neighborhood of p is its up-set, so the stored
    relation rows double as the minimal-open table. The ``Proset`` has
    validated its names and rows against the very invariants a space
    checks (in range, reflexive, transitive), so the space is built from
    them without checking them again.
    """
    check_type(p, Proset, "preorder")
    return FiniteSpace._from_valid(p.elements, p.up)


def specialization_preorder(space: FiniteSpace) -> Proset:
    """Specialization preorder of a finite space: x <= y iff x in closure({y}),
    that is iff y lies in U_x, so the up-sets are the minimal-open rows.
    The space has validated them as a preorder's, so the ``Proset`` is
    built from them without checking them again. ``adjunction_roundtrips``
    checks the rows against the closure route."""
    check_type(space, FiniteSpace, "space")
    return Proset._from_valid(space.points, space.min_open)


def adjunction_roundtrips(p: Proset, x: FiniteSpace) -> None:
    """Check both round-trips exactly, and the specialization preorder of
    ``x`` against its point closures. A failure is a library defect,
    raised as InternalInvariantError; when every check holds, returns None."""
    check_type(p, Proset, "preorder")
    check_type(x, FiniteSpace, "space")
    via_closure = [0] * len(x.points)
    for j, col in enumerate(x.point_closures):
        for i in iter_bits(col):
            via_closure[i] |= 1 << j
    if tuple(via_closure) != specialization_preorder(x).up:
        raise InternalInvariantError(
            "specialization preorder: closure route disagrees with minimal-open route"
        )
    if specialization_preorder(alexandrov_space(p)) != Proset(p.elements, p.up):
        raise InternalInvariantError("order -> space -> order round-trip changed the relation")
    if alexandrov_space(specialization_preorder(x)) != x:
        raise InternalInvariantError("space -> order -> space round-trip changed the topology")


def singleton_local_closure_check(p: Proset) -> bool:
    """A preorder is a partial order iff every singleton of its order
    topology is locally closed. Both sides are evaluated independently and
    must agree; the common value is returned.
    """
    check_type(p, Proset, "preorder")
    antisymmetric = bool(p.is_poset())
    space = alexandrov_space(p)
    all_lc = all(space.is_locally_closed((e,)) for e in p.elements)
    if antisymmetric != all_lc:
        raise InternalInvariantError(
            "antisymmetry disagrees with local closure of singletons"
        )
    return antisymmetric


# -- symbolic infinite families -------------------------------------------

# Local finiteness splits into two inequivalent notions on infinite orders:
# a poset is locally finite when every interval [p, q] is finite, while its
# order topology is a locally finite space when every up-set [p, oo) is
# finite. Finite inputs cannot separate them, so the distinction is carried
# by a closed catalog of symbolic families with hard-coded analytic answers.


class SymbolicFamily(NamedTuple):
    """An infinite order family with precomputed local-finiteness answers."""

    tag: str
    locally_finite_space: bool
    locally_finite_poset: bool
    space_reason: str
    poset_reason: str


SYMBOLIC_FAMILIES: dict[str, SymbolicFamily] = {
    "NatUsual": SymbolicFamily(
        "NatUsual",
        locally_finite_space=False,
        locally_finite_poset=True,
        space_reason="the up-set [p, oo) of any p is infinite in the usual order on the naturals",
        poset_reason="every interval [p, q] in the usual order on the naturals is finite",
    ),
    "NatOpposite": SymbolicFamily(
        "NatOpposite",
        locally_finite_space=True,
        locally_finite_poset=True,
        space_reason="up-sets in the reversed order on the naturals are finite initial segments",
        poset_reason="intervals in the reversed order are slices of finite initial segments",
    ),
    "NatDiscrete": SymbolicFamily(
        "NatDiscrete",
        locally_finite_space=True,
        locally_finite_poset=True,
        space_reason="every up-set in the discrete order is a singleton",
        poset_reason="every interval in the discrete order is a singleton",
    ),
}


def symbolic_local_finiteness(tag: str) -> SymbolicFamily:
    """Catalog lookup; unknown tags, unhashable ones included, are input errors."""
    try:
        return SYMBOLIC_FAMILIES[tag]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown symbolic family tag: {tag!r}") from None
