"""Finite topological spaces stored as minimal-open-neighborhood maps.

Every point x of a finite space has a smallest open set U_x containing it
(the intersection of all opens through x), and the map x -> U_x determines
the whole topology: a subset S is open exactly when U_x lies inside S for
each x in S. Keeping only that map makes every point-set predicate run in
polynomial time; the full open family is enumerated only on demand, behind
a size guard.

Point subsets cross the public API as frozensets of point names and are
held internally as bit masks over the point list in insertion order. No
result depends on the stored order.

The validated types here and in ``order`` and ``decomposition`` subclass
``Value``: an explicit ``__init__`` stores the fields named in ``_fields``
and runs ``__post_init__``, which validates and normalizes them. Values
compare and hash by class and fields and refuse assignment and deletion;
``cached_property`` still memoises, as it writes to the instance
``__dict__``. Report and record types are ``typing.NamedTuple``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ValidationError

#: Ceiling for operations that enumerate all 2**n candidate subsets.
MAX_POINTS = 20

# maps the ASCII digits of bin() to 0/1 bytes, selectors for compress()
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Value:
    """Base of the validated types: equality and hashing by class and
    ``_fields``, and no assignment or deletion after construction."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the tuple of field values, read by one C call (each class has two or more fields)
        cls._astuple = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(NamedTuple):
    """Boolean outcome plus an optional witness or counterexample."""

    holds: bool
    witness: object = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds


def checked_names(names: Iterable[str], what: str = "point") -> tuple[str, ...]:
    """Validate a list of identifiers: nonempty strings, no duplicates."""
    out = tuple(names)
    seen = set()
    for name in out:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{what} names must be nonempty strings, got {name!r}")
        if name in seen:
            raise ValidationError(f"duplicate {what} names: {name!r}")
        seen.add(name)
    return out


class FiniteSpace(Value):
    """A finite topological space.

    ``min_open[i]`` is the bit mask of the minimal open neighborhood of
    ``points[i]``. Construction validates that the table really defines a
    topology: each U_x contains x, and y in U_x implies U_y inside U_x
    (equivalently, each U_x is itself open).
    """

    _fields = __match_args__ = ("points", "min_open")

    def __init__(self, points: tuple[str, ...], min_open: tuple[int, ...]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "min_open", min_open)
        self.__post_init__()

    def __post_init__(self):
        pts = checked_names(self.points)
        rows = tuple(self.min_open)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "min_open", rows)
        n = len(pts)
        if len(rows) != n:
            raise ValidationError("min_open must assign a neighborhood to every point")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if not isinstance(row, int) or row < 0 or row > full:
                raise ValidationError(f"min_open mask out of range for point {pts[i]!r}")
            if not (row >> i) & 1:
                raise ValidationError(f"min_open violates reflexivity at {pts[i]!r}")
        # the check depends on the row value only: each distinct value is
        # checked once, in order of first occurrence, which is where a scan
        # of every row fails first
        for row in dict.fromkeys(rows):
            for j in iter_bits(row):
                if rows[j] & ~row:
                    i = rows.index(row)
                    raise ValidationError(
                        f"min_open violates transitivity at ({pts[i]!r}, {pts[j]!r})"
                    )

    # -- construction --------------------------------------------------

    @classmethod
    def from_min_open(
        cls, points: Iterable[str], neighborhoods: Mapping[str, Iterable[str]]
    ) -> "FiniteSpace":
        """Build a space from an explicit minimal-open-neighborhood table."""
        pts = checked_names(points)
        index = {p: i for i, p in enumerate(pts)}
        for key in neighborhoods:
            if key not in index:
                raise ValidationError(f"min_open mentions unknown point: {key!r}")
        rows = []
        masks: dict[tuple, int] = {}  # each distinct name list is read once
        for p in pts:
            if p not in neighborhoods:
                raise ValidationError(f"min_open missing entry for point {p!r}")
            names = tuple(neighborhoods[p])
            mask = masks.get(names)
            if mask is None:
                mask = 0
                for q in names:
                    if q not in index:
                        raise ValidationError(f"min_open mentions unknown point: {q!r}")
                    mask |= 1 << index[q]
                masks[names] = mask
            rows.append(mask)
        return cls(pts, tuple(rows))

    @classmethod
    def from_subbasis(
        cls, points: Iterable[str], generators: Sequence[Iterable[str]]
    ) -> "FiniteSpace":
        """Coarsest topology containing every generator set.

        U_x is the intersection of the generators through x, or the whole
        space when no generator mentions x. The result always satisfies the
        space invariants: if y lies in every generator through x, then the
        generators through y are a superset of those through x.
        """
        pts = checked_names(points)
        index = {p: i for i, p in enumerate(pts)}
        full = (1 << len(pts)) - 1
        gen_masks = []
        for gen in generators:
            mask = 0
            for q in gen:
                if q not in index:
                    raise ValidationError(f"generator mentions unknown point: {q!r}")
                mask |= 1 << index[q]
            gen_masks.append(mask)
        rows = []
        for i in range(len(pts)):
            mask = full
            for g in gen_masks:
                if (g >> i) & 1:
                    mask &= g
            rows.append(mask)
        return cls(pts, tuple(rows))

    @classmethod
    def discrete(cls, points: Iterable[str]) -> "FiniteSpace":
        pts = checked_names(points)
        return cls(pts, tuple(1 << i for i in range(len(pts))))

    @classmethod
    def empty(cls) -> "FiniteSpace":
        return cls((), ())

    # -- point and subset plumbing --------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        table = ", ".join(
            f"{p}:{{{','.join(sorted(self.names_of(self.min_open[i])))}}}"
            for i, p in enumerate(self.points)
        )
        return f"FiniteSpace({table})"

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _lex_indices(self) -> tuple[int, ...]:
        # point indices sorted by name; used to pick deterministic witnesses
        return tuple(sorted(range(len(self.points)), key=lambda i: self.points[i]))

    def point_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown point: {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.point_index(name)
        return mask

    def names_of(self, mask: int) -> frozenset[str]:
        # bin() reversed, without its "0b", lists the bits lowest first
        return frozenset(compress(self.points, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)))

    # -- open and closed sets --------------------------------------------

    def is_open_mask(self, mask: int) -> bool:
        return all(not (self.min_open[i] & ~mask) for i in iter_bits(mask))

    def is_open(self, names: Iterable[str]) -> bool:
        return self.is_open_mask(self.mask_of(names))

    def is_closed_mask(self, mask: int) -> bool:
        return self.is_open_mask(self.full_mask & ~mask)

    def is_closed(self, names: Iterable[str]) -> bool:
        return self.is_closed_mask(self.mask_of(names))

    def minimal_open(self, name: str) -> frozenset[str]:
        """The smallest open set containing the point."""
        return self.names_of(self.min_open[self.point_index(name)])

    @cached_property
    def point_closures(self) -> tuple[int, ...]:
        """Closure of each single point as a mask, computed once per space.

        closure({x}) is the set of y with x in U_y, so this is the
        transpose of ``min_open``.
        """
        members: dict[int, int] = {}  # row value -> points with that row
        for i, row in enumerate(self.min_open):
            members[row] = members.get(row, 0) | 1 << i
        cols = [0] * len(self.points)
        for row, points in members.items():
            for j in iter_bits(row):
                cols[j] |= points
        return tuple(cols)

    def closure_mask(self, mask: int) -> int:
        # x lies in the closure of S exactly when U_x meets S
        out = 0
        for i, row in enumerate(self.min_open):
            if row & mask:
                out |= 1 << i
        return out

    def closure(self, names: Iterable[str]) -> frozenset[str]:
        """Smallest closed set containing the given points."""
        return self.names_of(self.closure_mask(self.mask_of(names)))

    def interior_mask(self, mask: int) -> int:
        full = self.full_mask
        return full & ~self.closure_mask(full & ~mask)

    def interior(self, names: Iterable[str]) -> frozenset[str]:
        """Largest open set contained in the given points."""
        return self.names_of(self.interior_mask(self.mask_of(names)))

    def frontier(self, names: Iterable[str]) -> frozenset[str]:
        """Closure minus the set itself."""
        mask = self.mask_of(names)
        return self.names_of(self.closure_mask(mask) & ~mask)

    def open_hull_mask(self, mask: int) -> int:
        """Smallest open set containing the mask (union of the U_x, x in S)."""
        out = mask
        for i in iter_bits(mask):
            out |= self.min_open[i]
        return out

    def is_locally_closed(self, names: Iterable[str]) -> Verdict:
        """Whether S is an intersection of an open and a closed set.

        S is locally closed iff S = O intersect closure(S) for the open
        hull O of S: any open O' witnessing local closure contains the
        hull, and shrinking O' to the hull keeps the intersection equal
        to S. The witness on success is that hull.
        """
        mask = self.mask_of(names)
        hull = self.open_hull_mask(mask)
        holds = (hull & self.closure_mask(mask)) == mask
        return Verdict(holds, witness=self.names_of(hull) if holds else None)

    def open_family(self) -> tuple[int, ...]:
        """All open sets as masks, ascending. Exponential; size guarded."""
        n = len(self.points)
        if n > MAX_POINTS:
            raise ValidationError(
                f"open-family enumeration needs 2**{n} candidates; guard is {MAX_POINTS} points"
            )
        return tuple(m for m in range(1 << n) if self.is_open_mask(m))

    # -- derived spaces ----------------------------------------------------

    def subspace(self, names: Iterable[str]) -> "FiniteSpace":
        """Subspace topology: neighborhoods intersected with the subset."""
        mask = self.mask_of(names)
        kept = [i for i in range(len(self.points)) if (mask >> i) & 1]
        reindex = {old: new for new, old in enumerate(kept)}
        rows = []
        for old in kept:
            row = 0
            for j in iter_bits(self.min_open[old] & mask):
                row |= 1 << reindex[j]
            rows.append(row)
        return FiniteSpace(tuple(self.points[i] for i in kept), tuple(rows))

    def is_t0(self) -> bool:
        """No two distinct points share the same minimal open neighborhood."""
        return len(set(self.min_open)) == len(self.min_open)


def preimage_of(fibers: Sequence[int], target_mask: int) -> int:
    """Preimage of a target mask under a map given by its fibers (the
    preimage of each target point): the union of the fibers it selects."""
    out = 0
    for t in iter_bits(target_mask):
        out |= fibers[t]
    return out


def _first_occurrences(masks: Sequence[int], order: Iterable[int]) -> Iterator[int]:
    """The masks at the given indices, each distinct value once, in that
    order; checking a basic set twice cannot change the first failure."""
    return iter(dict.fromkeys(masks[i] for i in order))


class SpaceMap(Value):
    """A point map between finite spaces; no continuity assumed until checked."""

    _fields = __match_args__ = ("source", "target", "assignment")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, assignment: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)  # source index -> target index
        self.__post_init__()

    def __post_init__(self):
        asg = tuple(self.assignment)
        object.__setattr__(self, "assignment", asg)
        if len(asg) != len(self.source.points):
            raise ValidationError("assignment must cover every source point")
        n_target = len(self.target.points)
        for i, t in enumerate(asg):
            if not isinstance(t, int) or t < 0 or t >= n_target:
                raise ValidationError(
                    f"assignment for {self.source.points[i]!r} lands outside the target"
                )

    @classmethod
    def from_names(
        cls, source: FiniteSpace, target: FiniteSpace, mapping: Mapping[str, str]
    ) -> "SpaceMap":
        asg = []
        for p in source.points:
            if p not in mapping:
                raise ValidationError(f"assignment missing source point {p!r}")
            asg.append(target.point_index(mapping[p]))
        for key in mapping:
            source.point_index(key)
        return cls(source, target, tuple(asg))

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        return cls(space, space, tuple(range(len(space.points))))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{p}->{self.target.points[t]}" for p, t in zip(self.source.points, self.assignment)
        )
        return f"SpaceMap({pairs})"

    def apply(self, name: str) -> str:
        return self.target.points[self.assignment[self.source.point_index(name)]]

    def image_mask(self, source_mask: int) -> int:
        out = 0
        for i in iter_bits(source_mask):
            out |= 1 << self.assignment[i]
        return out

    @cached_property
    def _fibers(self) -> tuple[int, ...]:
        """Preimage of each target point, as a source mask."""
        fibers = [0] * len(self.target.points)
        for i, t in enumerate(self.assignment):
            fibers[t] |= 1 << i
        return tuple(fibers)

    def preimage_mask(self, target_mask: int) -> int:
        return preimage_of(self._fibers, target_mask)

    def is_continuous(self) -> Verdict:
        """Preimage of every open set is open.

        It suffices to check the minimal opens of the target: every open is
        a union of them and preimages commute with unions. The witness on
        failure is an open target set whose preimage is not open.
        """
        for basic in _first_occurrences(self.target.min_open, self.target._lex_indices):
            if not self.source.is_open_mask(self.preimage_mask(basic)):
                return Verdict(
                    False,
                    witness=self.target.names_of(basic),
                    note="open set whose preimage is not open",
                )
        return Verdict(True)

    def is_open(self) -> Verdict:
        """Image of every open set is open (checked on the minimal opens)."""
        for basic in _first_occurrences(self.source.min_open, self.source._lex_indices):
            if not self.target.is_open_mask(self.image_mask(basic)):
                return Verdict(
                    False,
                    witness=self.source.names_of(basic),
                    note="open set whose image is not open",
                )
        return Verdict(True)

    def is_closed(self) -> Verdict:
        """Image of every closed set is closed.

        Closed sets of a finite space are unions of point closures, and a
        union of closed sets stays closed here, so the point closures
        suffice.
        """
        for basic in _first_occurrences(self.source.point_closures, self.source._lex_indices):
            if not self.target.is_closed_mask(self.image_mask(basic)):
                return Verdict(
                    False,
                    witness=self.source.names_of(basic),
                    note="closed set whose image is not closed",
                )
        return Verdict(True)

    def check(self, mode: str) -> Verdict:
        """Dispatch on mode: one of continuous, open, closed."""
        if mode == "continuous":
            return self.is_continuous()
        if mode == "open":
            return self.is_open()
        if mode == "closed":
            return self.is_closed()
        raise ValidationError(f"unknown map-check mode: {mode!r}")


def min_open_rows(n: int, opens: Iterable[int]) -> tuple[int, ...]:
    """Minimal open of each of n points from an open family given as masks:
    the intersection of the members containing the point, or all n points
    when none does."""
    full = (1 << n) - 1
    rows = [full] * n
    for mask in opens:
        for i in iter_bits(mask):
            rows[i] &= mask
    return tuple(rows)


def final_topology(
    target_points: Iterable[str],
    family: Sequence[tuple[FiniteSpace, Mapping[str, str]]],
) -> FiniteSpace:
    """Finest topology making every map of the family continuous.

    A subset is open exactly when all its preimages are open. Decided by
    filtering all 2**n candidate subsets, so the target size is guarded.
    The empty family yields the discrete topology.
    """
    pts = checked_names(target_points)
    n = len(pts)
    if n > MAX_POINTS:
        raise ValidationError(
            f"final topology needs 2**{n} candidates; guard is {MAX_POINTS} points"
        )
    index = {p: i for i, p in enumerate(pts)}
    prepared = []
    for source, mapping in family:
        fibers = [0] * n
        for i, p in enumerate(source.points):
            if p not in mapping:
                raise ValidationError(f"assignment missing source point {p!r}")
            q = mapping[p]
            if q not in index:
                raise ValidationError(f"assignment lands outside the target: {q!r}")
            fibers[index[q]] |= 1 << i
        prepared.append((source, fibers))

    opens = (
        mask
        for mask in range(1 << n)
        if all(src.is_open_mask(preimage_of(fibers, mask)) for src, fibers in prepared)
    )
    return FiniteSpace(pts, min_open_rows(n, opens))
