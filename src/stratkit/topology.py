"""Finite topological spaces stored as minimal-open-neighborhood maps.

Every point x of a finite space has a smallest open set U_x containing it
(the intersection of all opens through x), and the map x -> U_x determines
the whole topology: a subset S is open exactly when U_x lies inside S for
each x in S. Keeping only that map makes every point-set predicate run in
polynomial time; only ``final_topology`` filters all 2**n subsets, behind
a size guard.

Point subsets cross the public API as frozensets of point names and are
held internally as bit masks over the point list in insertion order. No
result depends on the stored order. The public ``*_mask`` methods refuse a
negative mask or one with bits beyond the points (ValidationError).

A relation is held as bit rows too. The kernel below is the one place the
per-bit loops over rows live, for spaces, orders, decompositions and the
oracle alike: ``preimage_of`` (the union of the rows a mask selects, also
openness, open hulls and closures), ``transpose``, ``first_intransitive``
and ``rows_within``. Each kernel function picks its method from the size
of its input alone, with crossovers measured on Python 3.11 (each
docstring gives the figures). On more than 64 rows, ``preimage_of`` ORs
the rows of a mask with more than (n + 128) / 16 bits in one C pass
(``compress`` and ``reduce``), and ``transpose`` reads each column of a
relation whose distinct rows hold more than n * (n + 256) / 128 bits as
one slice of a string of binary digits; smaller or sparser input walks
the bits one at a time. ``first_intransitive`` tests each distinct row
with ``preimage_of``, so it takes the C pass on the wide rows of dense
relations. Either way the result is the same.

The validated types here and in ``order`` and ``decomposition`` subclass
``Value``: an explicit ``__init__`` stores the fields named in ``_fields``
and runs ``__post_init__``, which validates and normalizes them. Values
compare and hash by class and fields and refuse assignment and deletion;
``cached_property`` still memoises, as it writes to the instance
``__dict__``. Report and record types are ``typing.NamedTuple``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from operator import attrgetter, or_
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


# -- the bit-row kernel --------------------------------------------------------


def _bit_flags(mask: int) -> bytes:
    """One 0/1 byte per bit of a nonnegative mask, lowest bit first, up
    to its highest set bit: the selectors ``compress`` takes."""
    # bin() reversed, without its "0b", lists the bits lowest first
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def preimage_of(rows: Sequence[int], mask: int) -> int:
    """The union of the rows that ``mask`` selects. For the fibers of a map
    (the preimage of each target point) it is the preimage of the mask; a
    mask m is up-closed under a relation exactly when
    ``not preimage_of(rows, m) & ~m``.

    A mask that is wide for its rows, more than (n + 128) / 16 bits on
    n > 64 rows, has its rows picked by ``compress`` and OR'd by
    ``reduce`` in C; any other mask, and one with a bit beyond the rows
    (IndexError), walks its bits one at a time. The C pass costs about as
    much as (n + 128) / 16 steps of the walk: measured on Python 3.11, it
    breaks even at about 11 bits on 65 rows, 25 on 300 and 55 on 1000."""
    # a wide mask has more than 12 bits, so it exceeds 2**12: a small mask
    # pays one comparison
    if mask > 0xFFF and (n := len(rows)) > 64:
        if mask.bit_count() * 16 > n + 128 and not mask >> n:
            return reduce(or_, compress(rows, _bit_flags(mask)), 0)
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The column masks of a square relation: bit i of entry j is bit j of
    ``rows[i]``.

    A wide relation, more than 64 rows whose distinct values hold more
    than n * (n + 256) / 128 bits in all, is written as one string of
    binary digits, n per row, last row first and highest bit first:
    column j is then the slice from digit n - 1 - j in steps of n, read by
    ``int(..., 2)``. Otherwise each distinct row value is scanned once,
    bit by bit, for all the rows that hold it. The crossover was measured
    on Python 3.11 at about n**2 / 21 bits on 65 rows, n**2 / 53 on 300
    and n**2 / 90 on 1000."""
    n = len(rows)
    if n > 64 and 128 * sum(map(int.bit_count, set(rows))) > n * (n + 256):
        digits = "".join([format(row, f"0{n}b") for row in reversed(rows)])
        return tuple([int(digits[j::n], 2) for j in range(n - 1, -1, -1)])
    members: dict[int, int] = {}  # row value -> the indices with that row
    for i, row in enumerate(rows):
        members[row] = members.get(row, 0) | 1 << i
    cols = [0] * n
    for row, indices in members.items():
        for j in iter_bits(row):
            cols[j] |= indices
    return tuple(cols)


def first_intransitive(rows: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j), rows in order and bits lowest first, with j in
    ``rows[i]`` but ``rows[j]`` not inside it; None for a transitive
    relation. Each distinct row value is tested once, at its first
    occurrence, which is where a scan of every row fails first. The test
    is ``preimage_of``, so wide rows are OR'd in C."""
    for row in dict.fromkeys(rows):
        if preimage_of(rows, row) & ~row:
            return rows.index(row), next(j for j in iter_bits(row) if rows[j] & ~row)
    return None


def rows_within(rows: Iterable[int], bounds: Iterable[int]) -> bool:
    """Whether each row lies inside the bound at its index."""
    return not any(map(int.__and__, rows, map(int.__invert__, bounds)))


def names_at(names: Sequence[str], mask: int) -> Iterator[str]:
    """The names at the set bits of ``mask``, lowest bit first."""
    return compress(names, _bit_flags(mask))


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
        if bad := first_intransitive(rows):
            i, j = bad
            raise ValidationError(f"min_open violates transitivity at ({pts[i]!r}, {pts[j]!r})")

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

    @cached_property
    def _open_basis(self) -> tuple[int, ...]:
        """The distinct minimal opens by the name of their first point, the
        order in which map checks scan them for a deterministic witness."""
        return tuple(dict.fromkeys([self.min_open[i] for i in self._lex_indices]))

    @cached_property
    def _closed_basis(self) -> tuple[int, ...]:
        """The distinct point closures, in the same order."""
        return tuple(dict.fromkeys([self.point_closures[i] for i in self._lex_indices]))

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
        return frozenset(names_at(self.points, mask))

    # -- open and closed sets --------------------------------------------

    def _checked(self, mask: int) -> int:
        """The mask, refused if negative or with a bit beyond the points."""
        if mask < 0 or mask >> len(self.points):
            raise ValidationError(f"point mask {mask} out of range for {len(self.points)} points")
        return mask

    def is_open_mask(self, mask: int) -> bool:
        return not preimage_of(self.min_open, self._checked(mask)) & ~mask

    def is_open(self, names: Iterable[str]) -> bool:
        return self.is_open_mask(self.mask_of(names))

    def is_closed_mask(self, mask: int) -> bool:
        return self.is_open_mask(self.full_mask & ~self._checked(mask))

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
        return transpose(self.min_open)

    def closure_mask(self, mask: int) -> int:
        # a closure is the union of the closures of its points
        return preimage_of(self.point_closures, self._checked(mask))

    def closure(self, names: Iterable[str]) -> frozenset[str]:
        """Smallest closed set containing the given points."""
        return self.names_of(self.closure_mask(self.mask_of(names)))

    def interior_mask(self, mask: int) -> int:
        full = self.full_mask
        return full & ~self.closure_mask(full & ~self._checked(mask))

    def interior(self, names: Iterable[str]) -> frozenset[str]:
        """Largest open set contained in the given points."""
        return self.names_of(self.interior_mask(self.mask_of(names)))

    def frontier(self, names: Iterable[str]) -> frozenset[str]:
        """Closure minus the set itself."""
        mask = self.mask_of(names)
        return self.names_of(self.closure_mask(mask) & ~mask)

    def open_hull_mask(self, mask: int) -> int:
        """Smallest open set containing the mask (union of the U_x, x in S)."""
        return preimage_of(self.min_open, self._checked(mask))

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
        for basic in self.target._open_basis:
            if not self.source.is_open_mask(self.preimage_mask(basic)):
                return Verdict(
                    False,
                    witness=self.target.names_of(basic),
                    note="open set whose preimage is not open",
                )
        return Verdict(True)

    def is_open(self) -> Verdict:
        """Image of every open set is open (checked on the minimal opens)."""
        for basic in self.source._open_basis:
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
        for basic in self.source._closed_basis:
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
