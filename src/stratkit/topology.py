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
openness, open hulls and closures), ``rows_meeting`` (the indices of the
rows that meet a mask; every caller passes a decomposition's strata, so
it is the image of a point set under the quotient map), ``transpose``,
``first_intransitive`` and ``rows_within``. ``rows_meeting`` is one plain
loop over the rows; each other kernel function picks its method from the
size of its input alone, with crossovers measured on Python 3.11 (each
docstring gives the figures). ``preimage_of`` ORs the rows of a mask
above 0xFFF with more than (n + 128) / 16 bits in one C pass
(``compress`` and ``reduce``), on any number of rows n; on more than 64
rows, ``transpose`` reads each column of a relation whose distinct rows
hold more than n * (n + 256) / 128 bits as one slice of a string of
binary digits; smaller or sparser input walks the bits one at a time.
``first_intransitive`` tests each distinct row with ``preimage_of``, so
it takes the C pass on the wide rows of dense relations. Either way the
result is the same.

``FiniteSpace`` here and ``order.Proset`` hold the same data, names and
one reflexive, transitive bit row per name, and share one unexported
base, ``_Relation``: the one validator (messages from per-class
templates), ``_index`` and the refusing lookup, ``__len__`` and
``names_of``. ``SpaceMap`` here and ``order.MonotoneMap`` share one base,
``FiniteMap``: a map between two such values held as a tuple of target
indices, read through ``_Relation``, with one construction check, one
image and preimage plumbing, and one ``from_names``, which refuses a
missing source name, an unknown target name and a key that names no
source member. Each map type names its value type (``_value``): a
``SpaceMap`` joins two ``FiniteSpace`` values and a ``MonotoneMap`` two
``Proset`` values; construction refuses any other source or target.

The validated types here and in ``order`` and ``decomposition`` subclass
``Value``: an explicit ``__init__`` stores the fields named in ``_fields``
and runs ``__post_init__``, which validates and normalizes them. Values
compare and hash by class and fields (a space never equals a preorder on
the same rows) and refuse assignment and deletion; ``cached_property``
still memoises, as it writes to the instance ``__dict__``.
``Value._from_valid`` builds a value from fields that already meet its
invariants, without validating them again: the order and space
translations pass one validated type's rows to the other. Report and
record types are ``typing.NamedTuple``.
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

    A mask that is wide for its rows, more than (n + 128) / 16 bits on n
    rows, has its rows picked by ``compress`` and OR'd by ``reduce`` in C;
    any other mask, one no larger than 0xFFF, and one with a bit beyond
    the rows (IndexError) walks its bits one at a time. The C pass costs
    about as much as (n + 128) / 16 steps of the walk: measured on Python
    3.11, it breaks even at about 11 bits on 65 rows, 25 on 300 and 55 on
    1000, and at 10 to 13 bits on 13 to 64 rows, where the rule takes it
    from 9 to 13 bits. Masks up to 0xFFF, 12 bits at most, gain little
    from it and pay one comparison."""
    if mask > 0xFFF and mask.bit_count() * 16 > (n := len(rows)) + 128 and not mask >> n:
        return reduce(or_, compress(rows, _bit_flags(mask)), 0)
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def rows_meeting(rows: Sequence[int], mask: int) -> int:
    """The indices of the rows that meet ``mask``, as a mask: on the fibers
    of a map, the image of the mask. One pass over the rows, measured on
    Python 3.11 at 0.45 to 2.7 us on 2 to 15 rows against 1.0 to 2.7 us
    for a ``compress`` pass, and 13.7 against 11.5 us on 64 rows."""
    out = 0
    for t, row in enumerate(rows):
        if row & mask:
            out |= 1 << t
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
        # the tuple of field values, read by one C call, for each class that
        # sets two or more fields in its own body; its subclasses inherit it
        if "_fields" in cls.__dict__:
            cls._astuple = staticmethod(attrgetter(*cls._fields))

    @classmethod
    def _from_valid(cls, *values):
        """The value whose fields, in ``_fields`` order, are ``values``,
        built without ``__post_init__``: only for fields that already meet
        the class's invariants in normalized form, such as the fields of
        another validated value with the same invariants."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

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


class _Relation(Value):
    """Base of ``FiniteSpace`` and ``order.Proset``: ``_fields`` names the
    names field, then the rows field. A subclass sets ``_member`` ("point"
    or "element") and the templates of its four construction faults."""

    _member: str
    _length_fault: str
    _range_fault: str  # {i} is the member
    _reflexive_fault: str  # {i} is the member
    _transitive_fault: str  # j in row i, but k in row j and not in row i

    def __post_init__(self):
        fields, (names_key, rows_key) = self.__dict__, self._fields
        names = fields[names_key] = checked_names(fields[names_key], self._member)
        rows = fields[rows_key] = tuple(fields[rows_key])
        n = len(names)
        if len(rows) != n:
            raise ValidationError(self._length_fault)
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            # a bool is an int, but True would read as the row 1
            if not isinstance(row, int) or isinstance(row, bool) or row < 0 or row > full:
                raise ValidationError(self._range_fault.format(i=names[i]))
            if not (row >> i) & 1:
                raise ValidationError(self._reflexive_fault.format(i=names[i]))
        if bad := first_intransitive(rows):
            i, j = bad
            k = next(iter_bits(rows[j] & ~rows[i]))
            raise ValidationError(self._transitive_fault.format(i=names[i], j=names[j], k=names[k]))

    @property
    def _names(self) -> tuple[str, ...]:
        return self.__dict__[self._fields[0]]

    def __len__(self) -> int:
        return len(self._names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self._names)}

    def _index_of(self, name: str) -> int:
        """The index of the named member; an unknown name is refused."""
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown {self._member}: {name!r}") from None

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(names_at(self._names, mask))

    @cached_property
    def _lex_indices(self) -> tuple[int, ...]:
        # member indices sorted by name; used to pick deterministic witnesses
        return tuple(sorted(range(len(self)), key=self._names.__getitem__))


class FiniteSpace(_Relation):
    """A finite topological space.

    ``min_open[i]`` is the bit mask of the minimal open neighborhood of
    ``points[i]``. Construction validates that the table really defines a
    topology: each U_x contains x, and y in U_x implies U_y inside U_x
    (equivalently, each U_x is itself open).
    """

    _fields = __match_args__ = ("points", "min_open")
    _member = "point"
    _length_fault = "min_open must assign a neighborhood to every point"
    _range_fault = "min_open mask out of range for point {i!r}"
    _reflexive_fault = "min_open violates reflexivity at {i!r}"
    _transitive_fault = "min_open violates transitivity at ({i!r}, {j!r})"

    def __init__(self, points: tuple[str, ...], min_open: tuple[int, ...]):
        fields = self.__dict__
        fields["points"], fields["min_open"] = points, min_open
        self.__post_init__()

    # in the class's own __dict__, where perfbench/spans.py wraps it
    __post_init__ = _Relation.__post_init__
    point_index = _Relation._index_of

    # -- construction --------------------------------------------------

    @classmethod
    def from_min_open(
        cls, points: Iterable[str], neighborhoods: Mapping[str, Iterable[str]]
    ) -> "FiniteSpace":
        """Build a space from an explicit minimal-open-neighborhood table.

        A table from each name to its bit turns each distinct name list
        into its mask in one C pass (``map`` and ``reduce``); a list with
        an unknown name is scanned again for its first one."""
        pts = checked_names(points)
        bit = {p: 1 << i for i, p in enumerate(pts)}
        for key in neighborhoods:
            if key not in bit:
                raise ValidationError(f"min_open mentions unknown point: {key!r}")
        rows = []
        masks: dict[tuple, int] = {}  # each distinct name list is read once
        for p in pts:
            if p not in neighborhoods:
                raise ValidationError(f"min_open missing entry for point {p!r}")
            names = tuple(neighborhoods[p])
            mask = masks.get(names)
            if mask is None:
                try:
                    mask = masks[names] = reduce(or_, map(bit.__getitem__, names), 0)
                except KeyError:
                    q = next(q for q in names if q not in bit)
                    raise ValidationError(f"min_open mentions unknown point: {q!r}") from None
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
        gen_masks = []
        for gen in generators:
            mask = 0
            for q in gen:
                if q not in index:
                    raise ValidationError(f"generator mentions unknown point: {q!r}")
                mask |= 1 << index[q]
            gen_masks.append(mask)
        return cls(pts, min_open_rows(len(pts), gen_masks))

    @classmethod
    def discrete(cls, points: Iterable[str]) -> "FiniteSpace":
        pts = checked_names(points)
        return cls(pts, tuple(1 << i for i in range(len(pts))))

    @classmethod
    def empty(cls) -> "FiniteSpace":
        return cls((), ())

    # -- point and subset plumbing --------------------------------------

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
    def _open_basis(self) -> tuple[int, ...]:
        """The distinct minimal opens by the name of their first point, the
        order in which map checks scan them for a deterministic witness."""
        return tuple(dict.fromkeys([self.min_open[i] for i in self._lex_indices]))

    @cached_property
    def _closed_basis(self) -> tuple[int, ...]:
        """The distinct point closures, in the same order."""
        return tuple(dict.fromkeys([self.point_closures[i] for i in self._lex_indices]))

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.point_index(name)
        return mask

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
        kept = list(iter_bits(mask))
        # the new bit of each old point, read by preimage_of
        bits = [0] * len(self.points)
        for new, old in enumerate(kept):
            bits[old] = 1 << new
        rows = tuple([preimage_of(bits, self.min_open[old] & mask) for old in kept])
        return FiniteSpace(tuple([self.points[i] for i in kept]), rows)

    def is_t0(self) -> bool:
        """No two distinct points share the same minimal open neighborhood."""
        return len(set(self.min_open)) == len(self.min_open)


class FiniteMap(Value):
    """Base of the maps between finite named sets, ``SpaceMap`` and
    ``order.MonotoneMap``: ``assignment[i]`` is the target index of source
    member i. Source and target are values of the subclass's ``_value``
    type, read through the ``_Relation`` names, member word and refusing
    lookup."""

    _fields = __match_args__ = ("source", "target", "assignment")
    _value: type = _Relation

    def __init__(self, source, target, assignment: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignment", assignment)  # source index -> target index
        self.__post_init__()

    @classmethod
    def _check_ends(cls, source, target) -> None:
        """Refuse a source or target that is not of the ``_value`` type."""
        for end, value in (("source", source), ("target", target)):
            if not isinstance(value, cls._value):
                kind, got = cls._value.__name__, type(value).__name__
                raise ValidationError(f"{cls.__name__} {end} must be a {kind}, got {got}")

    def __post_init__(self):
        self._check_ends(self.source, self.target)
        asg = tuple(self.assignment)
        object.__setattr__(self, "assignment", asg)
        names = self.source._names
        if len(asg) != len(names):
            raise ValidationError(f"assignment must cover every source {self.source._member}")
        n_target = len(self.target)
        for i, t in enumerate(asg):
            # a bool is an int, but True would read as the index 1
            if not isinstance(t, int) or isinstance(t, bool) or t < 0 or t >= n_target:
                raise ValidationError(f"assignment for {names[i]!r} lands outside the target")

    @classmethod
    def from_names(cls, source, target, mapping: Mapping[str, str]):
        """The map sending each source name to ``mapping[name]``. Each
        source name, in order, must be a key whose value names a target
        member; then every key must name a source member."""
        if not isinstance(mapping, Mapping):
            raise ValidationError(f"mapping must be a Mapping, got {type(mapping).__name__}")
        cls._check_ends(source, target)
        asg = []
        for p in source._names:
            if p not in mapping:
                raise ValidationError(f"assignment missing source {source._member} {p!r}")
            asg.append(target._index_of(mapping[p]))
        for key in mapping:
            source._index_of(key)
        return cls(source, target, tuple(asg))

    def __repr__(self) -> str:
        targets = self.target._names
        pairs = ", ".join(f"{p}->{targets[t]}" for p, t in zip(self.source._names, self.assignment))
        return f"{type(self).__name__}({pairs})"

    def apply(self, name: str) -> str:
        return self.target._names[self.assignment[self.source._index_of(name)]]

    def image_mask(self, source_mask: int) -> int:
        out = 0
        for i in iter_bits(source_mask):
            out |= 1 << self.assignment[i]
        return out

    @cached_property
    def _fibers(self) -> tuple[int, ...]:
        """Preimage of each target member, as a source mask."""
        fibers = [0] * len(self.target)
        for i, t in enumerate(self.assignment):
            fibers[t] |= 1 << i
        return tuple(fibers)

    def preimage_mask(self, target_mask: int) -> int:
        return preimage_of(self._fibers, target_mask)


class SpaceMap(FiniteMap):
    """A point map between finite spaces; no continuity assumed until checked."""

    _value = FiniteSpace

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        return cls(space, space, tuple(range(len(space.points))))

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
