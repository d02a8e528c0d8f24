"""Finite topological spaces stored as minimal-open-neighborhood maps.

Every point x of a finite space has a smallest open set U_x (the
intersection of all opens through x), and x -> U_x determines the
topology: S is open exactly when U_x lies inside S for each x in S.
Keeping only that map makes every point-set predicate polynomial; only
``final_topology`` filters all 2**n subsets, behind a size guard.

Point subsets cross the public API as frozensets of point names and are
held as bit masks over the point list in insertion order; no result
depends on that order. The public ``*_mask`` methods and ``names_of`` refuse a
non-int, bool or negative mask and one with bits beyond the points, and a
map's ``image_mask`` and ``preimage_mask`` refuse one through its source or
target; internal loops, the map checks and the name-taking entries (whose
mask ``mask_of`` has built) call the unchecked ``_is_open``, ``_is_closed``,
``_closure``, ``_interior``, ``_image`` and ``_preimage``. A relation is
held as bit rows, and the set algebra on masks and rows is ``kernel.py``.

``FiniteSpace`` here and ``order.Proset`` hold the same data, names and
one reflexive, transitive bit row per name, and share one unexported
base, ``_Relation``: the one validator (messages from per-class
templates; ``_on_names`` skips the names a named constructor has
checked), ``_index`` and the refusing lookup, ``__len__`` and
``names_of``. ``SpaceMap`` here and ``order.MonotoneMap`` share
``FiniteMap``: a tuple of target indices between two values of its
``_value`` type, with one construction check, one image and preimage
plumbing, and one ``from_names``, which refuses a missing source name,
an unknown target name and a key that names no source member.

The validated types here and in ``order`` and ``decomposition`` subclass
``Value``: ``__init__`` stores the ``_fields`` and ``__post_init__``
validates and normalizes them; ``_from_valid`` skips that for fields that
already meet the invariants. Values compare and hash by class and fields
(a space never equals a preorder on the same rows) and refuse assignment
and deletion; this module's ``cached_property``, which takes no lock, memoises.
Values built from rows the kernel has just closed enter through ``_from_valid``.
Report and record types are ``typing.NamedTuple``.
"""

from __future__ import annotations

from collections.abc import Mapping
import functools
from operator import attrgetter, or_
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .kernel import (
    first_intransitive, iter_bits, min_open_rows, names_at, preimage_of, preimages_of, transpose,
)

#: Ceiling for operations that enumerate all 2**n candidate subsets.
MAX_POINTS = 20


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


class cached_property(functools.cached_property):
    """``functools.cached_property`` without the lock it takes on a first read
    before Python 3.12. A getter that raises stores nothing."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Verdict(NamedTuple):
    """Boolean outcome plus an optional witness or counterexample."""

    holds: bool
    witness: object = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds


def check_type(value, kind: type, what: str) -> None:
    """Refuse ``value``, named ``what`` in the message, unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def check_collection(value, what: str, of: str = "names") -> None:
    """Refuse ``value``, named ``what`` in the message, unless it is iterable
    and not a ``str``, whose characters would read as one-character names."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ValidationError(f"{what} must be a collection of {of}, got {value!r}")


def checked_names(names: Iterable[str], what: str = "point") -> tuple[str, ...]:
    """Validate a collection of identifiers: nonempty strings, no duplicates."""
    if not hasattr(names, "__iter__"):
        raise ValidationError(f"{what} names must be a collection of names, got {names!r}")
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
        names_key = self._fields[0]
        self.__dict__[names_key] = checked_names(self.__dict__[names_key], self._member)
        self._check_rows()

    @classmethod
    def _on_names(cls, names: tuple[str, ...], rows):
        """The value on names ``checked_names`` returned; only the rows are validated."""
        self = cls._from_valid(names, rows)
        self._check_rows()
        return self

    def _check_rows(self):
        """Validate and normalize the rows; a subclass adds its own invariants."""
        fields, rows_key, names = self.__dict__, self._fields[1], self._names
        if not hasattr(fields[rows_key], "__iter__"):
            raise ValidationError(self._length_fault)
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
        """The index of the named member; an unknown name, an unhashable one
        included, is refused."""
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown {self._member}: {name!r}") from None

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(names_at(self._names, self._checked(mask)))

    def _checked(self, mask: int) -> int:
        """The mask, refused unless an int (not a bool) with no bit beyond the members."""
        n = len(self._names)
        if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0 or mask >> n:
            raise ValidationError(f"{self._member} mask {mask!r} out of range for {n} {self._member}s")
        return mask

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
        check_type(neighborhoods, Mapping, "min_open")
        bit = {p: 1 << i for i, p in enumerate(pts)}
        for key in neighborhoods:
            if key not in bit:
                raise ValidationError(f"min_open mentions unknown point: {key!r}")
        rows = []
        masks: dict[tuple, int] = {}  # each distinct name list is read once
        for p in pts:
            if p not in neighborhoods:
                raise ValidationError(f"min_open missing entry for point {p!r}")
            names = neighborhoods[p]
            if not isinstance(names, str):  # a str lists one-character names, as the points may
                check_collection(names, "min_open entry")
            names = tuple(names)
            try:  # an unhashable name raises TypeError
                mask = masks.get(names)
                if mask is None:
                    mask = masks[names] = functools.reduce(or_, map(bit.__getitem__, names), 0)
            except (KeyError, TypeError):
                q = next(q for q in names if not isinstance(q, str) or q not in bit)
                raise ValidationError(f"min_open mentions unknown point: {q!r}") from None
            rows.append(mask)
        return cls._on_names(pts, tuple(rows))

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
        check_collection(generators, "subbasis", "generators")
        index = {p: i for i, p in enumerate(pts)}
        gen_masks = []
        for gen in generators:
            if not isinstance(gen, str):  # a str lists one-character names, as the points may
                check_collection(gen, "subbasis generator")
            mask = 0
            for q in gen:
                if not isinstance(q, str) or q not in index:
                    raise ValidationError(f"generator mentions unknown point: {q!r}")
                mask |= 1 << index[q]
            gen_masks.append(mask)
        return cls._on_names(pts, min_open_rows(len(pts), gen_masks))

    @classmethod
    def discrete(cls, points: Iterable[str]) -> "FiniteSpace":
        pts = checked_names(points)
        return cls._on_names(pts, tuple([1 << i for i in range(len(pts))]))

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
        """The mask of the named points. A ``str`` is refused, not read as
        the names of its characters, and so is a value that is not iterable."""
        check_collection(names, "point names")
        mask = 0
        for name in names:
            mask |= 1 << self.point_index(name)
        return mask

    # -- open and closed sets --------------------------------------------

    def _is_open(self, mask: int) -> bool:
        return not preimage_of(self.min_open, mask) & ~mask

    def _is_closed(self, mask: int) -> bool:
        return self._is_open(self.full_mask & ~mask)

    def is_open_mask(self, mask: int) -> bool:
        return self._is_open(self._checked(mask))

    def is_open(self, names: Iterable[str]) -> bool:
        return self._is_open(self.mask_of(names))

    def is_closed_mask(self, mask: int) -> bool:
        return self._is_closed(self._checked(mask))

    def is_closed(self, names: Iterable[str]) -> bool:
        return self._is_closed(self.mask_of(names))

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

    def _closure(self, mask: int) -> int:
        # a closure is the union of the closures of its points
        return preimage_of(self.point_closures, mask)

    def _interior(self, mask: int) -> int:
        full = self.full_mask
        return full & ~self._closure(full & ~mask)

    def closure_mask(self, mask: int) -> int:
        return self._closure(self._checked(mask))

    def closure(self, names: Iterable[str]) -> frozenset[str]:
        """Smallest closed set containing the given points."""
        return frozenset(names_at(self.points, self._closure(self.mask_of(names))))

    def interior_mask(self, mask: int) -> int:
        return self._interior(self._checked(mask))

    def interior(self, names: Iterable[str]) -> frozenset[str]:
        """Largest open set contained in the given points."""
        return frozenset(names_at(self.points, self._interior(self.mask_of(names))))

    def frontier(self, names: Iterable[str]) -> frozenset[str]:
        """Closure minus the set itself."""
        mask = self.mask_of(names)
        return frozenset(names_at(self.points, self._closure(mask) & ~mask))

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
        (hull,), (closure,) = preimages_of(self.min_open, self.point_closures, (mask,))
        holds = (hull & closure) == mask
        return Verdict(holds, witness=frozenset(names_at(self.points, hull)) if holds else None)

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
        return FiniteSpace._on_names(tuple([self.points[i] for i in kept]), rows)

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
            check_type(value, cls._value, f"{cls.__name__} {end}")

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
        check_type(mapping, Mapping, "mapping")
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

    def _image(self, source_mask: int) -> int:
        out = 0
        for i in iter_bits(source_mask):
            out |= 1 << self.assignment[i]
        return out

    def image_mask(self, source_mask: int) -> int:
        return self._image(self.source._checked(source_mask))

    @cached_property
    def _fibers(self) -> tuple[int, ...]:
        """Preimage of each target member, as a source mask."""
        fibers = [0] * len(self.target)
        for i, t in enumerate(self.assignment):
            fibers[t] |= 1 << i
        return tuple(fibers)

    def _preimage(self, target_mask: int) -> int:
        return preimage_of(self._fibers, target_mask)

    def preimage_mask(self, target_mask: int) -> int:
        return self._preimage(self.target._checked(target_mask))


def _first_failure(space, basis, send, test, note: str) -> Verdict:
    """The first basic set of ``space``, in ``basis`` order, whose image
    under ``send`` fails ``test``, named as the witness of a failing
    verdict with ``note``; a holding verdict when every set passes."""
    for basic in basis:
        if not test(send(basic)):
            return Verdict(False, witness=frozenset(names_at(space.points, basic)), note=note)
    return Verdict(True)


class SpaceMap(FiniteMap):
    """A point map between finite spaces; no continuity assumed until checked."""

    _value = FiniteSpace

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        cls._check_ends(space, space)
        return cls(space, space, tuple(range(len(space.points))))

    def is_continuous(self) -> Verdict:
        """Preimage of every open set is open.

        It suffices to check the minimal opens of the target: every open is
        a union of them and preimages commute with unions. The witness on
        failure is an open target set whose preimage is not open.
        """
        return _first_failure(self.target, self.target._open_basis, self._preimage,
                              self.source._is_open, "open set whose preimage is not open")

    def is_open(self) -> Verdict:
        """Image of every open set is open (checked on the minimal opens)."""
        return _first_failure(self.source, self.source._open_basis, self._image,
                              self.target._is_open, "open set whose image is not open")

    def is_closed(self) -> Verdict:
        """Image of every closed set is closed.

        Closed sets of a finite space are unions of point closures, and a
        union of closed sets stays closed here, so the point closures
        suffice.
        """
        return _first_failure(self.source, self.source._closed_basis, self._image,
                              self.target._is_closed, "closed set whose image is not closed")


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
    check_collection(family, "family", "(space, mapping) pairs")
    for entry in family:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise ValidationError(f"family entries must be (space, mapping) pairs, got {entry!r}")
        source, mapping = entry
        check_type(source, FiniteSpace, "family space")
        check_type(mapping, Mapping, "family mapping")
        fibers = [0] * n
        for i, p in enumerate(source.points):
            if p not in mapping:
                raise ValidationError(f"assignment missing source point {p!r}")
            q = mapping[p]
            if q not in index:
                raise ValidationError(f"assignment lands outside the target: {q!r}")
            fibers[index[q]] |= 1 << i
        prepared.append((source, fibers))

    opens = (mask for mask in range(1 << n)
             if all(src._is_open(preimage_of(fibers, mask)) for src, fibers in prepared))
    return FiniteSpace._on_names(pts, min_open_rows(n, opens))
