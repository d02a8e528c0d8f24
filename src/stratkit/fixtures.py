"""Named fixture catalog and simplicial face-poset ingestion.

The catalog fixes the small worked examples the test-suite and CLI lean
on. Names are part of the public interface; each entry records what the
finite model stands for.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .decomposition import Decomposition
from .documents import Document
from .errors import ValidationError
from .order import SYMBOLIC_FAMILIES, Poset, alexandrov_space
from .topology import FiniteSpace


class Fixture(NamedTuple):
    name: str
    document: Document
    notes: str


def _space(points, min_open) -> FiniteSpace:
    return FiniteSpace.from_min_open(points, min_open)


def _dec(space, strata) -> Document:
    return Document("decomposition", Decomposition.from_strata(space, strata))


_SIERPINSKI = _space(("c", "o"), {"c": ("c", "o"), "o": ("o",)})

_CHAIN_3 = _space(
    ("c0", "c1", "c2"),
    {"c0": ("c0", "c1", "c2"), "c1": ("c1", "c2"), "c2": ("c2",)},
)

_PSEUDO_CIRCLE_4 = _space(
    ("a", "b", "x", "y"),
    {"a": ("a",), "b": ("b",), "x": ("a", "b", "x"), "y": ("a", "b", "y")},
)

_LINE_3 = _space(("m", "z", "p"), {"m": ("m",), "z": ("m", "z", "p"), "p": ("p",)})

_QUADRANT_4 = _space(
    ("0", "1", "2", "3"),
    {"0": ("0", "1", "2", "3"), "1": ("1", "3"), "2": ("2", "3"), "3": ("3",)},
)

_TWO_POINT_DISCRETE = FiniteSpace.discrete(("0", "1"))


def _build_catalog() -> dict[str, Fixture]:
    entries = [
        Fixture(
            "sierpinski",
            Document("space", _SIERPINSKI),
            "Two points, one of them open and dense; the smallest non-discrete space.",
        ),
        Fixture(
            "chain_3",
            _dec(_CHAIN_3, {p: (p,) for p in _CHAIN_3.points}),
            "Order topology of a three-element chain with the pointwise decomposition; "
            "a stratification over a total order.",
        ),
        Fixture(
            "pseudo_circle_4",
            _dec(_PSEUDO_CIRCLE_4, {"S1": ("a", "x"), "S2": ("b", "y")}),
            "Four-point model of a circle split into two half-open arcs: strata are "
            "locally closed but the quotient is the two-point indiscrete space, so no "
            "partial order fits.",
        ),
        Fixture(
            "line_3",
            _dec(_LINE_3, {"S0": ("m", "z"), "S1": ("p",)}),
            "Three-point model of the real line split at 0 into a closed left ray and "
            "an open right ray; poset-stratified, but the quotient map is not open.",
        ),
        Fixture(
            "quadrant_4",
            _dec(_QUADRANT_4, {p: (p,) for p in _QUADRANT_4.points}),
            "Closed quadrant decomposed into origin, two boundary rays, and open "
            "interior, modeled pointwise over the diamond order 0 <= 1,2 <= 3.",
        ),
        Fixture(
            "two_point_discrete",
            _dec(_TWO_POINT_DISCRETE, {p: (p,) for p in _TWO_POINT_DISCRETE.points}),
            "Two isolated points; poset-stratified over any of the three partial "
            "orders on two labels.",
        ),
        Fixture(
            "nat_usual",
            Document("symbolic-family", SYMBOLIC_FAMILIES["NatUsual"]),
            "Naturals with the usual order: locally finite as a poset, not locally "
            "finite as a space.",
        ),
        Fixture(
            "nat_opposite",
            Document("symbolic-family", SYMBOLIC_FAMILIES["NatOpposite"]),
            "Naturals with the reversed order: locally finite in both senses.",
        ),
        Fixture(
            "nat_discrete",
            Document("symbolic-family", SYMBOLIC_FAMILIES["NatDiscrete"]),
            "Naturals with the discrete order: locally finite in both senses.",
        ),
    ]
    return {f.name: f for f in entries}


FIXTURES: dict[str, Fixture] = _build_catalog()


def fixture(name: str) -> Fixture:
    try:
        return FIXTURES[name]
    except KeyError:
        raise ValidationError(f"unknown fixture: {name!r}") from None


def fixture_space(name: str) -> FiniteSpace:
    """The space a fixture carries: itself, or its decomposition's space.
    Documents and ``generate`` resolve a fixture name through this."""
    value = fixture(name).document.value
    if isinstance(value, Decomposition):
        return value.space
    if isinstance(value, FiniteSpace):
        return value
    raise ValidationError(f"fixture {name!r} does not carry a space")


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(FIXTURES))


# -- simplicial input ---------------------------------------------------------


class FaceModel(NamedTuple):
    """Face poset of a simplicial complex and its order topology.

    Faces are named by their sorted comma-joined vertices and ordered by
    inclusion, so higher-dimensional faces sit higher (and more open).
    """

    poset: Poset
    space: FiniteSpace

    def skeleton(self) -> Decomposition:
        """Strata of faces grouped by dimension, named d0, d1, ..."""
        by_dim: dict[str, list[str]] = {}
        for name in self.space.points:
            dim = name.count(",")
            by_dim.setdefault(f"d{dim}", []).append(name)
        return Decomposition.from_strata(self.space, by_dim)


def face_poset_model(facets) -> FaceModel:
    """Face poset of the complex generated by the given facets. Vertex
    names are nonempty strings without ",", which joins them into face
    names; a facet that is itself a string is refused, not read as the
    sequence of its characters."""
    faces: set[tuple[str, ...]] = set()
    for facet in facets:
        if isinstance(facet, str):
            raise ValidationError(
                f"vertex names must be nonempty strings listed in a facet, got {facet!r}"
            )
        vertices = tuple(facet)
        for vertex in vertices:
            if not isinstance(vertex, str) or not vertex or "," in vertex:
                raise ValidationError(
                    f"vertex names must be nonempty strings without ',', got {vertex!r}"
                )
        vertices = sorted(set(vertices))
        if not vertices:
            raise ValidationError("empty facet")
        for size in range(1, len(vertices) + 1):
            faces.update(combinations(vertices, size))
    # each face lies above the faces one vertex smaller; the closure adds the rest
    pairs = [
        (",".join(small), ",".join(face))
        for face in faces
        for small in combinations(face, len(face) - 1)
        if small
    ]
    poset = Poset.from_pairs(sorted(map(",".join, faces)), pairs, close=True)
    return FaceModel(poset, alexandrov_space(poset))
