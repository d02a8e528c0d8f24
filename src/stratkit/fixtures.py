"""Named fixture catalog and simplicial face-poset ingestion.

The catalog fixes the small worked examples the test-suite and CLI lean
on. Names are part of the public interface; each entry records what the
finite model stands for. ``_CATALOG`` is the one table of names, read
before any value is built: an unknown name is refused without compiling
the core, and a known one builds its own entry alone, on each lookup.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .documents import Document
from .errors import ValidationError

if TYPE_CHECKING:
    from .decomposition import Decomposition
    from .order import Poset
    from .topology import FiniteSpace


class Fixture(NamedTuple):
    name: str
    document: Document
    notes: str


def _space(points, min_open) -> FiniteSpace:
    from .topology import FiniteSpace

    return FiniteSpace.from_min_open(points, min_open)


def _dec(space: FiniteSpace, strata=None) -> Document:
    """A decomposition of the space, the pointwise one without ``strata``."""
    from .decomposition import Decomposition

    strata = {p: (p,) for p in space.points} if strata is None else strata
    return Document("decomposition", Decomposition.from_strata(space, strata))


def _symbolic(tag: str) -> Document:
    from .order import SYMBOLIC_FAMILIES

    return Document("symbolic-family", SYMBOLIC_FAMILIES[tag])


# name -> (builder of its document, notes)
_CATALOG = {
    "sierpinski": (
        lambda: Document("space", _space(("c", "o"), {"c": ("c", "o"), "o": ("o",)})),
        "Two points, one of them open and dense; the smallest non-discrete space.",
    ),
    "chain_3": (
        lambda: _dec(_space(
            ("c0", "c1", "c2"),
            {"c0": ("c0", "c1", "c2"), "c1": ("c1", "c2"), "c2": ("c2",)},
        )),
        "Order topology of a three-element chain with the pointwise decomposition; "
        "a stratification over a total order.",
    ),
    "pseudo_circle_4": (
        lambda: _dec(_space(
            ("a", "b", "x", "y"),
            {"a": ("a",), "b": ("b",), "x": ("a", "b", "x"), "y": ("a", "b", "y")},
        ), {"S1": ("a", "x"), "S2": ("b", "y")}),
        "Four-point model of a circle split into two half-open arcs: strata are "
        "locally closed but the quotient is the two-point indiscrete space, so no "
        "partial order fits.",
    ),
    "line_3": (
        lambda: _dec(_space(("m", "z", "p"), {"m": ("m",), "z": ("m", "z", "p"), "p": ("p",)}),
                     {"S0": ("m", "z"), "S1": ("p",)}),
        "Three-point model of the real line split at 0 into a closed left ray and "
        "an open right ray; poset-stratified, but the quotient map is not open.",
    ),
    "quadrant_4": (
        lambda: _dec(_space(
            ("0", "1", "2", "3"),
            {"0": ("0", "1", "2", "3"), "1": ("1", "3"), "2": ("2", "3"), "3": ("3",)},
        )),
        "Closed quadrant decomposed into origin, two boundary rays, and open "
        "interior, modeled pointwise over the diamond order 0 <= 1,2 <= 3.",
    ),
    "two_point_discrete": (
        lambda: _dec(_space(("0", "1"), {"0": ("0",), "1": ("1",)})),
        "Two isolated points; poset-stratified over any of the three partial "
        "orders on two labels.",
    ),
    "nat_usual": (
        lambda: _symbolic("NatUsual"),
        "Naturals with the usual order: locally finite as a poset, not locally "
        "finite as a space.",
    ),
    "nat_opposite": (
        lambda: _symbolic("NatOpposite"),
        "Naturals with the reversed order: locally finite in both senses.",
    ),
    "nat_discrete": (
        lambda: _symbolic("NatDiscrete"),
        "Naturals with the discrete order: locally finite in both senses.",
    ),
}


def fixture(name: str) -> Fixture:
    try:
        build, notes = _CATALOG[name]
    except (KeyError, TypeError):  # an unhashable name is an unknown one
        raise ValidationError(f"unknown fixture: {name!r}") from None
    return Fixture(name, build(), notes)


def fixture_space(name: str) -> FiniteSpace:
    """The space a fixture carries: itself, or its decomposition's space.
    Documents and ``generate`` resolve a fixture name through this."""
    document = fixture(name).document
    if document.kind == "decomposition":
        return document.value.space
    if document.kind == "space":
        return document.value
    raise ValidationError(f"fixture {name!r} does not carry a space")


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


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
        from .decomposition import Decomposition

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
    from .order import Poset, alexandrov_space
    from .topology import check_collection

    if not hasattr(facets, "__iter__"):
        raise ValidationError(f"facets must be a collection of facets, got {facets!r}")
    faces: set[tuple[str, ...]] = set()
    for facet in facets:
        if isinstance(facet, str):
            raise ValidationError(
                f"vertex names must be nonempty strings listed in a facet, got {facet!r}"
            )
        check_collection(facet, "facet", "vertex names")
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
