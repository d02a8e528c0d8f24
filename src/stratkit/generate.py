"""Seeded random generation of preorders and partitions.

Determinism contract: generate() is a pure function of (kind, n, params,
seed), stable across releases. All randomness flows from the splitmix64
generator below, fully specified here rather than borrowed from the
standard library so the byte stream can never drift.

``SplitMix64.next_u64`` is the specification. Preorder generation draws a
whole row of the relation at once with ``SplitMix64.next_flags``, which
runs the same mix on many states packed into one integer; it is
bit-identical to one ``next_float()`` comparison per pair, and
``tests/test_documents.py::TestGenerate::test_batched_flags_match_scalar_draws``
and the digests in ``tests/test_generate_golden.py`` pin that.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

from .decomposition import Decomposition
from .documents import Document
from .errors import ValidationError
from .order import Proset, reflexive_transitive_closure
from .topology import FiniteSpace

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 flag bytes as binary digits


@lru_cache(maxsize=4)
def _lanes(m: int) -> tuple[int, int, int]:
    """Constants for m 128-bit lanes of one int: 1 in every lane, 2**64 - 1
    in every lane, and (i + 1) * gamma mod 2**64 in lane i."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * m, "little")
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * m, "little")
    steps = int.from_bytes(
        b"".join(((i * _GAMMA) & _MASK64).to_bytes(16, "little") for i in range(1, m + 1)),
        "little",
    )
    return ones, low64, steps


@lru_cache(maxsize=8)
def _offsets(m: int, threshold: int) -> int:
    """2**64 - threshold in each of m 128-bit lanes."""
    return ((1 << 64) - threshold) * _lanes(m)[0]


class SplitMix64:
    """The splitmix64 sequence.

    State update: s += 0x9E3779B97F4A7C15 (mod 2**64). Output mix of the
    new state z: z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31; all modulo 2**64.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1): the top 53 bits scaled by 2**-53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_flags(self, m: int, density: float) -> bytes:
        """The next m draws compared with ``density``, one 0/1 byte each.

        Equal to ``bytes(self.next_float() < density for _ in range(m))``
        and leaves the same state. Lane i (128 bits) of one int holds the
        state s + (i + 1) * gamma; each step of the mix is then one big-int
        operation. A lane's value stays below 2**64 after masking, so a
        multiply by a 64-bit constant cannot carry into the next lane, and
        the bits a right shift pulls in from the next lane land above bit
        63, where the mask clears them. next_float() < density exactly when
        z < ceil(density * 2**53) * 2**11: the scalings by powers of two
        are exact. That test is one add per lane: bit 64 of
        z + 2**64 - threshold is set exactly when z >= threshold. The last
        shift is not masked: it leaves bits 97-127 of a lane holding bits
        of the next lane, but the low 64 bits plus 2**64 - threshold stay
        below 2**65, so the add carries neither into those bits nor out of
        them, and bit 64 is read alone.
        """
        if m <= 0:
            return b""
        ones, low64, steps = _lanes(m)
        z = (self._state * ones + steps) & low64
        self._state = (self._state + m * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & low64) * 0xBF58476D1CE4E5B9 & low64
        z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
        z ^= z >> 31
        # clamped so that densities outside [0, 1] compare as the floats do
        threshold = math.ceil(min(max(density, 0), 1) * 2**53) << 11
        at_least = ((z + _offsets(m, threshold)) >> 64) & ones
        return (at_least ^ ones).to_bytes(16 * m, "little")[::16]

    def next_below(self, bound: int) -> int:
        """Uniform-ish in [0, bound) by modulo; bias is irrelevant here."""
        if bound <= 0:
            raise ValidationError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, high index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def _plain_int(value) -> bool:
    """An int but not a bool, which subclasses int (True would read as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def generate(kind: str, n: int, params: Mapping, seed: int) -> Document:
    """Deterministically generate a document.

    kind "preorder": elements "0".."n-1"; each ordered pair (i, j) with
    i != j is drawn independently at params["density"] (default 0.5) in
    row-major order, then the reflexive-transitive closure is taken.

    kind "partition": partitions the points of params["space"] (a fixture
    name or inline space payload; default: the discrete space on n fresh
    points) into params["blocks"] blocks (default: drawn from 1..n). A
    deterministic shuffle seeds one point per block so the labeling map is
    surjective; remaining points are placed independently. Blocks are
    relabeled "0", "1", ... by first occurrence along the point list.
    """
    if not _plain_int(n) or n < 0:
        raise ValidationError("n must be a nonnegative integer")
    rng = SplitMix64(seed)
    if kind == "preorder":
        return _gen_preorder(n, params, rng)
    if kind == "partition":
        return _gen_partition(n, params, rng)
    raise ValidationError(f"unknown generation kind: {kind!r}")


def _gen_preorder(n: int, params: Mapping, rng: SplitMix64) -> Document:
    density = params.get("density", 0.5)
    if not (_plain_int(density) or isinstance(density, float)) or not 0.0 <= density <= 1.0:
        raise ValidationError("density must lie in [0, 1]")
    # one row of n - 1 draws at a time, pairs (i, j != i) in row-major
    # order; bit j of row i is the draw for (i, j), and the diagonal is set
    rows = []
    for i in range(n):
        digits = rng.next_flags(n - 1, density).translate(_DIGITS)
        rows.append(int((digits[:i] + b"1" + digits[i:])[::-1], 2))
    elements = tuple(map(str, range(n)))
    return Document("proset", Proset(elements, reflexive_transitive_closure(rows)))


def _resolve_space(n: int, params: Mapping) -> FiniteSpace:
    spec = params.get("space")
    if spec is None:
        return FiniteSpace.discrete(tuple(str(i) for i in range(n)))
    if isinstance(spec, FiniteSpace):
        space = spec
    elif isinstance(spec, str):
        from .fixtures import fixture_space

        space = fixture_space(spec)
    elif isinstance(spec, dict):
        from .documents import from_payload

        value = from_payload({"kind": "space", **spec}).value
        space = value
    else:
        raise ValidationError("space must be a fixture name or a space payload")
    if len(space.points) != n:
        raise ValidationError(
            f"space has {len(space.points)} points but n={n} was requested"
        )
    return space


def _gen_partition(n: int, params: Mapping, rng: SplitMix64) -> Document:
    space = _resolve_space(n, params)
    if n == 0:
        return Document("decomposition", Decomposition(space, ()))
    blocks = params.get("blocks")
    if blocks is None:
        blocks = 1 + rng.next_below(n)
    if not _plain_int(blocks) or not 1 <= blocks <= n:
        raise ValidationError(f"blocks must lie in 1..{n}")
    order = list(range(n))
    rng.shuffle(order)
    label_of = [0] * n
    for b, i in enumerate(order[:blocks]):
        label_of[i] = b
    for i in order[blocks:]:
        label_of[i] = rng.next_below(blocks)
    # canonical relabeling by first occurrence along the point list
    relabel: dict[int, int] = {}
    for i in range(n):
        relabel.setdefault(label_of[i], len(relabel))
    strata: dict[str, list[str]] = {}
    for i, p in enumerate(space.points):
        strata.setdefault(str(relabel[label_of[i]]), []).append(p)
    return Document("decomposition", Decomposition.from_strata(space, strata))
