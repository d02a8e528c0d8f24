"""Seeded random generation of preorders and partitions.

Determinism contract: generate() is a pure function of (kind, n, params,
seed), stable across releases. All randomness flows from the splitmix64
generator below, fully specified here rather than borrowed from the
standard library so the byte stream can never drift.

``SplitMix64.next_u64`` is the specification. Preorder generation draws
the whole relation with the row kernel ``SplitMix64.next_flag_rows``,
which runs the same mix on the states of one row packed into one integer,
sets up its lanes once per relation and reads each row as a binary
numeral. It is bit-identical to one ``next_float()`` comparison per pair
and leaves the same state:
``tests/test_documents.py::TestGenerate::test_batched_flags_match_scalar_draws``
pins it against the scalar draws for 0, 1 and 3 rows of up to 1025, and
the digests in ``tests/test_generate_golden.py`` pin the documents.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

from .decomposition import Decomposition
from .documents import Document, space_from_payload
from .errors import ValidationError
from .order import Proset, reflexive_transitive_closure
from .topology import FiniteSpace

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# bit 64 of a lane is 0 exactly when its draw is below the density: the
# draw's binary digit is its complement
_BELOW = bytes.maketrans(b"\x00\x01", b"10")


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

    def next_flag_rows(self, rows: int, m: int, density: float) -> list[bytes]:
        """The next rows * m draws compared with ``density``, m to a row.

        Each row is a binary numeral of m ASCII digits, last draw first:
        bit j of ``int(row, 2)`` is set exactly when draw j of the row,
        as ``next_float()``, is below ``density``. Leaves the state that
        rows * m calls of ``next_u64`` leave.

        Lane i (128 bits) of one int holds the state s + (i + 1) * gamma
        of draw i of the row, so each step of the mix is one big-int
        operation; the next row's lanes are these plus m * gamma, masked.
        A lane's value stays below 2**64 after masking, so a multiply by a
        64-bit constant cannot carry into the next lane, and the bits a
        right shift pulls in from the next lane land above bit 63, where
        the mask clears them. next_float() < density exactly when
        z < ceil(density * 2**53) * 2**11: the scalings by powers of two
        are exact. That test is one add per lane: bit 64 of
        z + 2**64 - threshold is set exactly when z >= threshold. The last
        shift is not masked: it leaves bits 97-127 of a lane holding bits
        of the next lane and bits 64-96 clear, and the low 64 bits plus
        2**64 - threshold stay below 2**65, so the add carries neither
        into the high bits nor out of them. Byte 7 of each lane of the
        big-endian bytes, bits 64 to 71, is then bit 64 alone: one slice
        reads every lane's, highest lane first, and one translate turns
        them into digits.
        """
        if rows <= 0 or m <= 0:
            return [b""] * max(rows, 0)
        ones, low64, steps = _lanes(m)
        # clamped so that densities outside [0, 1] compare as the floats do
        threshold = math.ceil(min(max(density, 0), 1) * 2**53) << 11
        offsets = ((1 << 64) - threshold) * ones
        advance = ((m * _GAMMA) & _MASK64) * ones
        lanes = (self._state * ones + steps) & low64
        self._state = (self._state + rows * m * _GAMMA) & _MASK64
        size = 16 * m
        out = []
        for _ in range(rows):
            z = ((lanes ^ (lanes >> 30)) & low64) * 0xBF58476D1CE4E5B9 & low64
            z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
            z ^= z >> 31
            out.append((z + offsets).to_bytes(size, "big")[7::16].translate(_BELOW))
            lanes = (lanes + advance) & low64
        return out

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
    # rows of n - 1 draws, pairs (i, j != i) in row-major order: digit
    # n - 2 - j of row i is the draw for (i, j < i), digit n - 1 - j the
    # one for (i, j > i), and the diagonal digit goes between them
    rows = [
        int(digits[: n - 1 - i] + b"1" + digits[n - 1 - i:], 2)
        for i, digits in enumerate(rng.next_flag_rows(n, n - 1, density))
    ]
    # the names "0".."n-1" and a closed relation meet the invariants
    elements = tuple(map(str, range(n)))
    return Document("proset", Proset._from_valid(elements, reflexive_transitive_closure(rows)))


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
        space = space_from_payload(spec, "space")
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
