"""Seeded random generation of preorders and partitions.

Determinism contract: generate() is a pure function of (kind, n, params,
seed), stable across releases. All randomness flows from the splitmix64
generator below, fully specified here rather than borrowed from the
standard library so the byte stream can never drift.

``SplitMix64.next_u64``, ``next_below`` and ``shuffle`` are the
specification. Preorder generation draws the whole relation with the row
kernel ``SplitMix64.next_flag_rows``, which runs the same mix on the
states of one row packed into one integer, sets up its lanes once per
relation and reads the rows as binary numerals, eight rows per byte
conversion. Partition generation takes the draws of its shuffle and of
its free points from one ``SplitMix64.next_u64s`` call, the same mix on
up to 128 states at once, and builds the strata as point masks. Both are
bit-identical to the scalar draws and leave the same state:
``TestGenerate`` in ``tests/test_documents.py`` pins them against the
scalar spec across their block and pass edges, and the digests in
``tests/test_generate_golden.py`` pin the documents of both kinds.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from struct import unpack

from .decomposition import Decomposition
from .documents import Document, space_from_payload
from .errors import ValidationError
from .kernel import reflexive_transitive_closure
from .order import Proset
from .topology import FiniteSpace, check_type

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# row r of an eight-row block reads bit r of its lane's byte: bit 64 + r
# of the lane is 0 exactly when the draw is below the density, so the
# draw's binary digit is its complement. Byte values run through 2**r
# with bit r clear, then 2**r with it set, and so on.
_ROW_DIGITS = tuple((b"1" * (1 << r) + b"0" * (1 << r)) * (128 >> r) for r in range(8))
# draws per lane pass of next_u64s
_CHUNK = 128


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
        if not _plain_int(seed):
            raise ValidationError(f"seed must be an integer, got {seed!r}")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``, leaving its state.

        Each pass mixes up to ``_CHUNK`` states at once, lane i (128 bits)
        of one int holding the state s + (i + 1) * gamma, as the lanes of
        ``next_flag_rows`` do. The last shift is not masked: the bits it
        pulls in from the next lane land in bits 97-127, and only the low
        64 bits of each lane are read, as the even words of its
        little-endian bytes. A short last pass keeps only the lanes it
        reads, so every big-int step of it is that much shorter.
        """
        ones, low64, steps = _lanes(_CHUNK)
        state = self._state
        out: list[int] = []
        for start in range(0, count, _CHUNK):
            lanes = (state * ones + steps) & low64
            size = min(count - start, _CHUNK)
            if size < _CHUNK:
                lanes &= (1 << 128 * size) - 1
            z = ((lanes ^ (lanes >> 30)) & low64) * _MIX1 & low64
            z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
            z ^= z >> 31
            out += unpack(f"<{2 * size}Q", z.to_bytes(16 * size, "little"))[::2]
            state = (state + _CHUNK * _GAMMA) & _MASK64
        self._state = (self._state + count * _GAMMA) & _MASK64
        return out

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
        z + 2**64 - threshold is set exactly when z >= threshold.

        The rows go in blocks of eight, and row r of a block (r < 8) is
        computed r bits up: its last multiply is by the constant times
        2**r and its mask is 2**64 - 1 times 2**r, so the lane holds z * 2**r
        in bits r to 63 + r. The last shift is not masked. Within the lane
        it leaves the bits of z ^ (z >> 31) in bits r to 63 + r, other bits
        of z below bit r and bits of the next lane from bit 97 + r up, so
        bits 64 + r to 96 + r are clear. The offset (2**64 - threshold) *
        2**r is a multiple of 2**r, so the bits below r pass through the
        add and carry nothing, and both terms are below 2**(64 + r), so
        the comparison's carry lands in bit 64 + r and goes no further:
        not into bit 97 + r, nor the next lane (65 + r <= 72). A mask keeps
        that one bit, and the block's eight rows are or-ed into one int, so
        byte 7 of each lane of the big-endian bytes (bits 64 to 71) holds
        the lane's eight comparisons. One slice reads every lane's,
        highest lane first, and one translate per row turns bit r into
        digits: one ``to_bytes`` per block instead of one per row.

        In-process, interleaved medians (Python 3.11.7, a shared 2-vCPU
        host): 5.79 ms to 4.90 ms (-15%) for 300 rows of 299 draws and
        60.6 ms to 49.0 ms (-19%) for 1000 rows of 999, against one
        ``to_bytes`` per row.
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
        # per row r of a block: the last multiplier, its mask, the offset
        # and the mask of the carry, each r bits up
        shifted = [(_MIX2 << r, low64 << r, offsets << r, ones << (64 + r)) for r in range(8)]
        size = 16 * m
        out = []
        for start in range(0, rows, 8):
            block = shifted[: rows - start]
            flags = 0
            for mix, mask, offset, carry in block:
                z = ((lanes ^ (lanes >> 30)) & low64) * _MIX1 & low64
                z = ((z ^ (z >> 27)) & low64) * mix & mask
                flags |= ((z ^ (z >> 31)) + offset) & carry
                lanes = (lanes + advance) & low64
            flags = flags.to_bytes(size, "big")[7::16]
            out += [flags.translate(digits) for digits in _ROW_DIGITS[: len(block)]]
        return out

    def next_below(self, bound: int) -> int:
        """Uniform-ish in [0, bound) by modulo; bias is irrelevant here."""
        if not _plain_int(bound):
            raise ValidationError(f"bound must be an integer, got {bound!r}")
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


# the params keys each kind reads
_PARAMS = {"preorder": ("density",), "partition": ("space", "blocks")}


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

    ``params`` must be a mapping whose keys the kind reads; any other key
    is refused, not ignored.
    """
    if not _plain_int(n) or n < 0:
        raise ValidationError("n must be a nonnegative integer")
    if not _plain_int(seed):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise ValidationError(f"unknown generation kind: {kind!r}")
    check_type(params, Mapping, "params")
    reads = _PARAMS[kind]
    for key in params:
        if key not in reads:
            raise ValidationError(f"{kind} generation reads only {', '.join(reads)}, got {key!r}")
    rng = SplitMix64(seed)
    if kind == "preorder":
        return _gen_preorder(n, params, rng)
    return _gen_partition(n, params, rng)


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
        # the names "0".."n-1" and the discrete rows meet the invariants
        names = tuple(map(str, range(n)))
        return FiniteSpace._from_valid(names, tuple([1 << i for i in range(n)]))
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
    masks = _block_masks(rng, n, blocks)
    # canonical labels by first occurrence along the point list, that is
    # by lowest point, named "0", "1", ... and sorted as the ids are
    masks.sort(key=lambda mask: mask & -mask)
    strata = sorted(zip(map(str, range(blocks)), masks))
    return Document("decomposition", Decomposition(space, tuple(strata)))


def _block_masks(rng: SplitMix64, n: int, blocks: int) -> list[int]:
    """The point mask of each block label, from the draws of
    ``rng.shuffle(list(range(n)))`` and then one ``rng.next_below(blocks)``
    per point after the first ``blocks`` of that order: the shuffle seeds
    label b with point order[b], so every label has a point, and each
    later point gets its drawn label. All 2n - 1 - blocks draws come from
    one ``next_u64s`` call, leaving the state the scalar calls leave."""
    draws = rng.next_u64s(2 * n - 1 - blocks)
    order = list(range(n))
    # Fisher-Yates, high index down, as ``shuffle``
    for i, draw in zip(range(n - 1, 0, -1), draws):
        j = draw % (i + 1)
        order[i], order[j] = order[j], order[i]
    masks = [1 << i for i in order[:blocks]]
    for i, draw in zip(order[blocks:], draws[n - 1:]):
        masks[draw % blocks] |= 1 << i
    return masks
