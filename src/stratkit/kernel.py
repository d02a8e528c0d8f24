"""The bit-row kernel: a set is one int mask and a relation one bit row
per member (bit j of row i: i relates to j). This module, importing no
other stratkit module, is the one home of the per-bit loops over them
that spaces, orders, decompositions and the oracle run.

Three routines pick an algorithm by size, each by one rule written here
from module constants read at each call; the result is the same either
way. Only tests assign them, forcing a path off (``math.inf`` as the
bound) or on at every size (``-math.inf`` as the bias too). Measured on
Python 3.11:

* ``preimage_of`` ORs the rows of a mask above ``C_PASS_MASK`` (0xFFF)
  with at least ``C_PASS_BITS`` (11) bits and more than
  (n + ``C_PASS_BIAS``) / 16 on n rows (bias 128) in one C pass
  (``compress``, ``reduce``); other masks walk their bits. It breaks even
  at about 11 bits on 65 rows, 25 on 300 and 55 on 1000, and flat below
  65 rows, where the slope alone took it from 9 bits on 13 rows. Walk/C
  time, median of 4 ``timeit`` runs of 200 masks above 0xFFF:

  rows/bits   9     10    11    12    13
  13          0.96  1.06  1.16  1.23  1.19
  16          0.95  0.99  1.04  1.18  1.25
  24          0.83  0.89  0.94  1.03  1.02
  32          0.98  1.03  1.17  1.19  1.23
  64          0.92  0.98  1.07  1.11  1.14

* ``transpose`` reads columns off one digit string on more than
  ``DIGITS_ROWS`` (64) rows whose distinct values hold more than
  n * (n + ``DIGITS_BIAS``) / 128 bits (bias 256), else walks each
  distinct row; it breaks even at about n**2 / 21 bits on 65 rows,
  n**2 / 53 on 300 and n**2 / 90 on 1000.
* ``reflexive_transitive_closure`` closes by strongly connected
  components from ``COMPONENTS_ROWS`` (64) rows, else by Warshall's
  algorithm (figures in its docstring).
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Sequence

C_PASS_MASK = 0xFFF
C_PASS_BITS = 11
C_PASS_BIAS = 128
DIGITS_ROWS = 64
DIGITS_BIAS = 256
COMPONENTS_ROWS = 64

# maps the ASCII digits of bin() to 0/1 bytes, selectors for compress()
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_flags(mask: int) -> bytes:
    """One 0/1 byte per bit of a nonnegative mask, lowest bit first, up
    to its highest set bit: the selectors ``compress`` takes."""
    # bin() reversed, without its "0b", lists the bits lowest first
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def names_at(names: Sequence[str], mask: int) -> Iterator[str]:
    """The names at the set bits of ``mask``, lowest bit first."""
    return compress(names, _bit_flags(mask))


def preimage_of(rows: Sequence[int], mask: int) -> int:
    """The union of the rows that ``mask`` selects: on a map's fibers, the
    preimage of the mask; m is up-closed under a relation exactly when
    ``not preimage_of(rows, m) & ~m``. A bit beyond the rows raises
    IndexError on either path."""
    if (mask > C_PASS_MASK and (bits := mask.bit_count()) >= C_PASS_BITS
            and bits * 16 > (n := len(rows)) + C_PASS_BIAS and not mask >> n):
        return reduce(or_, compress(rows, _bit_flags(mask)), 0)
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def preimages_of(rows: Sequence[int], others: Sequence[int],
                 masks: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``preimage_of`` of each mask in two tables of one length at once:
    the two tuples of the unions of the rows each mask selects, its bits
    walked once. A bit beyond the rows raises IndexError."""
    ones, twos = [], []
    for mask in masks:
        one = two = 0
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            one |= rows[i]
            two |= others[i]
            mask ^= low
        ones.append(one)
        twos.append(two)
    return tuple(ones), tuple(twos)


def rows_meeting(rows: Sequence[int], mask: int) -> int:
    """The indices of the rows that meet ``mask``: on a map's fibers (each
    caller passes a decomposition's strata), the image of the mask. One
    pass: 0.45 to 2.7 us on 2 to 15 rows, 13.7 on 64 (``compress``: 1.0
    to 2.7, 11.5)."""
    out = 0
    for t, row in enumerate(rows):
        if row & mask:
            out |= 1 << t
    return out


def transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The column masks of a square relation: bit i of entry j is bit j of
    ``rows[i]``. Column j of the digit string (n digits a row, last row and
    highest bit first) is its slice from digit n - 1 - j in steps of n."""
    n = len(rows)
    if n > DIGITS_ROWS and 128 * sum(map(int.bit_count, set(rows))) > n * (n + DIGITS_BIAS):
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
    relation. Each distinct row value is tested once, by ``preimage_of``,
    at its first occurrence, where a scan of every row fails first."""
    for row in dict.fromkeys(rows):
        if preimage_of(rows, row) & ~row:
            return rows.index(row), next(j for j in iter_bits(row) if rows[j] & ~row)
    return None


def rows_within(rows: Iterable[int], bounds: Iterable[int]) -> bool:
    """Whether each row lies inside the bound at its index."""
    return not any(map(int.__and__, rows, map(int.__invert__, bounds)))


def min_open_rows(n: int, opens: Iterable[int]) -> tuple[int, ...]:
    """Minimal open of each of n points from an open family of masks: the
    intersection of the members containing the point, or all n points."""
    full = (1 << n) - 1
    rows = [full] * n
    for mask in opens:
        for i in iter_bits(mask):
            rows[i] &= mask
    return tuple(rows)


def reflexive_transitive_closure(rows: Iterable[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure of a relation given as bit rows.

    Warshall's step k makes every row reaching k reach all k reaches, and
    changes nothing when k reaches only itself or no other row reaches k.
    On relations of 3 to 8 random bits a row the components are about 2
    times faster at 64 points, 5 to 9 at 300 and 20 at 1000, and 1.2 to
    1.6 on the 64-row relations of 14 to 16 bits a row of classifying 1000
    points into 64 strata; Warshall is 1.0 to 1.4 times faster at density
    0.5, 2.5 to 3.3 on closed relations with most bits set. No benchmark
    workload closes a dense relation of 64 rows or more."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    if len(rows) >= COMPONENTS_ROWS:
        return _closure_by_components(rows)
    reached = 0
    for i, row in enumerate(rows):
        reached |= row & ~(1 << i)
    for k in iter_bits(reached):
        via, bit = rows[k], 1 << k
        if via != bit:
            rows = [row | via if row & bit else row for row in rows]
    return tuple(rows)


def _closure_by_components(rows: list[int]) -> tuple[int, ...]:
    """Closure of a reflexive relation by its strongly connected components
    (Purdom, BIT 10, 1970): Tarjan's search, without recursion, finishes
    each component after all it reaches, so its up-set is its members OR'd
    with the closed up-sets of the points its rows reach."""
    n = len(rows)
    # a point that reaches only itself is a finished component from the start
    closed = [row if row == 1 << i else 0 for i, row in enumerate(rows)]
    order = [n if up else -1 for up in closed]  # discovery index, -1 until visited
    low = [0] * n  # least discovery index reachable through the search tree
    stack: list[int] = []  # visited points whose component is not finished
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, iter_bits(rows[root]))]
        while path:
            v, successors = path[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append((w, iter_bits(rows[w])))
                    break
                if not closed[w] and order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = reach = 0
                    while True:
                        w = stack.pop()
                        members |= 1 << w
                        reach |= rows[w]
                        if w == v:
                            break
                    # the members' own closed entries are still 0
                    up = members | preimage_of(closed, reach)
                    for w in iter_bits(members):
                        closed[w] = up
    return tuple(closed)
