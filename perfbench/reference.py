"""Independent reference verdicts for the classification ladder.

The benchmark checks every ``classify`` result against a verdict computed
here, from the raw minimal-open table and the stratum masks, without
calling into the library. The route is polynomial, so it also judges the
inputs the library refuses today (more than 20 strata):

* A subset J of strata is open in the quotient iff its preimage is open,
  i.e. iff for every point x in a stratum of J, every stratum meeting the
  minimal open U_x is in J. So the quotient topology is the up-set
  topology of the relation "i -> j iff the open hull of S_i meets S_j",
  and the quotient is always Alexandrov.
* Poset-stratified iff the reflexive-transitive closure of that relation
  is antisymmetric (the decomposition preorder is a partial order).
* Stratification iff every stratum is locally closed (S equals its open
  hull intersected with its closure) and the frontier condition holds
  (a stratum meeting the closure of another lies inside it).
"""

from __future__ import annotations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hull(min_open, mask: int) -> int:
    out = 0
    for x in _bits(mask):
        out |= min_open[x]
    return out


def _closure(min_open, mask: int) -> int:
    out = 0
    for y, row in enumerate(min_open):
        if row & mask:
            out |= 1 << y
    return out


def reference_verdict(min_open, strata_masks) -> str:
    """Highest ladder rung reached by the partition ``strata_masks`` of the
    finite space whose minimal opens are ``min_open`` (bit masks)."""
    k = len(strata_masks)
    hulls = [_hull(min_open, s) for s in strata_masks]
    closures = [_closure(min_open, s) for s in strata_masks]

    locally_closed = all(h & c == s for s, h, c in zip(strata_masks, hulls, closures))
    frontier = all(
        not (si & cj) or not (si & ~cj) for si in strata_masks for cj in closures
    )
    if locally_closed and frontier:
        return "stratification"

    reach = [0] * k
    for i in range(k):
        row = 1 << i
        for j in range(k):
            if hulls[i] & strata_masks[j]:
                row |= 1 << j
        reach[i] = row
    for m in range(k):
        for i in range(k):
            if (reach[i] >> m) & 1:
                reach[i] |= reach[m]
    antisymmetric = all(
        not ((reach[i] >> j) & 1 and (reach[j] >> i) & 1)
        for i in range(k)
        for j in range(i + 1, k)
    )
    return "poset-stratified" if antisymmetric else "alexandrov"


def verdict_of(decomposition) -> str:
    """Reference verdict of a ``stratkit.Decomposition`` value, read only
    through its stored data (the space's minimal opens and the strata)."""
    return reference_verdict(
        decomposition.space.min_open, [mask for _, mask in decomposition.strata]
    )
