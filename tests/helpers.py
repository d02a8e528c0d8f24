"""Brute-force reference implementations used only by the tests, the
face-poset decompositions the golden tests share, and an in-process CLI
runner.

Everything here decides properties straight from the definitions by
enumerating whole families of sets, so it stays independent of the
polynomial production paths it is used to check. It needs only the
standard library, like the golden modules that run as scripts.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from itertools import combinations

from stratkit import (
    Decomposition,
    FiniteSpace,
    Poset,
    Proset,
    SpaceMap,
    ValidationError,
    Verdict,
    alexandrov_space,
    face_poset_model,
    specialization_preorder,
)
from stratkit.cli import main
from stratkit.oracle import (
    Sweep,
    SweepReport,
    alexandrov_by_subset_filter,
    quotient_space_by_subset_filter,
    labeled_preorder_rows,
    set_partitions,
)
from stratkit.kernel import iter_bits, preimage_of

# facets of three simplicial complexes
FACE_MODELS = {
    "tetrahedron": (("a", "b", "c", "d"),),
    "octahedron": (
        ("a", "b", "c"), ("a", "b", "d"), ("a", "c", "e"), ("a", "d", "e"),
        ("f", "b", "c"), ("f", "b", "d"), ("f", "c", "e"), ("f", "d", "e"),
    ),
    "circle": (("a", "b"), ("b", "c"), ("a", "c")),
}
# each model's pointwise and skeleton decomposition, except the
# octahedron's pointwise one (26 strata, beyond the old 2**k guard)
FACE_DECOMPOSITIONS = tuple(
    f"{model}/{how}" for model in FACE_MODELS for how in ("pointwise", "skeleton")
    if not (model == "octahedron" and how == "pointwise")
)


def face_decomposition(name: str) -> Decomposition:
    """The decomposition ``model/pointwise`` or ``model/skeleton``."""
    model, _, how = name.partition("/")
    fm = face_poset_model(FACE_MODELS[model])
    return Decomposition.pointwise(fm.space) if how == "pointwise" else fm.skeleton()


def run_main(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """``stratkit.cli.main(argv)`` reading ``stdin``: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_value_semantics(make, field: str, memo: str | None = None) -> None:
    """Two values built alike by ``make`` are equal and hash alike, ``field``
    can be neither assigned nor deleted, and the cached property ``memo`` is
    computed once and then read from the instance."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for attempt in (lambda: setattr(a, field, None), lambda: delattr(a, field)):
        try:
            attempt()
        except AttributeError:
            continue
        raise AssertionError(f"{type(a).__name__}.{field} is writable")
    if memo is not None:
        first = getattr(a, memo)
        assert vars(a)[memo] is first and getattr(a, memo) is first
    assert a == b


def naive_preorder_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Independent rederivation: filter all 2**(n*n) boolean matrices.

    Slow by design; the reference for ``oracle.labeled_preorder_rows``.
    """
    if n > 3:
        raise ValidationError("the naive relation filter is limited to 3 elements")
    out = []
    for code in range(1 << (n * n)):
        rows = [0] * n
        for i in range(n):
            for j in range(n):
                if (code >> (i * n + j)) & 1:
                    rows[i] |= 1 << j
        if any(not (rows[i] >> i) & 1 for i in range(n)):
            continue
        ok = True
        for i in range(n):
            acc = rows[i]
            for j in iter_bits(rows[i]):
                acc |= rows[j]
            if acc != rows[i]:
                ok = False
                break
        if ok:
            out.append(tuple(rows))
    return tuple(out)


def all_spaces(max_n: int):
    """Every labeled space with at most max_n points (as order topologies)."""
    for n in range(max_n + 1):
        points = tuple(str(i) for i in range(n))
        for rows in labeled_preorder_rows(n):
            yield FiniteSpace(points, rows)


def labeled_sweep(n: int) -> SweepReport:
    """The sweep's own space and instance checks run once on every labeled
    (preorder, partition) pair, each with weight 1: the reference the
    orbit-weighted ``exhaustive_verify`` must reproduce."""
    points = tuple(str(i) for i in range(n))
    partitions = [partition_masks(partition) for partition in set_partitions(points)]
    sweep = Sweep(n)
    for rows in labeled_preorder_rows(n):
        space = sweep.check_space(Proset(points, rows), 1)
        for blocks in partitions:
            sweep.check_instance(space, blocks, 1)
    return sweep.report()


def partition_masks(partition) -> tuple[int, ...]:
    """The blocks of a partition of the points "0".."n-1" as point masks,
    the form the sweep takes them in."""
    return tuple(sum(1 << int(p) for p in block) for block in partition)


def orders_containing_by_scan(orders, relation) -> int:
    """The positions of the orders (up-set rows) whose row i contains
    ``relation[i]`` for every i, by testing every order bit by bit: the
    unpruned reference for the sweep's order index."""
    return sum(1 << t for t, rows in enumerate(orders) if rows_within_by_bits(relation, rows))


def open_masks(space: FiniteSpace) -> list[int]:
    return [m for m in range(1 << len(space.points)) if space.is_open_mask(m)]


def closed_masks(space: FiniteSpace) -> list[int]:
    full = space.full_mask
    return [full & ~m for m in open_masks(space)]


def brute_closure_mask(space: FiniteSpace, mask: int) -> int:
    """Smallest closed superset: intersect every closed superset."""
    acc = space.full_mask
    for c in closed_masks(space):
        if not mask & ~c:
            acc &= c
    return acc


def brute_locally_closed(space: FiniteSpace, mask: int) -> bool:
    """Direct search for an open/closed pair intersecting to the set."""
    opens = open_masks(space)
    for o in opens:
        for c in closed_masks(space):
            if o & c == mask:
                return True
    return False


def brute_map_checks(f) -> tuple[bool, bool, bool]:
    """(continuous, open, closed) from the full open/closed families."""
    src_open = set(open_masks(f.source))
    tgt_open = set(open_masks(f.target))
    src_closed = set(closed_masks(f.source))
    tgt_closed = set(closed_masks(f.target))
    cont = all(f.preimage_mask(u) in src_open for u in tgt_open)
    opn = all(f.image_mask(u) in tgt_open for u in src_open)
    cls = all(f.image_mask(c) in tgt_closed for c in src_closed)
    return cont, opn, cls


def stratum_assignment(dec: Decomposition) -> tuple[int, ...]:
    """The stratum index of each point, read from the strata by point name:
    the quotient map's assignment, built without the library's image
    routine (``kernel.rows_meeting``)."""
    space = dec.space
    index = {name: t for t, (_, mask) in enumerate(dec.strata) for name in space.names_of(mask)}
    return tuple(index[name] for name in space.points)


def point_map(dec: Decomposition, order: Poset | None = None) -> SpaceMap:
    """The quotient map of ``dec`` point by point: into the quotient space,
    or into the order topology of ``order``, a partial order on the stratum
    ids. The reference for the stratum-level verdicts of the library."""
    assignment = stratum_assignment(dec)
    if order is None:
        return SpaceMap(dec.space, dec.quotient_space, assignment)
    mapping = {p: dec.ids[t] for p, t in zip(dec.space.points, assignment)}
    return SpaceMap.from_names(dec.space, alexandrov_space(order), mapping)


def image_by_assignment(assignment, point_mask: int) -> int:
    """The image of a set of points under a map given as its assignment,
    one point at a time."""
    return sum({1 << assignment[i] for i in iter_bits(point_mask)})


def strata_meeting(dec: Decomposition, point_mask: int) -> int:
    """The strata of ``dec`` that meet a set of points, by a scan over every
    stratum: the stratum image of the set."""
    return rows_meeting_by_scan(dec.masks, point_mask)


def subspace_by_bits(space: FiniteSpace, names) -> FiniteSpace:
    """``FiniteSpace.subspace`` by reindexing each neighborhood bit by bit."""
    mask = space.mask_of(names)
    kept = [i for i in range(len(space.points)) if (mask >> i) & 1]
    reindex = {old: new for new, old in enumerate(kept)}
    rows = []
    for old in kept:
        row = 0
        for j in iter_bits(space.min_open[old] & mask):
            row |= 1 << reindex[j]
        rows.append(row)
    return FiniteSpace(tuple(space.points[i] for i in kept), tuple(rows))


def brute_saturations(dec) -> tuple[bool, bool]:
    """Semicontinuity saturation formulas quantified over whole families."""
    space = dec.space
    sat_open = True
    for u in open_masks(space):
        sat = preimage_of(dec.masks, strata_meeting(dec, u))
        if not space.is_open_mask(sat):
            sat_open = False
            break
    sat_closed = True
    for c in closed_masks(space):
        sat = preimage_of(dec.masks, strata_meeting(dec, c))
        if not space.is_closed_mask(sat):
            sat_closed = False
            break
    return sat_open, sat_closed


def subset_filter_report(dec) -> dict:
    """``classify(dec).to_json_dict()`` without its witnesses, rebuilt from
    the 2**k filtered quotient family and point-level map checks."""
    space = dec.space
    k = dec.k
    quotient, family = quotient_space_by_subset_filter(dec)
    p = specialization_preorder(quotient)
    pi = SpaceMap(space, quotient, stratum_assignment(dec))
    closures = [space.closure_mask(mask) for mask in dec.masks]

    alexandrov = alexandrov_by_subset_filter(dec, quotient, family)
    locally_closed = {
        sid: space.is_locally_closed(space.names_of(mask)).holds for sid, mask in dec.strata
    }
    frontier_condition = all(
        not (si & cj) or not (si & ~cj) for si in dec.masks for cj in closures
    )
    closure_is_saturation = all(
        closures[j] == preimage_of(dec.masks, p.down[j]) for j in range(k)
    )
    order_matches = all(
        (not (dec.masks[i] & ~closures[j])) == bool((p.up[i] >> j) & 1)
        for i in range(k)
        for j in range(k)
    )
    pi_open, pi_closed = bool(pi.is_open()), bool(pi.is_closed())
    # continuity into the preorder topology: every up-set has an open preimage
    poset_stratified = bool(p.is_poset()) and all(row in family for row in p.up)

    def saturation(mask: int) -> int:
        return preimage_of(dec.masks, strata_meeting(dec, mask))

    sat_open = all(space.is_open_mask(saturation(u)) for u in space.min_open)
    sat_closed = all(
        space.is_closed_mask(saturation(space.closure_mask(1 << x)))
        for x in range(len(space.points))
    )
    reasons = [
        f"stratum {sid!r} is not locally closed" for sid, lc in locally_closed.items() if not lc
    ]
    if not frontier_condition:
        reasons.append("frontier condition fails")
    if not reasons:
        verdict = "stratification"
    elif poset_stratified:
        verdict = "poset-stratified"
    else:
        verdict = "alexandrov" if all(alexandrov) else "decomposition"
    label = {
        (True, True): "continuous",
        (True, False): "lower-semicontinuous",
        (False, True): "upper-semicontinuous",
        (False, False): "neither",
    }[pi_open, pi_closed]
    return {
        "alexandrov": dict(
            zip(
                (
                    "quotient_has_minimal_opens",
                    "preorder_topology_equals_quotient_topology",
                    "map_to_preorder_space_continuous",
                ),
                alexandrov,
            )
        ),
        "locally_finite": True,
        "locally_closed": locally_closed,
        "frontier": {
            "frontier_condition": frontier_condition,
            "closure_is_minimal_closed_saturation": closure_is_saturation,
            "preorder_equals_closure_containment": order_matches,
            "quotient_map_open": pi_open,
        },
        "poset_stratified": dict.fromkeys(
            (
                "stratified_over_some_partial_order",
                "preorder_is_partial_order_and_map_continuous",
                "strata_open_in_minimal_closed_saturation",
            ),
            poset_stratified,
        ),
        "stratification": {"holds": not reasons, "reasons": reasons},
        "semicontinuity": {
            "sat_open_open": sat_open,
            "sat_closed_closed": sat_closed,
            "pi_open": pi_open,
            "pi_closed": pi_closed,
            "label": label,
        },
        "verdict": verdict,
    }


# -- pair scans: the references for the row tests of the library ----------------


def frontier_by_pair_scans(dec: Decomposition) -> tuple[tuple[bool, ...], dict[str, str]]:
    """The frontier group's four values and the witnesses of its first three
    labels, from scans over every (i, j) pair of strata in i-major order,
    with the closures and the quotient map's openness taken point by point."""
    k, masks, ids = dec.k, dec.masks, dec.ids
    closures = [dec.space.closure_mask(mask) for mask in masks]
    p = dec.preorder
    witnesses = {}
    bad = next((
        (i, j) for i in range(k) for j in range(k)
        if masks[i] & closures[j] and masks[i] & ~closures[j]
    ), None)
    if bad is not None:
        witnesses["frontier_condition"] = (
            f"stratum {ids[bad[0]]!r} meets the closure of "
            f"{ids[bad[1]]!r} without being contained in it"
        )
    saturation = next((j for j in range(k) if closures[j] != preimage_of(masks, p.down[j])), None)
    if saturation is not None:
        witnesses["closure_is_minimal_closed_saturation"] = (
            f"closure of stratum {ids[saturation]!r} is not a union of strata"
        )
    order = next((
        (i, j) for i in range(k) for j in range(k)
        if (not masks[i] & ~closures[j]) != bool((p.up[i] >> j) & 1)
    ), None)
    if order is not None:
        witnesses["preorder_equals_closure_containment"] = (
            f"pair ({ids[order[0]]!r}, {ids[order[1]]!r}) ordered by only "
            "one of the two descriptions"
        )
    values = (bad is None, saturation is None, order is None, bool(point_map(dec).is_open()))
    return values, witnesses


def is_poset_by_pair_scan(p: Proset) -> Verdict:
    """``Proset.is_poset`` by testing every pair of elements in name order."""
    order = sorted(range(len(p.elements)), key=lambda i: p.elements[i])
    for pos, i in enumerate(order):
        for j in order[pos + 1 :]:
            if (p.up[i] >> j) & 1 and (p.up[j] >> i) & 1:
                a, b = sorted((p.elements[i], p.elements[j]))
                return Verdict(False, witness=(a, b), note="two-cycle")
    return Verdict(True)


def hasse_by_pair_scan(p: Poset) -> tuple[tuple[str, str], ...]:
    """``Poset.hasse`` by testing every strictly comparable pair (i, j) for
    an element strictly between them."""
    covers = []
    for i in range(len(p.elements)):
        for j in iter_bits(p.up[i]):
            if i != j and not p.up[i] & p.down[j] & ~(1 << i) & ~(1 << j):
                covers.append((p.elements[i], p.elements[j]))
    return tuple(sorted(covers))


def is_monotone_by_pair_scan(f) -> Verdict:
    """``MonotoneMap.is_monotone`` by testing every comparable pair (a, b),
    a in name order and b in index order, for comparable images."""
    src, target = f.source, f.target
    for i in sorted(range(len(src.elements)), key=lambda i: src.elements[i]):
        for j in iter_bits(src.up[i]):
            if not (target.up[f.assignment[i]] >> f.assignment[j]) & 1:
                return Verdict(
                    False,
                    witness=(src.elements[i], src.elements[j]),
                    note="comparable pair whose images are not comparable",
                )
    return Verdict(True)


def reflection_by_pair_scans(p: Proset):
    """The equivalence classes, the reflection poset and the quotient map's
    assignment, from tests of every pair of elements and of classes."""
    els, n = p.elements, len(p.elements)
    classes = tuple(sorted({
        tuple(sorted(els[j] for j in range(n) if p.leq(els[i], els[j]) and p.leq(els[j], els[i])))
        for i in range(n)
    }))
    reps = tuple(members[0] for members in classes)
    rows = tuple(
        sum(1 << cj for cj, b in enumerate(reps) if p.leq(a, b)) for a in reps
    )
    class_of = {m: c for c, members in enumerate(classes) for m in members}
    return classes, Poset(reps, rows), tuple(class_of[e] for e in els)


def face_poset_by_pair_filter(facets) -> Poset:
    """The face poset of ``face_poset_model``, from an inclusion test on
    every pair of faces; the pairs are already a partial order, so none is
    added by a closure."""
    faces: set[tuple[str, ...]] = set()
    for facet in facets:
        vertices = sorted(set(facet))
        for size in range(1, len(vertices) + 1):
            faces.update(combinations(vertices, size))
    names = {face: ",".join(face) for face in faces}
    pairs = [
        (names[small], names[big]) for small in faces for big in faces if set(small) <= set(big)
    ]
    return Poset.from_pairs(sorted(names.values()), pairs, close=False)


# -- per-bit references for the bit-row kernel (``stratkit.kernel``) ----------
#
# Each reads one bit at a time and shares nothing with the routine it checks.

# the generators' shapes of wide preorders, below
WIDE_SHAPES = ("sparse", "dense", "classes", "mixed")


def bit(mask: int, i: int) -> bool:
    return bool(mask >> i & 1)


def bits_by_scan(mask: int) -> list[int]:
    """``iter_bits``: the positions of the set bits, lowest first."""
    return [i for i in range(mask.bit_length()) if bit(mask, i)]


def flags_by_bits(mask: int) -> bytes:
    """``_bit_flags``: one 0/1 byte per bit up to the highest set bit, one
    zero byte for the empty mask."""
    return bytes([bit(mask, i) for i in range(max(mask.bit_length(), 1))])


def names_by_bits(names, mask: int) -> list[str]:
    """``names_at``: the names at the set bits, lowest bit first."""
    return [name for i, name in enumerate(names) if bit(mask, i)]


def preimage_by_bits(rows, mask: int) -> int:
    """``preimage_of`` for a mask with no bit beyond the rows: the union of
    the rows whose index bit is set, read one index at a time."""
    out = 0
    for i, row in enumerate(rows):
        if bit(mask, i):
            out |= row
    return out


def rows_meeting_by_scan(rows, mask: int) -> int:
    """``rows_meeting``: the indices of the rows that meet the mask, each
    row tested against each bit of the mask in turn."""
    return sum(
        1 << t for t, row in enumerate(rows) if any(bit(row, i) for i in bits_by_scan(mask))
    )


def columns_by_bits(rows) -> tuple[int, ...]:
    """``transpose``: bit i of column j is bit j of row i."""
    n = len(rows)
    return tuple(sum(1 << i for i in range(n) if bit(rows[i], j)) for j in range(n))


def first_intransitive_by_bits(rows):
    """``first_intransitive``: the first (i, j), rows in order and bits
    lowest first, with j in row i but row j not inside row i."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if bit(rows[i], j) and any(bit(rows[j], k) and not bit(rows[i], k) for k in range(n)):
                return i, j
    return None


def rows_within_by_bits(rows, bounds) -> bool:
    """``rows_within``: no row has a bit its bound lacks."""
    return all(
        not (bit(row, j) and not bit(bound, j))
        for row, bound in zip(rows, bounds)
        for j in range(row.bit_length())
    )


def min_open_rows_by_bits(n: int, opens) -> tuple[int, ...]:
    """``min_open_rows``: for each point, the points in every open that
    holds it; all n points when none does."""
    opens = list(opens)
    return tuple(
        sum(1 << j for j in range(n) if all(bit(u, j) for u in opens if bit(u, i)))
        for i in range(n)
    )


def closure_by_fixpoint(rows) -> tuple[int, ...]:
    """``reflexive_transitive_closure``: add the diagonal, then re-scan
    every row until nothing changes."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j, other in enumerate(rows):
                if bit(row, j):
                    acc |= other
            if acc != row:
                rows[i], changed = acc, True
    return tuple(rows)


def wide_preorder(n: int, shape: str, seed: int) -> tuple[int, ...]:
    """A preorder on n points, transitive by construction, as up-set rows.

    ``sparse``: a third of the points are maximal and each other point lies
    below at most one of them (at most 2 bits a row). ``dense``: i <= j when
    the 3-bit label of i is inside that of j, so about 42% of the pairs and
    8 classes of equal rows. ``classes``: a total preorder on 4 levels, 4
    large classes. ``mixed``: the dense shape on the first half of the
    points and the sparse one on the rest, unrelated."""
    rng = random.Random(seed)
    if shape == "sparse":
        tops = max(1, n // 3)
        rows = [1 << i for i in range(n)]
        for i in range(tops, n):
            if rng.random() < 0.8:
                rows[i] |= 1 << rng.randrange(tops)
        return tuple(rows)
    if shape == "dense":
        labels = [rng.randrange(8) for _ in range(n)]
        return tuple(
            sum(1 << j for j in range(n) if labels[i] & ~labels[j] == 0) for i in range(n)
        )
    if shape == "classes":
        levels = [rng.randrange(4) for _ in range(n)]
        return tuple(sum(1 << j for j in range(n) if levels[i] <= levels[j]) for i in range(n))
    half = n // 2
    low = wide_preorder(half, "dense", seed)
    high = wide_preorder(n - half, "sparse", seed)
    return low + tuple(row << half for row in high)


def c_pass_bits(n: int) -> int:
    """The fewest bits with which a mask above 0xFFF takes ``preimage_of``'s
    C pass on n rows, by the rule its docstring states: at least 14, and
    more than (n + 192) / 16."""
    return max(14, (n + 192) // 16 + 1)


def masks_around_the_rule(n: int, seed: int) -> list[int]:
    """Masks on n points with 0, 1 and all bits, and with bit counts on
    both sides of ``preimage_of``'s C-pass rule."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    fewest = c_pass_bits(n)
    masks = [0, 1, 1 << n - 1, full]
    for weight in (fewest - 2, fewest - 1, fewest, fewest + 1, n // 2, n - 1):
        if 0 <= weight <= n:
            masks.append(sum(1 << i for i in rng.sample(range(n), weight)))
    return masks
