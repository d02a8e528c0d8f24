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
import sys

from stratkit import (
    Decomposition,
    FiniteSpace,
    Proset,
    SpaceMap,
    face_poset_model,
    specialization_preorder,
)
from stratkit.cli import main
from stratkit.oracle import (
    Sweep,
    SweepReport,
    alexandrov_by_subset_filter,
    labeled_preorder_rows,
    set_partitions,
)
from stratkit.topology import preimage_of

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
    partitions = tuple(set_partitions(points))
    sweep = Sweep(n)
    for rows in labeled_preorder_rows(n):
        space = sweep.check_space(Proset(points, rows), 1)
        for partition in partitions:
            sweep.check_instance(space, partition, 1)
    return sweep.report()


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


def brute_saturations(dec) -> tuple[bool, bool]:
    """Semicontinuity saturation formulas quantified over whole families."""
    space = dec.space
    sat_open = True
    for u in open_masks(space):
        sat = preimage_of(dec.masks, dec._strata_meeting_mask(u))
        if not space.is_open_mask(sat):
            sat_open = False
            break
    sat_closed = True
    for c in closed_masks(space):
        sat = preimage_of(dec.masks, dec._strata_meeting_mask(c))
        if not space.is_closed_mask(sat):
            sat_closed = False
            break
    return sat_open, sat_closed


def subset_filter_report(dec) -> dict:
    """``classify(dec).to_json_dict()`` without its witnesses, rebuilt from
    the 2**k filtered quotient family and point-level map checks."""
    space = dec.space
    k = dec.k
    family = frozenset(dec.quotient_open_family())
    quotient = dec.quotient_space_by_subset_filter()
    p = specialization_preorder(quotient)
    pi = SpaceMap(space, quotient, dec._point_to_stratum)
    closures = [space.closure_mask(mask) for mask in dec.masks]

    alexandrov = alexandrov_by_subset_filter(dec)
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
        return preimage_of(dec.masks, dec._strata_meeting_mask(mask))

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
