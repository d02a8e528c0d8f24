"""The bit-row kernel (``stratkit.kernel``) against the per-bit references
in ``helpers``, on both sides of each size switch, and the switches
themselves.

Each switch is forced through the module constants it reads: ``off``
keeps its fast path out at every size, ``on`` takes it at every size it
can, and ``rule`` leaves the measured crossover in place. The reference
tests draw the state, so each routine runs on both sides of its switch
whatever the drawn size; the last test checks that the reports of
``check`` and the exhaustive sweep do not change with any switch forced.
"""

from __future__ import annotations

import contextlib
import random
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import WIDE_SHAPES, masks_around_the_rule, run_main, wide_preorder
from stratkit import Decomposition, generate, kernel
from stratkit.order import alexandrov_space
from test_check_golden import doc_ids, document_text

# switch -> (the constants that force it off, those that force it on)
SWITCHES = {
    "c_pass": ({"C_PASS_MASK": inf}, {"C_PASS_MASK": -1, "C_PASS_BITS": 0, "C_PASS_BIAS": -inf}),
    "digits": ({"DIGITS_ROWS": inf}, {"DIGITS_ROWS": -1, "DIGITS_BIAS": -inf}),
    "components": ({"COMPONENTS_ROWS": inf}, {"COMPONENTS_ROWS": 0}),
}
STATES = ("rule", "off", "on")


@contextlib.contextmanager
def forced(switch: str, state: str):
    """Run the body with ``switch`` in ``state``, then restore its constants."""
    values = {} if state == "rule" else SWITCHES[switch][STATES.index(state) - 1]
    saved = {name: getattr(kernel, name) for name in values}
    try:
        for name, value in values.items():
            setattr(kernel, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(kernel, name, value)


@st.composite
def bit_rows(draw, low: int = 0, high: int = 130, width: int | None = None) -> list[int]:
    """Rows of n bits each (or ``width``), n from ``low`` to ``high``:
    sparse (one or three bits a row) or dense (each bit at random)."""
    n = draw(st.integers(low, high), label="rows")
    width = n if width is None else width
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    shape = draw(st.sampled_from(("one", "three", "dense")), label="shape")
    if not width or shape == "dense":
        return [rng.getrandbits(width) for _ in range(n)]
    bits = 1 if shape == "one" else 3
    return [sum({1 << rng.randrange(width) for _ in range(bits)}) for _ in range(n)]


def wide_relation(n: int, shape: str, seed: int) -> list[int]:
    """A relation on n points, not closed, as bit rows.

    ``sparse``: each row holds at most 2 random bits. ``eight`` and
    ``nine``: each row holds 7 or 8 random bits besides its own.
    ``dense``: each pair at 15%. ``cycles``: three long cycles through the
    points in random order, a few chords between them and some points off
    every cycle, so strongly connected classes of about n/4 points."""
    rng = random.Random(seed)
    if shape == "sparse":
        return [sum(1 << rng.randrange(n) for _ in range(rng.randrange(3))) for _ in range(n)]
    if shape in ("eight", "nine"):
        others = 7 if shape == "eight" else 8
        return [
            1 << i | sum(1 << j for j in rng.sample([j for j in range(n) if j != i], others))
            for i in range(n)
        ]
    if shape == "dense":
        return [sum(1 << j for j in range(n) if rng.random() < 0.15) for _ in range(n)]
    order = rng.sample(range(n), n)
    rows = [0] * n
    on_cycles = 3 * n // 4
    for start in range(3):
        cycle = order[start:on_cycles:3]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows[a] |= 1 << b
    for _ in range(4):
        rows[rng.choice(order[:on_cycles])] |= 1 << rng.randrange(n)
    for a in order[on_cycles:]:
        rows[a] |= 1 << rng.choice(order[:on_cycles])
    return rows


states = st.sampled_from(STATES)


# -- the routines without a switch ---------------------------------------------


@given(st.integers(0, 2**300) | st.integers(0, 0xFFFF))
@settings(max_examples=200, deadline=None)
def test_iter_bits_bit_flags_and_names_at(mask):
    names = [f"n{i}" for i in range(mask.bit_length() + 2)]
    assert list(kernel.iter_bits(mask)) == helpers.bits_by_scan(mask)
    assert kernel._bit_flags(mask) == helpers.flags_by_bits(mask)
    assert list(kernel.names_at(names, mask)) == helpers.names_by_bits(names, mask)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rows_meeting_matches_a_per_row_scan(data):
    n = data.draw(st.integers(0, 300), label="rows")
    width = data.draw(st.integers(1, 300), label="columns")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    bits = data.draw(st.sampled_from((1, 3, width)), label="bits a row")
    rows = [sum(1 << rng.randrange(width) for _ in range(bits)) for _ in range(n)]
    mask = data.draw(st.just(0) | st.integers(0, (1 << width) - 1), label="mask")
    assert kernel.rows_meeting(rows, mask) == helpers.rows_meeting_by_scan(rows, mask)


@pytest.mark.parametrize("n", [3, 64, 65, 300])
def test_rows_meeting_on_point_closures(n):
    rows = wide_preorder(n, "mixed", seed=n)
    closures = helpers.columns_by_bits(rows)
    rng = random.Random(n)
    for mask in [0, 1, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(6))]:
        assert kernel.rows_meeting(closures, mask) == helpers.rows_meeting_by_scan(closures, mask)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rows_within_matches_a_per_bit_scan(data):
    rows = data.draw(bit_rows(high=80), label="rows")
    other = data.draw(bit_rows(len(rows), len(rows)), label="other rows")
    if data.draw(st.booleans(), label="bounds above the rows"):
        other = [row | extra for row, extra in zip(rows, other)]
    assert kernel.rows_within(rows, other) == helpers.rows_within_by_bits(rows, other)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_min_open_rows_matches_a_per_bit_scan(data):
    n = data.draw(st.integers(0, 70), label="points")
    opens = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12), label="opens")
    assert kernel.min_open_rows(n, opens) == helpers.min_open_rows_by_bits(n, opens)
    assert kernel.min_open_rows(n, iter(opens)) == helpers.min_open_rows_by_bits(n, opens)


# -- preimage_of: the C pass, on both sides of 13 and 64 rows, 0xFFF and the
# bit-count rule


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_preimage_matches_the_per_bit_reference(data):
    n = data.draw(st.integers(1, 130), label="rows")
    width = data.draw(st.integers(1, 2 * n), label="columns")  # fibers: more or fewer
    rows = data.draw(bit_rows(n, n, width), label="row values")
    fewest = helpers.c_pass_bits(n)
    near = st.integers(min(n, max(0, fewest - 3)), min(n, fewest + 2))
    weight = data.draw(near | st.integers(0, n), label="bits")
    positions = data.draw(st.permutations(range(n)))[:weight]
    if data.draw(st.booleans(), label="low bits"):  # no larger than 0xFFF up to 12 bits
        positions = range(weight)
    mask = sum(1 << i for i in positions)
    container = data.draw(st.sampled_from((tuple, list)))
    beyond = data.draw(st.integers(n, 2 * n + 64), label="bit beyond the rows")
    with forced("c_pass", data.draw(states, label="switch")):
        assert kernel.preimage_of(container(rows), mask) == helpers.preimage_by_bits(rows, mask)
        with pytest.raises(IndexError):
            kernel.preimage_of(container(rows), mask | 1 << beyond)


@pytest.mark.parametrize("shape", WIDE_SHAPES)
@pytest.mark.parametrize("n", [65, 300])
def test_wide_preimages_of_fibers(n, shape):
    # a map's fibers: more rows than columns, or fewer
    rows = wide_preorder(n, shape, seed=7)
    for width in (n // 3, 2 * n):
        fibers = tuple(row & (1 << width) - 1 for row in rows)
        for mask in masks_around_the_rule(n, seed=width):
            assert kernel.preimage_of(fibers, mask) == helpers.preimage_by_bits(fibers, mask)


def test_the_c_pass_takes_only_wide_masks_above_0xfff(monkeypatch):
    passes = []
    flags = kernel._bit_flags
    monkeypatch.setattr(kernel, "_bit_flags", lambda mask: passes.append(mask) or flags(mask))
    rows = tuple(1 << (i + 1) % 100 for i in range(100))
    for n, mask, c_pass in [
        (13, 0x1FFF, True),  # 13 bits on 13 rows
        (13, 0x1F3F, True),  # 11 bits: the floor
        (13, 0x1F1F, False),  # 10 bits
        (13, 0x1F0F, False),  # 9 bits, more than (13 + 128) / 16 but under the floor
        (47, 1 << 46 | 0x3FF, True),  # 11 bits: more than 175 / 16
        (48, 1 << 47 | 0x3FF, False),  # 11 bits: not more than 176 / 16
        (48, 1 << 47 | 0x7FF, True),  # 12 bits
        (64, 0xFFF, False),  # 12 bits, but no larger than 0xFFF
        (64, 0x1FFF, True),  # 13 bits: more than 192 / 16
        (64, 0x1FFE, False),  # 12 bits
        (64, 1 << 63 | 0xFFF, True),
        (100, 1 << 99 | 0x1FFF, False),  # 14 bits: not more than 228 / 16
        (100, 1 << 99 | 0x3FFF, True),  # 15 bits
    ]:
        passes.clear()
        assert kernel.preimage_of(rows[:n], mask) == helpers.preimage_by_bits(rows[:n], mask)
        assert passes == ([mask] if c_pass else []), (n, hex(mask))


@pytest.mark.parametrize("n", [3, 64, 65, 300])
@pytest.mark.parametrize("container", [tuple, list])
def test_out_of_range_masks_raise_index_error_alike(n, container):
    rows = container(wide_preorder(n, "classes", seed=1))
    full = (1 << n) - 1
    with pytest.raises(IndexError) as narrow:
        kernel.preimage_of(rows, 1 << n)
    for mask in (full | 1 << n, full << 1, -1, -full, full | 1 << 2 * n):
        with pytest.raises(IndexError) as wide:
            kernel.preimage_of(rows, mask)
        assert type(wide.value) is IndexError
        assert str(wide.value) == str(narrow.value)


# -- preimages_of: preimage_of in two tables at once, by walking each mask


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_preimages_match_preimage_of_on_each_table(data):
    n = data.draw(st.integers(0, 300), label="rows")
    width = data.draw(st.integers(1, 300), label="columns")
    rows = data.draw(bit_rows(n, n, width), label="row values")
    others = data.draw(bit_rows(n, n, width), label="other row values")
    masks = [
        sum(1 << i for i in data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))])
        for _ in range(data.draw(st.integers(0, 4), label="masks"))
    ]
    container = data.draw(st.sampled_from((tuple, list, iter)))
    with forced("c_pass", data.draw(states, label="switch")):
        ones, twos = kernel.preimages_of(rows, others, container(masks))
        assert ones == tuple(kernel.preimage_of(rows, mask) for mask in masks)
        assert twos == tuple(kernel.preimage_of(others, mask) for mask in masks)


@pytest.mark.parametrize("n", [3, 64, 65, 300])
@pytest.mark.parametrize("container", [tuple, list])
def test_out_of_range_masks_raise_index_error_alike_in_two_tables(n, container):
    rows = container(wide_preorder(n, "classes", seed=1))
    others = container(helpers.columns_by_bits(rows))
    full = (1 << n) - 1
    with pytest.raises(IndexError) as narrow:
        kernel.preimage_of(rows, 1 << n)
    for mask in (1 << n, full | 1 << n, full << 1, -1, -full, full | 1 << 2 * n):
        with pytest.raises(IndexError) as wide:
            kernel.preimages_of(rows, others, [full, mask])
        assert type(wide.value) is IndexError
        assert str(wide.value) == str(narrow.value)


def hulls_and_closures_by_points(space) -> tuple[list[int], list[int]]:
    """Per point, its minimal open and its closure {y : x in U_y}, read off
    ``min_open`` one pair at a time; on at most 8 points the closure is also
    checked against the intersection of every closed superset."""
    n = len(space.points)
    closures = [
        sum(1 << y for y in range(n) if helpers.bit(space.min_open[y], x)) for x in range(n)
    ]
    if n <= 8:
        assert closures == [helpers.brute_closure_mask(space, 1 << x) for x in range(n)]
    return list(space.min_open), closures


def wide_decompositions():
    """Generated decompositions of 65 to 300 points into 2, 3, 17 or 64
    strata, and the pointwise ones of two small spaces."""
    decs = []
    for n, density, blocks, seed in [
        (65, 0.005, 3, 1), (65, 0.02, 64, 2), (100, 0.01, 17, 3), (130, 0.0025, 2, 4),
        (130, 0.005, 64, 5), (300, 0.0005, 3, 6), (300, 0.002, 64, 7), (300, 0.01, 3, 8),
    ]:
        space = alexandrov_space(generate("preorder", n, {"density": density}, seed).value)
        decs.append(generate("partition", n, {"space": space, "blocks": blocks}, seed).value)
    for n in (5, 8):
        space = alexandrov_space(generate("preorder", n, {"density": 0.3}, n).value)
        decs.append(Decomposition.pointwise(space))
    return decs


@pytest.mark.parametrize("state", STATES)
def test_strata_hulls_and_closures_are_unions_of_their_points(state):
    for dec in wide_decompositions():
        space = dec.space
        hull_of, closure_of = hulls_and_closures_by_points(space)
        hulls = [helpers.preimage_by_bits(hull_of, mask) for mask in dec.masks]
        closures = [helpers.preimage_by_bits(closure_of, mask) for mask in dec.masks]
        with forced("c_pass", state):
            fresh = Decomposition(space, dec.strata)
            assert list(fresh._closures) == closures  # closures first: one pass sets both
            assert list(fresh._hulls) == hulls
            assert list(Decomposition(space, dec.strata)._hulls) == hulls
            for mask, hull, closure in zip(dec.masks, hulls, closures):
                holds = hull & closure == mask
                verdict = space.is_locally_closed(space.names_of(mask))
                assert verdict == (holds, space.names_of(hull) if holds else None, "")


# -- transpose: the digit string, on both sides of 64 rows and the density rule


@given(bit_rows(), states)
@settings(max_examples=150, deadline=None)
def test_transpose_matches_the_per_bit_reference(rows, state):
    with forced("digits", state):
        assert kernel.transpose(rows) == helpers.columns_by_bits(rows)
        assert kernel.transpose(tuple(rows)) == helpers.columns_by_bits(rows)


@pytest.mark.parametrize("n, shape, digits", [
    (64, "dense", False), (65, "dense", True), (65, "sparse", False),
    (300, "dense", True), (300, "sparse", False),
])
def test_the_digit_string_takes_only_wide_dense_relations(monkeypatch, n, shape, digits):
    # preorders of 8 classes or at most 2 bits a row, and 300 relation rows
    # with 15% of the bits or at most 2 each
    formatted = []
    monkeypatch.setattr(kernel, "format", lambda *args: formatted.append(1) or format(*args),
                        raising=False)
    rows = wide_preorder(n, shape, seed=n) if n < 300 else wide_relation(n, shape, seed=n)
    assert kernel.transpose(rows) == helpers.columns_by_bits(rows)
    assert bool(formatted) == digits


# -- first_intransitive: the C pass on the wide rows of dense relations


def test_first_intransitive_on_every_small_relation():
    for n in range(4):
        for code in range(1 << (n * n)):
            rows = tuple(code >> (i * n) & ((1 << n) - 1) for i in range(n))
            assert kernel.first_intransitive(rows) == helpers.first_intransitive_by_bits(rows)


@given(bit_rows(high=80), st.booleans(), states)
@settings(max_examples=200, deadline=None)
def test_first_intransitive_on_random_relations(rows, reflexive, state):
    if reflexive:
        rows = [row | 1 << i for i, row in enumerate(rows)]
    with forced("c_pass", state):
        assert kernel.first_intransitive(rows) == helpers.first_intransitive_by_bits(rows)


@given(bit_rows(high=40), states)
@settings(max_examples=60, deadline=None)
def test_first_intransitive_is_none_on_transitive_relations(rows, state):
    closed = helpers.closure_by_fixpoint(rows)
    with forced("c_pass", state):
        assert kernel.first_intransitive(closed) is None


@pytest.mark.parametrize("shape", WIDE_SHAPES)
@pytest.mark.parametrize("n", [65, 100])
def test_first_intransitive_on_wide_relations(n, shape):
    rows = wide_preorder(n, shape, seed=n)
    assert kernel.first_intransitive(rows) is None
    rng = random.Random(n)
    for _ in range(6):
        broken = list(rows)
        i, j = rng.sample(range(n), 2)
        broken[i] ^= 1 << j  # add or drop the pair (i, j)
        assert kernel.first_intransitive(broken) == helpers.first_intransitive_by_bits(broken)


# -- reflexive_transitive_closure: Warshall, and components from 64 rows


@given(bit_rows(high=90), states)
@settings(max_examples=150, deadline=None)
def test_closure_matches_the_fixpoint(rows, state):
    with forced("components", state):
        assert kernel.reflexive_transitive_closure(rows) == helpers.closure_by_fixpoint(rows)


@pytest.mark.parametrize("shape", ["sparse", "eight", "nine", "dense", "cycles"])
@pytest.mark.parametrize("n", [63, 64, 65, 150, 300])
def test_wide_relations_equal_fixpoint(n, shape):
    # both closure algorithms: Warshall at 63 rows, components from 64
    rows = wide_relation(n, shape, seed=n)
    closed = kernel.reflexive_transitive_closure(rows)
    assert closed == helpers.closure_by_fixpoint(rows)
    assert kernel.reflexive_transitive_closure(closed) == closed
    assert kernel.reflexive_transitive_closure(iter(rows)) == closed


@pytest.mark.parametrize("n, components", [(0, False), (63, False), (64, True), (150, True)])
def test_components_close_from_64_rows(monkeypatch, n, components):
    calls = []
    by_components = kernel._closure_by_components
    monkeypatch.setattr(kernel, "_closure_by_components",
                        lambda rows: calls.append(1) or by_components(rows))
    rows = wide_relation(n, "cycles", seed=n) if n else []
    assert kernel.reflexive_transitive_closure(rows) == helpers.closure_by_fixpoint(rows)
    assert bool(calls) == components


# -- every switch forced off, then on at every size: the same reports


def reports() -> tuple[list, tuple]:
    """``check --format json`` on every fixture, face decomposition and
    generated document of the check golden, and the n = 4 sweep's JSON."""
    checks = []
    for doc_id in doc_ids():
        code, out, err = run_main(["check", "-", "--format", "json"], document_text(doc_id))
        checks.append((code, out, err))
    sweep = run_main(["verify", "--exhaustive", "--points", "4", "--format", "json"], "")
    assert sweep[0] == 0
    return checks, sweep


@pytest.fixture(scope="module")
def reports_by_the_rules():
    return reports()


@pytest.mark.parametrize("switch", SWITCHES)
def test_forcing_a_switch_changes_no_report(reports_by_the_rules, switch):
    for state in ("off", "on"):
        with forced(switch, state):
            assert reports() == reports_by_the_rules, state
