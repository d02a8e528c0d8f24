from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stratkit import (
    FiniteSpace,
    MonotoneMap,
    Poset,
    Proset,
    ValidationError,
    adjunction_roundtrips,
    alexandrov_space,
    generate,
    load,
    singleton_local_closure_check,
    specialization_preorder,
    symbolic_local_finiteness,
)
from stratkit.oracle import enumerate_prosets, labeled_poset_rows
from stratkit.order import reflexive_transitive_closure
from stratkit.topology import iter_bits


def diamond() -> Poset:
    return Poset.from_pairs("0123", [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")])


@st.composite
def labeled_posets(draw, max_elements: int = 5) -> Poset:
    """A labeled partial order on at most ``max_elements`` elements, named
    by a drawn permutation of its index order."""
    k = draw(st.integers(0, max_elements))
    rows = draw(st.sampled_from(labeled_poset_rows(k)))
    return Poset(tuple(draw(st.permutations([f"e{i}" for i in range(k)]))), rows)


@st.composite
def random_prosets(draw, max_elements: int = 5) -> Proset:
    n = draw(st.integers(0, max_elements))
    elements = tuple(f"e{i}" for i in range(n))
    if n == 0:
        return Proset.from_pairs((), [])
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(elements), st.sampled_from(elements)), max_size=8
        )
    )
    return Proset.from_pairs(elements, pairs, close=True)


class TestConstruction:
    def test_closure_infers_transitivity(self):
        p = Proset.from_pairs("012", [("0", "1"), ("1", "2")], close=True)
        assert p.leq("0", "2")

    def test_two_cycle_is_not_a_poset(self):
        p = Proset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")], close=True)
        verdict = p.is_poset()
        assert not verdict and verdict.witness == ("i", "j")

    def test_no_pairs_gives_discrete_order(self):
        p = Proset.from_pairs(("0", "1"), [], close=True)
        assert p.leq("0", "0") and not p.leq("0", "1") and not p.leq("1", "0")

    def test_unclosed_input_must_be_reflexive(self):
        with pytest.raises(ValidationError, match=r"not reflexive: \('a', 'a'\)"):
            Proset.from_pairs(("a", "b"), [("a", "b")], close=False)

    def test_unclosed_input_must_be_transitive(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
        with pytest.raises(ValidationError, match=r"not transitive: \('a', 'c'\)"):
            Proset.from_pairs(("a", "b", "c"), pairs, close=False)

    def test_explicit_preorder_accepted_without_closing(self):
        pairs = [("a", "a"), ("b", "b"), ("a", "b")]
        p = Proset.from_pairs(("a", "b"), pairs, close=False)
        assert p.leq("a", "b")

    @pytest.mark.parametrize("row", [True, False, "1", 1.0, None])
    def test_non_int_rows_rejected(self, row):
        # True is an int, and as the row 1 it would pass as a reflexive row
        with pytest.raises(ValidationError) as exc:
            Proset(("a",), (row,))
        assert str(exc.value) == "relation row out of range at 'a'"
        assert Proset(("a",), (1,)).up == (1,)

    def test_unknown_element_in_pair(self):
        with pytest.raises(ValidationError, match="unknown element"):
            Proset.from_pairs(("a",), [("a", "zz")])

    def test_poset_constructor_rejects_cycles(self):
        with pytest.raises(ValidationError, match="not antisymmetric"):
            Poset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")])

    # rows a = b and c = d repeat; the first violation sits in the repeated
    # row of c, and the message is the one a check of every row gives
    REPEATED_ROWS_NOT_TRANSITIVE = (0b00011, 0b00011, 0b11100, 0b11100, 0b10001)
    REPEATED_ROWS_MESSAGE = (
        "relation not transitive: ('c', 'a') missing (given ('c', 'e') and ('e', 'a'))"
    )

    def test_repeated_rows_report_the_first_violation(self):
        with pytest.raises(ValidationError) as exc:
            Proset(tuple("abcde"), self.REPEATED_ROWS_NOT_TRANSITIVE)
        assert str(exc.value) == self.REPEATED_ROWS_MESSAGE

    def test_repeated_rows_in_a_document_report_the_first_violation(self):
        pairs = [["a", "b"], ["b", "a"], ["c", "d"], ["d", "c"], ["c", "e"], ["d", "e"],
                 ["e", "a"]] + [[x, x] for x in "abcde"]
        text = json.dumps({"kind": "proset", "elements": list("abcde"), "leq_pairs": pairs,
                           "close": False})
        with pytest.raises(ValidationError) as exc:
            load(text)
        assert str(exc.value) == self.REPEATED_ROWS_MESSAGE


class TestValueSemantics:
    @pytest.mark.parametrize(
        "make, field, memo",
        [
            (lambda: Proset.from_pairs("abc", [("a", "b"), ("b", "a")]), "up", "down"),
            (diamond, "elements", "down"),
            (lambda: Poset(elements=("a", "b"), up=(0b11, 0b10)), "up", "_index"),
            (lambda: diamond().reflection()[1], "assignment", None),
            (lambda: MonotoneMap(source=diamond(), target=diamond(), assignment=(0, 1, 2, 3)),
             "source", None),
        ],
        ids=["Proset", "Poset", "Poset-keywords", "MonotoneMap", "MonotoneMap-keywords"],
    )
    def test_equal_hashable_and_frozen(self, make, field, memo):
        helpers.assert_value_semantics(make, field, memo)

    def test_the_class_is_part_of_the_value(self):
        rows = (0b011, 0b010, 0b100)
        proset, poset = Proset(tuple("abc"), rows), Poset(tuple("abc"), rows)
        assert proset != poset and poset != proset
        assert alexandrov_space(poset) != poset
        assert Proset(tuple("abc"), rows) == proset and Poset(tuple("abc"), rows) == poset

    def test_map_construction_still_validates(self):
        p = diamond()
        with pytest.raises(ValidationError, match=r"^assignment must cover every source element$"):
            MonotoneMap(p, p, (0, 1))
        with pytest.raises(ValidationError, match=r"^assignment for '3' lands outside the target$"):
            MonotoneMap(p, p, (0, 1, 2, 4))

    def test_report_reprs(self):
        p = Proset.from_pairs("ab", [("a", "b")])
        assert repr(adjunction_roundtrips(p, alexandrov_space(p))) == (
            "AdjunctionReport(unit_is_identity=True, counit_is_identity=True)"
        )
        assert repr(symbolic_local_finiteness("NatUsual")) == (
            "SymbolicFamily(tag='NatUsual', locally_finite_space=False, "
            "locally_finite_poset=True, space_reason='the up-set [p, oo) of any p is infinite "
            "in the usual order on the naturals', poset_reason='every interval [p, q] in the "
            "usual order on the naturals is finite')"
        )


class TestOrderTopology:
    def test_chain_gives_sierpinski(self):
        p = Proset.from_pairs(("0", "1"), [("0", "1")])
        space = alexandrov_space(p)
        assert helpers.open_masks(space) == [0b00, 0b10, 0b11]

    def test_diamond_min_opens(self):
        space = alexandrov_space(diamond())
        assert space.minimal_open("0") == {"0", "1", "2", "3"}
        assert space.minimal_open("1") == {"1", "3"}
        assert space.minimal_open("2") == {"2", "3"}
        assert space.minimal_open("3") == {"3"}

    def test_antichain_gives_discrete(self):
        p = Proset.from_pairs(("0", "1"), [])
        assert alexandrov_space(p) == FiniteSpace.discrete(("0", "1"))

    def test_opens_are_exactly_up_sets(self):
        for n in range(5):
            for p in enumerate_prosets(n):
                space = alexandrov_space(p)
                for mask in range(1 << n):
                    up_closed = all(
                        not (p.up[i] & ~mask) for i in range(n) if (mask >> i) & 1
                    )
                    assert space.is_open_mask(mask) == up_closed

    def test_specialization_preorder_of_two_point_discrete(self):
        p = specialization_preorder(FiniteSpace.discrete(("0", "1")))
        assert not p.leq("0", "1") and not p.leq("1", "0")

    def test_specialization_preorder_of_sierpinski(self, sierpinski):
        p = specialization_preorder(sierpinski)
        assert p.leq("c", "o") and not p.leq("o", "c")

    def test_specialization_preorder_of_pseudo_circle(self):
        space = FiniteSpace.from_subbasis(
            "abxy", [("a",), ("b",), ("a", "b", "x"), ("a", "b", "y")]
        )
        p = specialization_preorder(space)
        expected = {("x", "a"), ("x", "b"), ("y", "a"), ("y", "b")}
        actual = {
            (a, b)
            for a in space.points
            for b in space.points
            if a != b and p.leq(a, b)
        }
        assert actual == expected


class TestTranslationsKeepValidatedRows:
    """``alexandrov_space`` and ``specialization_preorder`` pass validated
    names and rows to the other type without validating them again, and
    build values equal to, and hashing like, the validated constructors'."""

    def test_no_check_runs_again(self, monkeypatch):
        p = diamond()
        x = FiniteSpace.from_subbasis("abxy", [("a",), ("b",), ("a", "b", "x"), ("a", "b", "y")])

        def refuse(*args, **kwargs):
            raise AssertionError("validated rows were checked again")

        # the one validator of names and rows lives in topology
        monkeypatch.setattr("stratkit.topology.first_intransitive", refuse)
        for module in ("stratkit.topology", "stratkit.order"):
            monkeypatch.setattr(f"{module}.checked_names", refuse)
        assert alexandrov_space(p).min_open == p.up
        assert specialization_preorder(x).up == x.min_open
        with pytest.raises(AssertionError, match="checked again"):
            FiniteSpace(p.elements, p.up)

    @given(
        n=st.integers(0, 130),
        density=st.sampled_from((0.02, 0.1, 0.5)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_results_equal_the_validated_constructors(self, n, density, seed):
        p = generate("preorder", n, {"density": density}, seed).value
        space = alexandrov_space(p)
        validated_space = FiniteSpace(p.elements, p.up)
        assert type(space) is FiniteSpace
        assert space == validated_space and hash(space) == hash(validated_space)
        back = specialization_preorder(space)
        validated_back = Proset(space.points, space.min_open)
        assert type(back) is Proset
        assert back == validated_back and hash(back) == hash(validated_back)
        assert back == p and hash(back) == hash(p)
        # the class is part of the value: equal fields, but a space is no preorder
        assert space != p and p != space and space != back
        assert space.point_closures == back.down


class TestAdjunction:
    def test_two_cycle_roundtrip(self):
        p = Proset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")])
        report = adjunction_roundtrips(p, alexandrov_space(p))
        assert report.unit_is_identity and report.counit_is_identity

    def test_pseudo_circle_roundtrip(self):
        space = FiniteSpace.from_subbasis(
            "abxy", [("a",), ("b",), ("a", "b", "x"), ("a", "b", "y")]
        )
        assert alexandrov_space(specialization_preorder(space)) == space

    def test_exhaustive_on_three_elements(self):
        seen = 0
        for p in enumerate_prosets(3):
            adjunction_roundtrips(p, alexandrov_space(p))
            seen += 1
        assert seen == 29


class TestReflection:
    def test_two_cycle_collapses(self):
        p = Proset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")])
        poset, q = p.reflection()
        assert poset.elements == ("i",)
        assert q.apply("i") == q.apply("j") == "i"
        assert q.is_monotone()

    def test_poset_reflects_to_itself(self):
        d = diamond()
        poset, q = d.reflection()
        assert poset.elements == d.elements and poset.up == d.up
        assert len(set(q.assignment)) == len(d.elements)  # bijection

    def test_three_cycle_collapses(self):
        p = Proset.from_pairs("012", [("0", "1"), ("1", "2"), ("2", "0")])
        poset, _ = p.reflection()
        assert len(poset.elements) == 1

    def test_reflection_idempotent(self):
        for p in enumerate_prosets(3):
            poset, _ = p.reflection()
            again, _ = poset.reflection()
            assert again.elements == poset.elements and again.up == poset.up


class TestNeighborhoods:
    def test_diamond_top(self):
        d = diamond()
        assert d.up_set("3") == {"3"}
        assert d.down_set("3") == {"0", "1", "2", "3"}

    def test_chain_middle(self):
        p = Proset.from_pairs("012", [("0", "1"), ("1", "2")])
        assert p.up_set("1") == {"1", "2"}
        assert p.down_set("1") == {"0", "1"}

    def test_antichain(self):
        p = Proset.from_pairs(("a", "b"), [])
        assert p.up_set("a") == {"a"} and p.down_set("a") == {"a"}

    def test_unknown_element(self):
        with pytest.raises(ValidationError, match="unknown element"):
            diamond().up_set("9")

    def test_up_down_are_min_open_and_min_closed(self):
        for p in enumerate_prosets(3):
            space = alexandrov_space(p)
            for e in p.elements:
                up = space.mask_of(p.up_set(e))
                down = space.mask_of(p.down_set(e))
                assert up == space.min_open[space.point_index(e)]
                assert down == space.closure_mask(1 << space.point_index(e))


class TestSingletonLocalClosure:
    def test_chain_is_poset(self):
        p = Proset.from_pairs("012", [("0", "1"), ("1", "2")])
        assert singleton_local_closure_check(p)

    def test_two_cycle_is_not(self):
        p = Proset.from_pairs(("i", "j"), [("i", "j"), ("j", "i")])
        assert not singleton_local_closure_check(p)
        space = alexandrov_space(p)
        assert not space.is_locally_closed(("i",))

    def test_agreement_on_all_small_prosets(self):
        for n in range(5):
            for p in enumerate_prosets(n):
                singleton_local_closure_check(p)  # raises on disagreement


class TestHasse:
    def test_chain_covers(self):
        p = Poset.from_pairs("012", [("0", "1"), ("1", "2")])
        assert p.hasse() == (("0", "1"), ("1", "2"))

    def test_diamond_covers(self):
        assert diamond().hasse() == (
            ("0", "1"),
            ("0", "2"),
            ("1", "3"),
            ("2", "3"),
        )

    def test_antichain_has_no_covers(self):
        assert Poset.from_pairs(("a", "b"), []).hasse() == ()

    @given(labeled_posets())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_pair_scan(self, p):
        assert p.hasse() == helpers.hasse_by_pair_scan(p)

    def test_closure_of_covers_recovers_the_order(self):
        from stratkit.oracle import enumerate_posets

        for n in range(5):
            for p in enumerate_posets(n):
                rebuilt = Poset.from_pairs(p.elements, p.hasse(), close=True)
                assert rebuilt.up == p.up


class TestMonotoneMap:
    def test_monotone_witness(self):
        chain = Poset.from_pairs(("0", "1"), [("0", "1")])
        anti = Poset.from_pairs(("a", "b"), [])
        f = MonotoneMap.from_names(chain, anti, {"0": "a", "1": "b"})
        verdict = f.is_monotone()
        assert not verdict and verdict.witness == ("0", "1")

    def test_quotient_map_is_monotone(self):
        for p in enumerate_prosets(3):
            _, q = p.reflection()
            assert q.is_monotone()


class TestSymbolicFamilies:
    def test_usual_order_splits_the_notions(self):
        fam = symbolic_local_finiteness("NatUsual")
        assert not fam.locally_finite_space
        assert fam.locally_finite_poset

    def test_discrete_and_opposite(self):
        for tag in ("NatDiscrete", "NatOpposite"):
            fam = symbolic_local_finiteness(tag)
            assert fam.locally_finite_space and fam.locally_finite_poset

    def test_justifications_present(self):
        for tag in ("NatUsual", "NatDiscrete", "NatOpposite"):
            fam = symbolic_local_finiteness(tag)
            assert fam.space_reason and fam.poset_reason

    def test_unknown_tag(self):
        with pytest.raises(ValidationError, match="unknown symbolic family"):
            symbolic_local_finiteness("IntUsual")

    def test_finite_prosets_are_locally_finite_both_ways(self):
        # documented degeneracy: both notions hold identically at finite scale
        for p in enumerate_prosets(3):
            for e in p.elements:
                assert len(p.up_set(e)) < 10**9
                for f in p.elements:
                    assert len(p.up_set(e) & p.down_set(f)) < 10**9


def fixpoint_closure(rows: list[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure by re-scanning every row until nothing changes."""
    rows = [row | 1 << i for i, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            acc = row
            for j, other in enumerate(rows):
                if (row >> j) & 1:
                    acc |= other
            if acc != row:
                rows[i], changed = acc, True
    return tuple(rows)


@st.composite
def relation_rows(draw, max_elements: int = 12) -> list[int]:
    n = draw(st.integers(0, max_elements))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    return [sum(1 << j for j in range(n) if draw(st.floats(0, 1)) < density)
            for _ in range(n)]


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


class TestClosure:
    @pytest.mark.parametrize("shape", ["sparse", "eight", "nine", "dense", "cycles"])
    @pytest.mark.parametrize("n", [63, 64, 65, 150, 300])
    def test_wide_relations_equal_fixpoint(self, n, shape):
        # both closure algorithms: Warshall at 63 rows, components from 64
        rows = wide_relation(n, shape, seed=n)
        closed = reflexive_transitive_closure(rows)
        assert closed == fixpoint_closure(rows)
        assert reflexive_transitive_closure(closed) == closed
        assert reflexive_transitive_closure(iter(rows)) == closed

    @given(relation_rows())
    @settings(max_examples=150, deadline=None)
    def test_warshall_equals_fixpoint(self, rows):
        assert reflexive_transitive_closure(rows) == fixpoint_closure(rows)

    @given(relation_rows(), st.sampled_from(["proset", "poset"]))
    @settings(max_examples=100, deadline=None)
    def test_loaded_documents_are_closed_as_before(self, rows, kind):
        elements = [f"e{i}" for i in range(len(rows))]
        pairs = [[a, elements[j]] for a, row in zip(elements, rows) for j in iter_bits(row)]
        text = json.dumps({"kind": kind, "elements": elements, "leq_pairs": pairs,
                           "close": True})
        expected = fixpoint_closure(rows)
        if kind == "poset" and not Proset(tuple(elements), expected).is_poset():
            with pytest.raises(ValidationError, match="not antisymmetric"):
                load(text)
        else:
            assert load(text).value.up == expected


@st.composite
def renamed_prosets(draw, max_elements: int = 12) -> Proset:
    """Random prosets whose name order is a drawn permutation of their
    index order; the relation is closed from drawn pairs, so two-cycles
    are common."""
    n = draw(st.integers(0, max_elements))
    elements = draw(st.permutations([f"e{i:02d}" for i in range(n)]))
    index_pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    pairs = draw(st.lists(index_pairs, max_size=2 * n))
    return Proset.from_pairs(elements, [(elements[a], elements[b]) for a, b in pairs])


class TestRandomizedLaws:
    @given(renamed_prosets())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_pair_scans(self, p):
        assert p.is_poset() == helpers.is_poset_by_pair_scan(p)
        classes, poset, assignment = helpers.reflection_by_pair_scans(p)
        assert p.equivalence_classes() == classes
        reflected, q = p.reflection()
        assert (reflected, q.source, q.assignment) == (poset, p, assignment)

    @given(renamed_prosets(5), renamed_prosets(4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone_row_test_matches_the_pair_scan(self, source, target, data):
        if not len(target):
            target = Proset.from_pairs(("t",), [])
        n, top = len(source), len(target) - 1
        assignment = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        f = MonotoneMap(source, target, tuple(assignment))
        assert f.is_monotone() == helpers.is_monotone_by_pair_scan(f)

    @given(random_prosets())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, p):
        adjunction_roundtrips(p, alexandrov_space(p))

    @given(random_prosets())
    @settings(max_examples=60, deadline=None)
    def test_reflection_produces_poset(self, p):
        poset, q = p.reflection()
        assert poset.is_poset()
        assert q.is_monotone()
        # reflecting again changes nothing
        again, _ = poset.reflection()
        assert again == poset
