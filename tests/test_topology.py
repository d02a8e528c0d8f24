from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stratkit import (
    FiniteSpace, MonotoneMap, Poset, Proset, SpaceMap, ValidationError, Verdict, final_topology,
    fixture, fixture_names, load,
)
from stratkit.fixtures import fixture_space

# the fixtures that carry a finite space: a space, or a decomposition's
SPACE_FIXTURES = [
    name for name in fixture_names() if fixture(name).document.kind in ("space", "decomposition")
]


def pseudo_circle_space() -> FiniteSpace:
    return FiniteSpace.from_subbasis(
        "abxy", [("a",), ("b",), ("a", "b", "x"), ("a", "b", "y")]
    )


def line_3_space() -> FiniteSpace:
    return FiniteSpace.from_min_open(
        ("m", "z", "p"), {"m": ("m",), "z": ("m", "z", "p"), "p": ("p",)}
    )


@st.composite
def random_spaces(draw, max_points: int = 5) -> FiniteSpace:
    n = draw(st.integers(0, max_points))
    points = tuple(f"p{i}" for i in range(n))
    if n == 0:
        return FiniteSpace.empty()
    gens = draw(
        st.lists(st.lists(st.sampled_from(points), unique=True, max_size=n), max_size=6)
    )
    return FiniteSpace.from_subbasis(points, gens)


class TestConstruction:
    def test_subbasis_sierpinski(self):
        s = FiniteSpace.from_subbasis(("c", "o"), [("o",)])
        assert s.minimal_open("c") == {"c", "o"}
        assert s.minimal_open("o") == {"o"}

    def test_subbasis_pseudo_circle(self):
        s = pseudo_circle_space()
        assert s.minimal_open("x") == {"a", "b", "x"}
        assert s.minimal_open("y") == {"a", "b", "y"}
        assert s.minimal_open("a") == {"a"}

    def test_subbasis_empty_generators(self):
        s = FiniteSpace.from_subbasis(("p",), [])
        assert s.minimal_open("p") == {"p"}

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValidationError, match="duplicate point"):
            FiniteSpace.from_subbasis(("a", "a"), [])

    def test_unknown_generator_point_rejected(self):
        with pytest.raises(ValidationError, match="unknown point"):
            FiniteSpace.from_subbasis(("a",), [("b",)])

    def test_invalid_min_open_rejected(self):
        with pytest.raises(ValidationError, match="reflexivity"):
            FiniteSpace(("a", "b"), (2, 2))
        # b in U_a but U_b escapes U_a
        with pytest.raises(ValidationError, match="transitivity"):
            FiniteSpace(("a", "b", "c"), (0b011, 0b110, 0b100))

    # U_a = U_b and U_c = U_d repeat; the first violation is in the repeated
    # row of c, and the message is the one a check of every row gives
    REPEATED_ROWS = {"a": ["a", "b"], "b": ["b", "a"], "c": ["c", "d", "e"],
                     "d": ["d", "e", "c"], "e": ["e", "a"]}

    def test_repeated_rows_report_the_first_violation(self):
        message = "min_open violates transitivity at ('c', 'e')"
        with pytest.raises(ValidationError) as exc:
            FiniteSpace(tuple("abcde"), (0b00011, 0b00011, 0b11100, 0b11100, 0b10001))
        assert str(exc.value) == message
        with pytest.raises(ValidationError) as exc:
            FiniteSpace.from_min_open("abcde", self.REPEATED_ROWS)
        assert str(exc.value) == message
        text = json.dumps({"kind": "space", "points": list("abcde"),
                           "min_open": self.REPEATED_ROWS})
        with pytest.raises(ValidationError) as exc:
            load(text)
        assert str(exc.value) == message

    def test_unknown_point_in_a_repeated_list_rejected(self):
        table = {"a": ["a", "b", "zz"], "b": ["a", "b", "zz"]}
        with pytest.raises(ValidationError) as exc:
            FiniteSpace.from_min_open(("a", "b"), table)
        assert str(exc.value) == "min_open mentions unknown point: 'zz'"

    @pytest.mark.parametrize("row", [True, False, "1", 1.0, None])
    def test_non_int_rows_rejected(self, row):
        # True is an int, and as the mask 1 it would pass as a reflexive row
        with pytest.raises(ValidationError) as exc:
            FiniteSpace(("a",), (row,))
        assert str(exc.value) == "min_open mask out of range for point 'a'"
        assert FiniteSpace(("a",), (1,)).min_open == (1,)

    def test_empty_space_is_legal(self):
        s = FiniteSpace.empty()
        assert s.is_open(()) and s.is_closed(())
        assert s.closure(()) == frozenset()


class TestValueSemantics:
    @pytest.mark.parametrize(
        "make, field, memo",
        [
            (line_3_space, "min_open", "point_closures"),
            (lambda: FiniteSpace(points=("a", "b"), min_open=(0b11, 0b10)), "points", "_index"),
            (lambda: SpaceMap.identity(line_3_space()), "assignment", "_fibers"),
            (lambda: SpaceMap(source=line_3_space(), target=FiniteSpace.discrete("x"),
                              assignment=(0, 0, 0)), "target", "_fibers"),
        ],
        ids=["FiniteSpace", "FiniteSpace-keywords", "SpaceMap", "SpaceMap-keywords"],
    )
    def test_equal_hashable_and_frozen(self, make, field, memo):
        helpers.assert_value_semantics(make, field, memo)

    def test_fields_decide_equality(self):
        space = line_3_space()
        assert space != pseudo_circle_space() and space != FiniteSpace.discrete(space.points)
        assert space != (space.points, space.min_open)
        to_line = SpaceMap.from_names(space, space, {"m": "m", "z": "z", "p": "z"})
        assert to_line != SpaceMap.identity(space)

    def test_assignment_messages(self):
        space = line_3_space()
        with pytest.raises(AttributeError, match=r"^cannot assign to field 'points'$"):
            space.points = ()
        with pytest.raises(AttributeError, match=r"^cannot delete field 'point_closures'$"):
            del space.point_closures

    def test_map_construction_still_validates(self):
        space = line_3_space()
        with pytest.raises(ValidationError, match=r"^assignment must cover every source point$"):
            SpaceMap(space, space, (0, 1))
        with pytest.raises(ValidationError, match=r"^assignment for 'p' lands outside the target$"):
            SpaceMap(space, space, (0, 1, 3))

    def test_maps_refuse_the_wrong_value_type(self):
        # each map type takes its own values, checked before the assignment
        space, preorder = FiniteSpace(("a", "b"), (1, 2)), Proset(("a", "b"), (1, 2))
        order = Poset(("a", "b"), (1, 2))
        for map_type, source, target, message in [
            (SpaceMap, preorder, preorder, "SpaceMap source must be a FiniteSpace, got Proset"),
            (SpaceMap, space, order, "SpaceMap target must be a FiniteSpace, got Poset"),
            (SpaceMap, space, 3, "SpaceMap target must be a FiniteSpace, got int"),
            (MonotoneMap, space, space, "MonotoneMap source must be a Proset, got FiniteSpace"),
            (MonotoneMap, order, space, "MonotoneMap target must be a Proset, got FiniteSpace"),
            (MonotoneMap, None, order, "MonotoneMap source must be a Proset, got NoneType"),
        ]:
            for assignment in [(0, 1), (0,)]:
                with pytest.raises(ValidationError) as exc:
                    map_type(source, target, assignment)
                assert str(exc.value) == message
            # from_names checks both ends first, with the constructor's message
            with pytest.raises(ValidationError) as exc:
                map_type.from_names(source, target, {"a": "a", "b": "b"})
            assert str(exc.value) == message
            # a mapping that is not a Mapping is refused before the ends are checked
            with pytest.raises(ValidationError, match=r"^mapping must be a Mapping, got tuple$"):
                map_type.from_names(source, target, ("a", "b"))
        # a poset is a proset
        assert MonotoneMap(order, preorder, (0, 1)).is_monotone()
        assert MonotoneMap.from_names(preorder, order, {"a": "b", "b": "a"}).apply("a") == "b"

    @pytest.mark.parametrize(
        "map_type, make, member",
        [
            (SpaceMap, line_3_space, "point"),
            (MonotoneMap, lambda: Poset.from_pairs("mzp", [("m", "z"), ("p", "z")]), "element"),
        ],
        ids=["SpaceMap", "MonotoneMap"],
    )
    def test_from_names_shared_by_both_map_types(self, map_type, make, member):
        src = make()
        good = {"m": "m", "z": "z", "p": "z"}
        f = map_type.from_names(src, src, good)
        assert repr(f) == f"{map_type.__name__}(m->m, z->z, p->z)" and f.apply("p") == "z"
        assert f.image_mask(0b101) == 0b011 and f.preimage_mask(0b010) == 0b110
        refused = [
            ({"m": "m", "z": "z"}, f"assignment missing source {member} 'p'"),
            ({**good, "p": "q"}, f"unknown {member}: 'q'"),
            ({**good, "zz": "m"}, f"unknown {member}: 'zz'"),
            # the first error in source order wins over an unknown extra key
            ({"m": "m", "zz": "m"}, f"assignment missing source {member} 'z'"),
            ({"m": "q", "zz": "m"}, f"unknown {member}: 'q'"),
            # a list of names is not read as a mapping from their positions
            (["m", "z", "p"], "mapping must be a Mapping, got list"),
        ]
        for mapping, message in refused:
            with pytest.raises(ValidationError) as exc:
                map_type.from_names(src, src, mapping)
            assert str(exc.value) == message

    def test_verdict_repr_and_truth(self):
        assert repr(Verdict(True)) == "Verdict(holds=True, witness=None, note='')"
        assert repr(Verdict(False, witness=("a", "b"), note="two-cycle")) == (
            "Verdict(holds=False, witness=('a', 'b'), note='two-cycle')"
        )
        assert not Verdict(False) and not Verdict(False, "w", "n") and Verdict(True)


class TestRelationMessages:
    """``FiniteSpace`` and ``Proset`` validate the same data, names and one
    reflexive, transitive bit row per name, and name each fault in their
    own words. The checks run names, length, each row's range and
    diagonal, then transitivity; the first fault found is reported."""

    # (names, rows, the space's message, the preorder's message)
    TABLE = {
        "non-string name": (("a", 1), (1, 2), "point names must be nonempty strings, got 1",
                            "element names must be nonempty strings, got 1"),
        "empty name": (("a", ""), (1, 2), "point names must be nonempty strings, got ''",
                       "element names must be nonempty strings, got ''"),
        "duplicate name": (("a", "a"), (1, 2), "duplicate point names: 'a'",
                           "duplicate element names: 'a'"),
        "duplicate before length": (("a", "a"), (1,), "duplicate point names: 'a'",
                                    "duplicate element names: 'a'"),
        "length mismatch": (("a", "b"), (1,), "min_open must assign a neighborhood to every point",
                            "relation must have a row for every element"),
        "bool": (("a",), (True,), "min_open mask out of range for point 'a'",
                 "relation row out of range at 'a'"),
        "false": (("a",), (False,), "min_open mask out of range for point 'a'",
                  "relation row out of range at 'a'"),
        "string row": (("a",), ("1",), "min_open mask out of range for point 'a'",
                       "relation row out of range at 'a'"),
        "negative": (("a", "b"), (1, -2), "min_open mask out of range for point 'b'",
                     "relation row out of range at 'b'"),
        "oversized": (("a", "b"), (1, 4), "min_open mask out of range for point 'b'",
                      "relation row out of range at 'b'"),
        "missing diagonal": (("a", "b"), (1, 1), "min_open violates reflexivity at 'b'",
                             "relation not reflexive: ('b', 'b') missing"),
        "diagonal before bool": (("a", "b"), (2, True), "min_open violates reflexivity at 'a'",
                                 "relation not reflexive: ('a', 'a') missing"),
        "intransitive, repeated first row": (
            tuple("abcd"), (0b0111, 0b0111, 0b1100, 0b1000),
            "min_open violates transitivity at ('a', 'c')",
            "relation not transitive: ('a', 'd') missing (given ('a', 'c') and ('c', 'd'))"),
        "intransitive, repeated later row": (
            tuple("abcde"), (0b00001, 0b01110, 0b01110, 0b11000, 0b10000),
            "min_open violates transitivity at ('b', 'd')",
            "relation not transitive: ('b', 'e') missing (given ('b', 'd') and ('d', 'e'))"),
    }

    @pytest.mark.parametrize("case", TABLE)
    def test_construction_messages(self, case):
        names, rows, space_message, order_message = self.TABLE[case]
        for cls, message in ((FiniteSpace, space_message), (Proset, order_message),
                             (Poset, order_message)):
            with pytest.raises(ValidationError) as exc:
                cls(names, rows)
            assert str(exc.value) == message

    def test_lookup_and_antisymmetry_messages(self):
        space, order = FiniteSpace(("a",), (1,)), Proset(("a",), (1,))
        lookups = [
            (lambda: space.point_index("z"), "unknown point: 'z'"),
            (lambda: space.mask_of(["a", "z"]), "unknown point: 'z'"),
            (lambda: space.minimal_open("z"), "unknown point: 'z'"),
            (lambda: order.element_index("z"), "unknown element: 'z'"),
            (lambda: order.leq("a", "z"), "unknown element: 'z'"),
            (lambda: order.up_set("z"), "unknown element: 'z'"),
            (lambda: order.down_set("z"), "unknown element: 'z'"),
            (lambda: Poset(("a", "b"), (3, 3)),
             "relation not antisymmetric: ('a', 'b') and ('b', 'a') both present"),
            (lambda: Poset(("b", "a", "c"), (7, 7, 4)),
             "relation not antisymmetric: ('a', 'b') and ('b', 'a') both present"),
        ]
        for call, message in lookups:
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message

    def test_equality_stays_by_class(self):
        names, rows = ("a", "b"), (0b01, 0b10)
        space, preorder, order = FiniteSpace(names, rows), Proset(names, rows), Poset(names, rows)
        assert space != preorder and preorder != space
        assert preorder != order and order != preorder
        assert space != order and order != space

    def test_length_and_names_are_shared(self):
        names, rows = ("a", "b", "c"), (0b011, 0b010, 0b110)
        for value in (FiniteSpace(names, rows), Proset(names, rows)):
            assert len(value) == 3 and value.names_of(0b101) == frozenset({"a", "c"})

    @pytest.mark.parametrize(
        "map_type, make",
        [(SpaceMap, FiniteSpace), (MonotoneMap, Proset)],
        ids=["SpaceMap", "MonotoneMap"],
    )
    def test_maps_refuse_bool_targets(self, map_type, make):
        # True is an int, and as the index 1 it would land inside the target
        src = make(("a", "b"), (1, 2))
        for assignment, bad in [((True, False), "a"), ((0, False), "b"), ((0, 1.0), "b")]:
            with pytest.raises(ValidationError) as exc:
                map_type(src, src, assignment)
            assert str(exc.value) == f"assignment for {bad!r} lands outside the target"
        assert map_type(src, src, (1, 0)).apply("a") == "b"


class TestPointSetOperations:
    def test_minimal_open_line(self):
        assert line_3_space().minimal_open("z") == {"m", "z", "p"}

    def test_minimal_open_unknown_point(self):
        with pytest.raises(ValidationError, match="unknown point"):
            line_3_space().minimal_open("q")

    def test_closure_examples(self):
        sier = FiniteSpace.from_subbasis(("c", "o"), [("o",)])
        assert sier.closure(("o",)) == {"c", "o"}
        assert pseudo_circle_space().closure(("a", "x")) == {"a", "x", "y"}
        assert line_3_space().closure(("p",)) == {"z", "p"}

    def test_closure_unknown_point(self):
        with pytest.raises(ValidationError, match="unknown point"):
            line_3_space().closure(("q",))

    @pytest.mark.parametrize("name", SPACE_FIXTURES)
    def test_interior_is_the_complement_of_the_closure_of_the_complement(self, name):
        space = fixture_space(name)
        points = frozenset(space.points)
        for size in range(len(points) + 1):
            for names in combinations(sorted(points), size):
                assert space.interior(names) == points - space.closure(points - set(names))

    def test_closure_is_smallest_closed_superset(self):
        for space in helpers.all_spaces(3):
            for mask in range(1 << len(space.points)):
                assert space.closure_mask(mask) == helpers.brute_closure_mask(space, mask)

    def test_closure_laws_exhaustive(self):
        for space in helpers.all_spaces(3):
            full = space.full_mask
            for s in range(1 << len(space.points)):
                c = space.closure_mask(s)
                assert not s & ~c  # extensive
                assert space.closure_mask(c) == c  # idempotent
                for t in range(1 << len(space.points)):
                    if not s & ~t:
                        assert not c & ~space.closure_mask(t)  # monotone
                assert space.interior_mask(s) == full & ~space.closure_mask(full & ~s)

    @given(st.integers(0, 200), st.data())
    def test_names_of_lists_the_set_bits(self, n, data):
        space = FiniteSpace.discrete(tuple(f"p{i}" for i in range(n)))
        mask = data.draw(st.integers(0, space.full_mask))
        names = space.names_of(mask)
        assert names == {space.points[i] for i in range(n) if mask >> i & 1}
        assert space.mask_of(names) == mask

    MASK_METHODS = ("is_open_mask", "is_closed_mask", "closure_mask", "interior_mask",
                    "open_hull_mask")

    def test_mask_out_of_range_examples(self):
        space = FiniteSpace.discrete("abc")
        for method in self.MASK_METHODS:
            for mask in (-1, 8):
                with pytest.raises(ValidationError, match=rf"^point mask {mask} out of range"):
                    getattr(space, method)(mask)
        assert [getattr(space, method)(7) for method in self.MASK_METHODS] == [
            True, True, 7, 7, 7
        ]

    @given(random_spaces(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_masks_outside_the_points_are_refused(self, space, data):
        n = len(space.points)
        mask = data.draw(st.integers(max_value=-1) | st.integers(min_value=1 << n))
        for method in self.MASK_METHODS:
            with pytest.raises(ValidationError, match="out of range"):
                getattr(space, method)(mask)
        inside = data.draw(st.integers(0, space.full_mask))
        for method in self.MASK_METHODS:
            getattr(space, method)(inside)  # accepted

    def test_frontier(self):
        assert line_3_space().frontier(("p",)) == {"z"}

    def test_locally_closed_examples(self):
        line = line_3_space()
        assert line.is_locally_closed(("m", "z"))
        chain = FiniteSpace.from_min_open(
            ("c0", "c1", "c2"),
            {"c0": ("c0", "c1", "c2"), "c1": ("c1", "c2"), "c2": ("c2",)},
        )
        assert not chain.is_locally_closed(("c0", "c2"))
        assert line.is_locally_closed(line.points)

    def test_locally_closed_matches_brute_force(self):
        for space in helpers.all_spaces(3):
            for mask in range(1 << len(space.points)):
                names = space.names_of(mask)
                verdict = space.is_locally_closed(names)
                assert verdict.holds == helpers.brute_locally_closed(space, mask)
                if verdict.holds:
                    witness = space.mask_of(verdict.witness)
                    assert space.is_open_mask(witness)
                    assert witness & space.closure_mask(mask) == mask

    def test_locally_closed_iff_open_in_closure_subspace(self):
        for space in helpers.all_spaces(3):
            for mask in range(1 << len(space.points)):
                names = space.names_of(mask)
                sub = space.subspace(space.closure(names))
                assert bool(space.is_locally_closed(names)) == sub.is_open(names)

    def test_open_family_is_a_topology(self):
        for space in helpers.all_spaces(3):
            opens = set(helpers.open_masks(space))
            assert 0 in opens and space.full_mask in opens
            for a in opens:
                for b in opens:
                    assert a | b in opens and a & b in opens

    def test_regeneration_from_own_minimal_opens(self):
        for space in helpers.all_spaces(3):
            gens = [space.names_of(row) for row in space.min_open]
            assert FiniteSpace.from_subbasis(space.points, gens) == space

    def test_t0(self):
        assert line_3_space().is_t0()
        assert not FiniteSpace(("a", "b"), (3, 3)).is_t0()


class TestSubspace:
    def test_sierpinski_open_point(self, sierpinski):
        sub = sierpinski.subspace(("o",))
        assert sub.points == ("o",) and sub.min_open == (1,)

    def test_pseudo_circle_pair(self):
        sub = pseudo_circle_space().subspace(("a", "x"))
        assert sub.minimal_open("x") == {"a", "x"}
        assert sub.minimal_open("a") == {"a"}

    def test_empty_subspace(self):
        assert pseudo_circle_space().subspace(()) == FiniteSpace.empty()

    def test_unknown_point(self):
        with pytest.raises(ValidationError, match="unknown point"):
            pseudo_circle_space().subspace(("q",))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_subspace_matches_the_per_bit_reference(self, data):
        space = data.draw(random_spaces(max_points=12), label="space")
        names = data.draw(st.sets(st.sampled_from(space.points)) if space.points else st.just(()))
        assert space.subspace(names) == helpers.subspace_by_bits(space, names)

    @pytest.mark.parametrize("n", [65, 300])
    def test_wide_subspaces_match_the_per_bit_reference(self, n):
        rng = random.Random(n)
        space = FiniteSpace(tuple(f"p{i}" for i in range(n)), wide_preorder(n, "mixed", seed=2))
        for _ in range(4):
            names = rng.sample(space.points, rng.randrange(n + 1))
            assert space.subspace(names) == helpers.subspace_by_bits(space, names)


class TestSpaceMap:
    def test_identity_is_continuous_open_and_closed(self):
        for space in helpers.all_spaces(2):
            ident = SpaceMap.identity(space)
            assert ident.is_continuous() and ident.is_open() and ident.is_closed()

    def test_preimage_is_the_points_mapped_into_the_set(self):
        source, target = FiniteSpace.discrete("abcd"), FiniteSpace.discrete("xyz")
        for code in range(3**4):
            asg = (code % 3, code // 3 % 3, code // 9 % 3, code // 27)
            f = SpaceMap(source, target, asg)
            for mask in range(1 << 3):
                expected = sum(1 << i for i, t in enumerate(asg) if (mask >> t) & 1)
                assert f.preimage_mask(mask) == expected

    def test_line_quotient_map(self, sierpinski):
        # m, z to the closed point; p to the open point
        line = line_3_space()
        f = SpaceMap.from_names(line, sierpinski, {"m": "c", "z": "c", "p": "o"})
        assert f.is_continuous()
        assert not f.is_open()

    def test_constant_map_from_discrete(self, sierpinski):
        two = FiniteSpace.discrete(("0", "1"))
        f = SpaceMap.from_names(two, sierpinski, {"0": "c", "1": "c"})
        assert f.is_continuous()
        assert f.is_closed()

    def test_checks_are_methods_without_a_mode_string(self):
        f = SpaceMap.identity(FiniteSpace.empty())
        assert not hasattr(f, "check")
        assert [f.is_continuous(), f.is_open(), f.is_closed()] == [Verdict(True)] * 3

    def test_assignment_must_be_total(self, sierpinski):
        with pytest.raises(ValidationError, match="missing source point"):
            SpaceMap.from_names(sierpinski, sierpinski, {"c": "c"})

    def test_checks_match_brute_force_exhaustively(self):
        spaces = list(helpers.all_spaces(3))
        for src in spaces:
            for tgt in spaces:
                n_s, n_t = len(src.points), len(tgt.points)
                if n_s and not n_t:
                    continue
                total = n_t**n_s if n_s else 1
                for code in range(total):
                    asg, c = [], code
                    for _ in range(n_s):
                        asg.append(c % n_t)
                        c //= n_t
                    f = SpaceMap(src, tgt, tuple(asg))
                    cont, opn, cls = helpers.brute_map_checks(f)
                    assert f.is_continuous().holds == cont
                    assert f.is_open().holds == opn
                    assert f.is_closed().holds == cls
                    if cont and opn:
                        # preimage and closure then commute on every subset
                        for b in range(1 << n_t):
                            assert f.preimage_mask(
                                tgt.closure_mask(b)
                            ) == src.closure_mask(f.preimage_mask(b))


class TestFinalTopology:
    def test_single_quotient_map(self):
        line = line_3_space()
        result = final_topology(
            ("0", "1"), [(line, {"m": "0", "z": "0", "p": "1"})]
        )
        assert helpers.open_masks(result) == [0b00, 0b10, 0b11]

    def test_open_cover_recovers_pseudo_circle(self):
        space = pseudo_circle_space()
        family = []
        for member in ({"a", "b", "x"}, {"a", "b", "y"}):
            sub = space.subspace(member)
            family.append((sub, {p: p for p in sub.points}))
        assert final_topology(space.points, family) == space

    def test_empty_family_gives_discrete(self):
        assert final_topology(("0", "1"), []) == FiniteSpace.discrete(("0", "1"))

    def test_guard(self):
        with pytest.raises(ValidationError, match="guard"):
            final_topology([f"p{i}" for i in range(21)], [])

    def test_assignment_outside_target(self):
        line = line_3_space()
        with pytest.raises(ValidationError, match="outside the target"):
            final_topology(("0",), [(line, {"m": "0", "z": "0", "p": "oops"})])


class TestRandomizedLaws:
    @given(random_spaces())
    @settings(max_examples=60, deadline=None)
    def test_closure_laws(self, space):
        for mask in range(min(1 << len(space.points), 64)):
            c = space.closure_mask(mask)
            assert not mask & ~c
            assert space.closure_mask(c) == c
            assert space.interior_mask(mask) == space.full_mask & ~space.closure_mask(
                space.full_mask & ~mask
            )

    @given(random_spaces())
    @settings(max_examples=60, deadline=None)
    def test_regeneration(self, space):
        gens = [space.names_of(row) for row in space.min_open]
        assert FiniteSpace.from_subbasis(space.points, gens) == space

    @given(random_spaces(max_points=4))
    @settings(max_examples=40, deadline=None)
    def test_locally_closed_brute(self, space):
        for mask in range(1 << len(space.points)):
            assert space.is_locally_closed(
                space.names_of(mask)
            ).holds == helpers.brute_locally_closed(space, mask)


# -- the bit-row kernel against per-bit definitions ---------------------------
#
# The references below read one bit at a time and share nothing with the
# kernel in ``topology`` (``preimage_of``, ``transpose``,
# ``first_intransitive``) that the space and order operations call.


def bit(mask: int, i: int) -> bool:
    return bool(mask >> i & 1)


def reference_is_open(rows, mask) -> bool:
    n = len(rows)
    return all(bit(mask, j) for i in range(n) if bit(mask, i) for j in range(n) if bit(rows[i], j))


def reference_closure(rows, mask) -> int:
    n = len(rows)
    return sum(1 << x for x in range(n) if any(bit(rows[x], i) and bit(mask, i) for i in range(n)))


def reference_open_hull(rows, mask) -> int:
    n = len(rows)
    return sum(1 << j for j in range(n) if any(bit(mask, i) and bit(rows[i], j) for i in range(n)))


def reference_columns(rows) -> tuple[int, ...]:
    n = len(rows)
    return tuple(sum(1 << i for i in range(n) if bit(rows[i], j)) for j in range(n))


def reference_first_intransitive(rows):
    """The first (i, j), rows in order and bits lowest first, with j in
    row i but row j not inside row i."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if bit(rows[i], j) and any(bit(rows[j], k) and not bit(rows[i], k) for k in range(n)):
                return i, j
    return None


def assert_kernel_matches_definitions(rows, masks) -> None:
    from stratkit import Proset

    n = len(rows)
    space = FiniteSpace(tuple(f"p{i}" for i in range(n)), rows)
    columns = reference_columns(rows)
    assert space.point_closures == columns
    assert Proset(space.points, rows).down == columns
    for mask in masks:
        assert space.is_open_mask(mask) == reference_is_open(rows, mask)
        assert space.closure_mask(mask) == reference_closure(rows, mask)
        assert space.open_hull_mask(mask) == reference_open_hull(rows, mask)


@st.composite
def closed_relations(draw, max_points: int = 12) -> tuple[int, ...]:
    """A random relation on up to 12 points, reflexively and transitively closed."""
    from stratkit.order import reflexive_transitive_closure

    n = draw(st.integers(0, max_points))
    return reflexive_transitive_closure(
        draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    )


@st.composite
def relations(draw, max_points: int = 12) -> tuple[int, ...]:
    """A random relation on up to 12 points, reflexive or not."""
    n = draw(st.integers(0, max_points))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [row | 1 << i for i, row in enumerate(rows)]
    return tuple(rows)


WIDE_SHAPES = ("sparse", "dense", "classes", "mixed")


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


def masks_around_the_rule(n: int, seed: int) -> list[int]:
    """Masks on n points with 0, 1 and all bits, and with bit counts on
    both sides of ``preimage_of``'s crossover (more than (n + 128) / 16)."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    crossover = (n + 128) // 16
    masks = [0, 1, 1 << n - 1, full]
    for weight in (crossover - 1, crossover, crossover + 1, crossover + 2, n // 2, n - 1):
        if 0 <= weight <= n:
            masks.append(sum(1 << i for i in rng.sample(range(n), weight)))
    return masks


def first_missing_pair(rows) -> tuple[int, int, int]:
    """The reference's first (i, j) with j in row i and row j not inside
    row i, and the lowest k in row j missing from row i."""
    i, j = reference_first_intransitive(rows)
    k = next(k for k in range(len(rows)) if bit(rows[j], k) and not bit(rows[i], k))
    return i, j, k


class TestBitRowKernel:
    def test_every_preorder_up_to_4_points(self):
        from stratkit.oracle import labeled_preorder_rows

        for n in range(5):
            for rows in labeled_preorder_rows(n):
                assert_kernel_matches_definitions(rows, range(1 << n))

    @given(closed_relations(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_preorders_up_to_12_points(self, rows, data):
        full = (1 << len(rows)) - 1
        drawn = data.draw(st.lists(st.integers(0, full), max_size=8))
        assert_kernel_matches_definitions(rows, [0, full, *drawn])

    def test_first_intransitive_on_every_small_relation(self):
        from stratkit import topology

        for n in range(4):
            for code in range(1 << (n * n)):
                rows = tuple(code >> (i * n) & ((1 << n) - 1) for i in range(n))
                assert topology.first_intransitive(rows) == reference_first_intransitive(rows)

    @given(relations())
    @settings(max_examples=200, deadline=None)
    def test_first_intransitive_on_random_relations(self, rows):
        from stratkit import topology

        assert topology.first_intransitive(rows) == reference_first_intransitive(rows)

    @given(closed_relations())
    @settings(max_examples=60, deadline=None)
    def test_first_intransitive_is_none_on_transitive_relations(self, rows):
        from stratkit import topology

        assert topology.first_intransitive(rows) is None

    # -- wide relations: both sides of every size rule of the kernel ---------
    #
    # ``preimage_of`` ORs the selected rows in one C call once a mask has
    # more than (n + 128) / 16 bits on more than 64 rows, and ``transpose``
    # reads columns off a digit string once the distinct rows of more than
    # 64 points hold more than n * (n + 256) / 128 bits. The sparse shape
    # stays below that, the dense ones above it, and the masks sit on both
    # sides of the first rule.

    @pytest.mark.parametrize("shape", WIDE_SHAPES)
    @pytest.mark.parametrize("n", [64, 65, 130, 300])
    def test_wide_preorders_match_definitions(self, n, shape):
        rows = wide_preorder(n, shape, seed=n)
        assert_kernel_matches_definitions(rows, masks_around_the_rule(n, seed=n))

    @pytest.mark.parametrize("shape", WIDE_SHAPES)
    @pytest.mark.parametrize("n", [65, 300])
    def test_wide_preimages_of_fibers(self, n, shape):
        # a map's fibers: more rows than columns, or fewer
        from stratkit import topology

        rows = wide_preorder(n, shape, seed=7)
        for width in (n // 3, 2 * n):
            fibers = tuple(row & (1 << width) - 1 for row in rows)
            for mask in masks_around_the_rule(n, seed=width):
                expected = 0
                for i in range(n):
                    if bit(mask, i):
                        expected |= fibers[i]
                assert topology.preimage_of(fibers, mask) == expected

    @pytest.mark.parametrize("shape", WIDE_SHAPES)
    @pytest.mark.parametrize("n", [65, 100])
    def test_first_intransitive_on_wide_relations(self, n, shape):
        from stratkit import topology

        rows = wide_preorder(n, shape, seed=n)
        assert topology.first_intransitive(rows) is None
        rng = random.Random(n)
        for _ in range(6):
            broken = list(rows)
            i, j = rng.sample(range(n), 2)
            broken[i] ^= 1 << j  # add or drop the pair (i, j)
            assert topology.first_intransitive(broken) == reference_first_intransitive(broken)

    @pytest.mark.parametrize("n", [65, 100])
    def test_wide_intransitive_relations_are_refused_by_name(self, n):
        # the witness pair in the message is the reference's first pair
        from stratkit import Proset

        rows = list(wide_preorder(n, "dense", seed=3))
        widest = max(range(n), key=lambda i: (rows[i].bit_count(), -i))
        narrowest = min(range(n), key=lambda i: (rows[i].bit_count(), i))
        rows[narrowest] |= 1 << widest  # a narrow row now reaches the widest one
        points = tuple(f"p{i}" for i in range(n))
        a, b, c = (points[x] for x in first_missing_pair(rows))
        with pytest.raises(ValidationError) as space_error:
            FiniteSpace(points, tuple(rows))
        assert str(space_error.value) == f"min_open violates transitivity at ({a!r}, {b!r})"
        with pytest.raises(ValidationError) as order_error:
            Proset(points, tuple(rows))
        assert str(order_error.value) == (
            f"relation not transitive: ({a!r}, {c!r}) missing "
            f"(given ({a!r}, {b!r}) and ({b!r}, {c!r}))"
        )

    # -- fewer than 65 rows: the C pass takes a mask above 0xFFF with more
    # than (n + 128) / 16 bits at any row count

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_preimage_below_65_rows_matches_the_per_bit_reference(self, data):
        from stratkit import topology

        n = data.draw(st.integers(1, 64), label="rows")
        width = data.draw(st.integers(1, 2 * n), label="columns")  # fibers: more or fewer
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        if data.draw(st.booleans(), label="one bit a row"):  # each selected row shows
            rows = [1 << rng.randrange(width) for _ in range(n)]
        else:
            rows = [rng.getrandbits(width) for _ in range(n)]
        crossover = (n + 128) // 16
        near = st.integers(min(n, max(0, crossover - 2)), min(n, crossover + 3))
        weight = data.draw(near | st.integers(0, n), label="bits")
        positions = data.draw(st.permutations(range(n)))[:weight]
        mask = sum(1 << i for i in positions)
        container = data.draw(st.sampled_from((tuple, list)))
        assert topology.preimage_of(container(rows), mask) == helpers.preimage_by_bits(rows, mask)
        beyond = data.draw(st.integers(n, 2 * n + 64), label="bit beyond the rows")
        with pytest.raises(IndexError):
            topology.preimage_of(container(rows), mask | 1 << beyond)

    def test_c_pass_below_65_rows_takes_only_wide_masks_above_0xfff(self, monkeypatch):
        from stratkit import topology

        passes = []
        flags = topology._bit_flags
        monkeypatch.setattr(topology, "_bit_flags", lambda mask: passes.append(mask) or flags(mask))
        rows = tuple(1 << (i + 1) % 64 for i in range(64))
        for n, mask, c_pass in [
            (13, 0x1FFF, True),  # 13 bits on 13 rows: more than 141 / 16
            (13, 0x1F0F, True),  # 9 bits
            (13, 0x1F07, False),  # 8 bits
            (64, 0xFFF, False),  # 12 bits, but no larger than 0xFFF
            (64, 0x1FFF, True),  # 13 bits: more than 192 / 16
            (64, 0x1FFE, False),  # 12 bits
            (64, 1 << 63 | 0xFFF, True),
        ]:
            passes.clear()
            assert topology.preimage_of(rows[:n], mask) == helpers.preimage_by_bits(rows[:n], mask)
            assert passes == ([mask] if c_pass else []), (n, hex(mask))

    @pytest.mark.parametrize("n", [3, 64, 65, 300])
    @pytest.mark.parametrize("container", [tuple, list])
    def test_out_of_range_masks_raise_index_error_alike(self, n, container):
        from stratkit import topology

        rows = container(wide_preorder(n, "classes", seed=1))
        full = (1 << n) - 1
        with pytest.raises(IndexError) as narrow:
            topology.preimage_of(rows, 1 << n)
        for mask in (full | 1 << n, full << 1, -1, -full, full | 1 << 2 * n):
            with pytest.raises(IndexError) as wide:
                topology.preimage_of(rows, mask)
            assert type(wide.value) is IndexError
            assert str(wide.value) == str(narrow.value)


    # -- rows_meeting: one pass over the rows, at every size

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_meeting_matches_a_per_row_scan(self, data):
        from stratkit import topology

        n = data.draw(st.integers(0, 300), label="rows")
        width = data.draw(st.integers(1, 300), label="columns")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        bits = data.draw(st.sampled_from((1, 3, width)), label="bits a row")
        rows = [sum(1 << rng.randrange(width) for _ in range(bits)) for _ in range(n)]
        mask = data.draw(st.just(0) | st.integers(0, (1 << width) - 1), label="mask")
        assert topology.rows_meeting(rows, mask) == helpers.rows_meeting_by_scan(rows, mask)

    @pytest.mark.parametrize("n", [3, 64, 65, 300])
    def test_rows_meeting_on_point_closures(self, n):
        from stratkit import topology

        space = FiniteSpace(tuple(f"p{i}" for i in range(n)), wide_preorder(n, "mixed", seed=n))
        rng = random.Random(n)
        for mask in [0, 1, space.full_mask, *(rng.getrandbits(n) for _ in range(6))]:
            expected = helpers.rows_meeting_by_scan(space.point_closures, mask)
            assert topology.rows_meeting(space.point_closures, mask) == expected
