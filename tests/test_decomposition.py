from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from stratkit import (
    AgreementReport,
    Decomposition,
    Document,
    FiniteSpace,
    InternalInvariantError,
    OrderCheck,
    Poset,
    PosetStratification,
    PreconditionError,
    Proset,
    SpaceMap,
    StratificationVerdict,
    ValidationError,
    alexandrov_space,
    as_poset_stratified,
    classify,
    compatible_orders,
    enumerate_posets,
    enumerate_prosets,
    face_poset_model,
    fixture,
    fixture_names,
    generate,
    save,
    strict_refinements_never_open,
    stratification_from_open_map,
)
from stratkit import decomposition, oracle, topology
from stratkit.oracle import (
    POSET_COUNTS,
    labeled_poset_rows,
    labeled_preorder_rows,
    quotient_space_by_subset_filter,
    set_partitions,
)
from stratkit.kernel import rows_meeting, rows_within


def all_instances(max_n: int):
    """Every (space, partition) pair with at most max_n points."""
    for n in range(max_n + 1):
        points = tuple(str(i) for i in range(n))
        for rows in labeled_preorder_rows(n):
            space = FiniteSpace(points, rows)
            for partition in set_partitions(points):
                yield Decomposition.from_strata(
                    space, {str(b): block for b, block in enumerate(partition)}
                )


class TestConstruction:
    def test_overlapping_strata_rejected(self, sierpinski):
        with pytest.raises(ValidationError, match="strata not disjoint"):
            Decomposition.from_strata(sierpinski, {"A": ("c", "o"), "B": ("o",)})

    def test_empty_stratum_rejected(self, sierpinski):
        with pytest.raises(ValidationError, match="stratum empty"):
            Decomposition.from_strata(sierpinski, {"A": ("c", "o"), "B": ()})

    @pytest.mark.parametrize("mask", [True, False, "1", 1.0, None])
    def test_non_int_mask_rejected(self, sierpinski, mask):
        with pytest.raises(ValidationError, match=r"^stratum mask for 'A' must be an int, got "):
            Decomposition(sierpinski, (("A", mask), ("B", 0b10)))

    @pytest.mark.parametrize("mask", [7, 4, -1, -2])
    def test_out_of_range_mask_rejected(self, sierpinski, mask):
        # 2 points: a mask beyond 0b11, or a negative one, is no stratum
        with pytest.raises(ValidationError, match=r"^stratum mask out of range for 'A'$"):
            Decomposition(sierpinski, (("A", mask), ("B", 0b10)))

    def test_zero_mask_is_an_empty_stratum(self, sierpinski):
        with pytest.raises(ValidationError, match=r"^stratum empty: 'B'$"):
            Decomposition(sierpinski, (("A", 0b11), ("B", 0)))

    def test_cover_required(self, sierpinski):
        with pytest.raises(ValidationError, match="do not cover"):
            Decomposition.from_strata(sierpinski, {"A": ("c",)})

    def test_non_string_ids_rejected_by_the_constructor(self, sierpinski):
        # the ids are type-checked before they are compared for sorting
        with pytest.raises(ValidationError, match=r"^stratum ids must be nonempty strings, got 1$"):
            Decomposition(sierpinski, ((1, 0b01), ("a", 0b10)))

    def test_non_string_ids_rejected_by_from_strata(self, sierpinski):
        with pytest.raises(ValidationError, match=r"^stratum ids must be nonempty strings, got 1$"):
            Decomposition.from_strata(sierpinski, {1: ("c",), "a": ("o",)})

    def test_string_stratum_rejected_by_from_strata(self, sierpinski):
        # a string is iterable, but it is not read as the points its characters name
        with pytest.raises(ValidationError, match=r"^stratum 'A' must list its points, got 'co'$"):
            Decomposition.from_strata(sierpinski, {"A": "co"})

    def test_non_space_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Decomposition(None, ())
        assert str(exc.value) == "Decomposition space must be a FiniteSpace, got NoneType"
        # from_strata checks both arguments before it reads either
        with pytest.raises(ValidationError) as exc:
            Decomposition.from_strata(None, {"a": ["c"]})
        assert str(exc.value) == "Decomposition space must be a FiniteSpace, got NoneType"
        with pytest.raises(ValidationError, match="^Decomposition strata must be a Mapping, got list$"):
            Decomposition.from_strata(FiniteSpace.discrete(["c"]), [("a", ["c"])])
        with pytest.raises(ValidationError, match="^classify needs a Decomposition, got NoneType$"):
            classify(None)

    def test_unknown_stratum_id(self, line_3):
        assert line_3.stratum("S1") == {"p"}
        with pytest.raises(ValidationError, match="^unknown stratum id: 'S9'$"):
            line_3.stratum("S9")

    def test_pi(self, line_3):
        assert line_3.pi("m") == "S0" and line_3.pi("p") == "S1"

    def test_pi_names_the_stratum_holding_each_point(self):
        wide = alexandrov_space(generate("preorder", 100, {"density": 0.05}, 3).value)
        decs = [*all_instances(3), Decomposition.pointwise(wide)]
        decs += [generated_decomposition(n, 0.05, k, n + k) for n, k in [(30, 7), (300, 64)]]
        for dec in decs:
            holder = {p: sid for sid, mask in dec.strata for p in dec.space.names_of(mask)}
            assert {p: dec.pi(p) for p in dec.space.points} == holder

    def test_empty_decomposition_is_legal(self):
        dec = Decomposition.from_strata(FiniteSpace.empty(), {})
        assert dec.quotient_space == FiniteSpace.empty()
        assert classify(dec).verdict() == "stratification"


def quadrant() -> Decomposition:
    """A fresh pointwise decomposition of the quadrant model each call."""
    space = FiniteSpace.from_min_open("0123", {"0": "0123", "1": "13", "2": "23", "3": "3"})
    return Decomposition.pointwise(space)


class TestValueSemantics:
    @pytest.mark.parametrize(
        "make, field, memo",
        [
            (quadrant, "strata", "preorder"),
            (lambda: Decomposition(space=FiniteSpace.discrete("ab"),
                                   strata=(("A", 0b01), ("B", 0b10))), "space", "ids"),
            (lambda: as_poset_stratified(quadrant()), "order", "_up"),
        ],
        ids=["Decomposition", "Decomposition-keywords", "PosetStratification"],
    )
    def test_equal_hashable_and_frozen(self, make, field, memo):
        helpers.assert_value_semantics(make, field, memo)

    def test_fields_decide_equality(self, line_3, sierpinski):
        assert line_3 != Decomposition.pointwise(line_3.space)
        assert Decomposition.pointwise(sierpinski) != Decomposition.pointwise(
            FiniteSpace.discrete(sierpinski.points)
        )

    def test_construction_still_validates(self, sierpinski):
        with pytest.raises(ValidationError, match=r"^stratum ids must be unique and sorted$"):
            Decomposition(sierpinski, (("B", 0b01), ("A", 0b10)))
        with pytest.raises(ValidationError, match=r"^strata do not cover the space$"):
            Decomposition(sierpinski, (("A", 0b01),))

    def test_report_reprs(self, line_3):
        empty = classify(Decomposition.from_strata(FiniteSpace.empty(), {}))
        assert repr(empty) == (
            "ClassificationReport(alexandrov=AgreementReport(labels=("
            "'quotient_has_minimal_opens', 'preorder_topology_equals_quotient_topology', "
            "'map_to_preorder_space_continuous'), values=(True, True, True), witnesses=()), "
            "locally_closed=(), frontier=AgreementReport(labels=('frontier_condition', "
            "'closure_is_minimal_closed_saturation', 'preorder_equals_closure_containment', "
            "'quotient_map_open'), values=(True, True, True, True), witnesses=()), "
            "poset_stratified=AgreementReport(labels=('stratified_over_some_partial_order', "
            "'preorder_is_partial_order_and_map_continuous', "
            "'strata_open_in_minimal_closed_saturation'), values=(True, True, True), "
            "witnesses=()), stratification=StratificationVerdict(holds=True, reasons=()), "
            "semicontinuity=SemicontinuityReport(sat_open_open=True, sat_closed_closed=True, "
            "pi_open=True, pi_closed=True))"
        )
        assert repr(AgreementReport(("x", "y"), (False, False), (("x", "why"),))) == (
            "AgreementReport(labels=('x', 'y'), values=(False, False), "
            "witnesses=(('x', 'why'),))"
        )
        assert repr(classify(line_3).stratification) == (
            "StratificationVerdict(holds=False, reasons=('frontier condition fails',))"
        )
        assert repr(classify(line_3).semicontinuity) == (
            "SemicontinuityReport(sat_open_open=False, sat_closed_closed=True, pi_open=False, "
            "pi_closed=True)"
        )
        inverted = Poset.from_pairs(("S0", "S1"), [("S1", "S0")])
        assert repr(line_3.check_against_order(inverted)) == (
            "OrderCheck(continuous=False, open=False, continuity_witness=frozenset({'S0'}), "
            "openness_witness=frozenset({'p'}))"
        )
        assert repr(face_poset_model([("a", "b")])) == (
            "FaceModel(poset=Poset([a, a,b, b]; a<=a,b, b<=a,b), "
            "space=FiniteSpace(a:{a,a,b}, a,b:{a,b}, b:{a,b,b}))"
        )

    def test_false_reports_are_false(self):
        assert not StratificationVerdict(False) and StratificationVerdict(True)
        assert not AgreementReport(("x", "y"), (False, False))
        assert AgreementReport(("x",), (True,)) and AgreementReport((), ())


class TestQuotient:
    def test_line_3_quotient_is_sierpinski_shaped(self, line_3):
        q = line_3.quotient_space
        assert helpers.open_masks(q) == [0b00, 0b10, 0b11]  # only {S1} and all open

    def test_pseudo_circle_quotient_is_indiscrete(self, pseudo_circle_4):
        q = pseudo_circle_4.quotient_space
        assert helpers.open_masks(q) == [0b00, 0b11]

    def test_pointwise_quotient_is_the_space_itself(self, quadrant_4):
        # stratum ids equal point names, so the quotient is literally the space
        assert quadrant_4.quotient_space == quadrant_4.space

    def test_pointwise_quotient_identity_exhaustively(self):
        from stratkit.oracle import labeled_preorder_rows

        for n in range(4):
            points = tuple(str(i) for i in range(n))
            for rows in labeled_preorder_rows(n):
                space = FiniteSpace(points, rows)
                assert Decomposition.pointwise(space).quotient_space == space

    def test_fixpoint_matches_subset_filter_exhaustively(self):
        for dec in all_instances(3):
            assert dec.quotient_space == quotient_space_by_subset_filter(dec)[0]


def assert_quotient_rows_valid(dec: Decomposition) -> None:
    """``quotient_space`` takes its closed rows through ``_from_valid``;
    the validating constructor must accept them and build the same space."""
    q = dec.quotient_space
    assert FiniteSpace(dec.ids, q.min_open) == q


class TestQuotientRowsValidate:
    """Production no longer validates the quotient's rows, so these tests
    do, through both closure routines: Warshall below
    ``kernel.COMPONENTS_ROWS`` (64) rows, strongly connected components
    from there on."""

    @pytest.mark.parametrize("name", [
        *(f"fixture:{name}" for name in fixture_names()
          if fixture(name).document.kind == "decomposition"),
        *(f"face:{name}" for name in helpers.FACE_DECOMPOSITIONS),
    ])
    def test_fixtures_and_face_posets(self, name):
        assert_quotient_rows_valid(fresh_decomposition(name))

    @pytest.mark.parametrize("n, k", [(65, 8), (130, 8), (300, 8), (65, 64), (130, 64),
                                      (300, 64), (300, 120)])
    def test_random_partitions_of_generated_spaces(self, n, k):
        closed_by_the_routine = 0
        for density in (0.002, 0.005, 0.01):
            for seed in range(4):
                dec = generated_decomposition(n, density, k, 1000 * seed + n + k)
                assert dec.k == k
                assert_quotient_rows_valid(dec)
                closed_by_the_routine += dec.quotient_space.min_open != dec._reach
        # some instance's reach rows are not yet transitive
        assert closed_by_the_routine


class TestPreorder:
    def test_line_3(self, line_3):
        p = line_3.preorder
        assert p.leq("S0", "S1") and not p.leq("S1", "S0")

    def test_pseudo_circle_has_a_two_cycle(self, pseudo_circle_4):
        p = pseudo_circle_4.preorder
        assert p.leq("S1", "S2") and p.leq("S2", "S1")
        assert not p.is_poset()

    def test_quadrant_pointwise_gives_the_diamond(self, quadrant_4):
        p = quadrant_4.preorder
        strict = {(a, b) for a in p.elements for b in p.elements if a != b and p.leq(a, b)}
        assert strict == {("0", "1"), ("0", "2"), ("0", "3"), ("1", "3"), ("2", "3")}


class TestEquivalenceGroups:
    def test_alexandrov_triples_on_fixtures(self, line_3, pseudo_circle_4, quadrant_4):
        for dec in (line_3, pseudo_circle_4, quadrant_4):
            report = dec.alexandrov_equivalences()
            assert report.values == (True, True, True)

    def test_locally_finite(self, line_3, quadrant_4):
        empty = Decomposition.from_strata(FiniteSpace.empty(), {})
        for dec in (line_3, quadrant_4, empty):
            assert classify(dec).to_json_dict()["locally_finite"] is True
            # every point's minimal open meets the strata of one _reach row
            assert all(row.bit_count() <= dec.k for row in dec._reach)

    def test_frontier_on_quadrant(self, quadrant_4):
        assert quadrant_4.frontier_equivalences().values == (True,) * 4

    def test_frontier_fails_on_line_3(self, line_3):
        report = line_3.frontier_equivalences()
        assert report.values == (False,) * 4
        assert dict(report.witnesses)["quotient_map_open"]

    def test_frontier_fails_on_pseudo_circle(self, pseudo_circle_4):
        report = pseudo_circle_4.frontier_equivalences()
        assert report.values == (False,) * 4
        assert "meets the closure" in dict(report.witnesses)["frontier_condition"]

    def test_poset_stratified_on_fixtures(self, line_3, pseudo_circle_4, quadrant_4):
        assert line_3.poset_stratified_equivalences().values == (True,) * 3
        assert pseudo_circle_4.poset_stratified_equivalences().values == (False,) * 3
        assert quadrant_4.poset_stratified_equivalences().values == (True,) * 3


class TestStratification:
    def test_quadrant_is_a_stratification(self, quadrant_4):
        assert quadrant_4.is_stratification()

    def test_line_3_fails_on_the_frontier(self, line_3):
        verdict = line_3.is_stratification()
        assert not verdict and verdict.reasons == ("frontier condition fails",)

    def test_pseudo_circle_fails_only_on_the_frontier(self, pseudo_circle_4):
        # strata are locally closed; the frontier condition is what breaks
        assert all(v.holds for _, v in pseudo_circle_4.locally_closed_strata())
        verdict = pseudo_circle_4.is_stratification()
        assert not verdict and verdict.reasons == ("frontier condition fails",)

    def test_chain_pointwise_is_a_stratification(self, chain_3):
        assert chain_3.is_stratification()


STRATIFICATIONS = (
    "fixture:chain_3", "fixture:quadrant_4", "fixture:two_point_discrete",
    *(f"face:{model}/skeleton" for model in helpers.FACE_MODELS),
)


def fresh_decomposition(name: str) -> Decomposition:
    """The named fixture or face-poset decomposition, rebuilt with nothing cached."""
    kind, _, rest = name.partition(":")
    dec = fixture(rest).document.value if kind == "fixture" else helpers.face_decomposition(rest)
    return Decomposition(FiniteSpace(dec.space.points, dec.space.min_open), dec.strata)


class TestLocallyClosedWitnesses:
    @pytest.mark.parametrize("name", STRATIFICATIONS)
    def test_classify_names_no_points(self, name, monkeypatch):
        # classify reads only whether each stratum is locally closed; the
        # hull witnesses are named only by locally_closed_strata, through
        # the kernel's unchecked names_at (a stratification has no other
        # witness to name)
        dec = fresh_decomposition(name)
        calls = []
        names_at = decomposition.names_at
        monkeypatch.setattr(
            decomposition, "names_at", lambda names, mask: calls.append(mask) or names_at(names, mask)
        )
        assert classify(dec).verdict() == "stratification"
        assert calls == []
        assert len(dec.locally_closed_strata()) == dec.k and len(calls) == dec.k

    def test_verdicts_are_the_point_level_ones(self):
        # the stratifications above, and every instance up to 3 points,
        # where some strata are not locally closed
        for dec in [*map(fresh_decomposition, STRATIFICATIONS), *all_instances(3)]:
            expected = [dec.space.is_locally_closed(dec.space.names_of(m)) for m in dec.masks]
            assert dec.locally_closed_strata() == tuple(zip(dec.ids, expected))
            assert classify(dec).locally_closed == tuple(
                (sid, v.holds) for sid, v in zip(dec.ids, expected)
            )


class TestCheckAgainstOrder:
    def test_quadrant_against_diamond(self, quadrant_4):
        diamond = Poset.from_pairs(
            "0123", [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")]
        )
        check = quadrant_4.check_against_order(diamond)
        assert (check.continuous, check.open) == (True, True)
        assert {quadrant_4.pi(p) for p in quadrant_4.space.points} == set(diamond.elements)

    def test_quadrant_against_chain_refinement(self, quadrant_4):
        chain = Poset.from_pairs("0123", [("0", "1"), ("1", "2"), ("2", "3")])
        check = quadrant_4.check_against_order(chain)
        assert check.continuous and not check.open
        assert {quadrant_4.pi(p) for p in quadrant_4.space.points} == set(chain.elements)
        assert set(check.openness_witness) == {"1", "3"}

    def test_line_3_against_inverted_order(self, line_3):
        order = Poset.from_pairs(("S0", "S1"), [("S1", "S0")])
        check = line_3.check_against_order(order)
        assert not check.continuous

    def test_extra_order_element_rejected(self, line_3):
        order = Poset.from_pairs(("S0", "S1", "S9"), [])
        with pytest.raises(ValidationError, match="empty preimage"):
            line_3.check_against_order(order)

    def test_missing_order_element_rejected(self, line_3):
        order = Poset.from_pairs(("S0",), [])
        with pytest.raises(ValidationError, match="missing stratum id"):
            line_3.check_against_order(order)


class TestPosetStratificationType:
    def test_validates_continuity(self, line_3):
        bad = Poset.from_pairs(("S0", "S1"), [("S1", "S0")])
        with pytest.raises(ValidationError, match="not continuous"):
            PosetStratification(line_3, bad)

    def test_accepts_the_decomposition_preorder(self, line_3):
        order = Poset.from_pairs(("S0", "S1"), [("S0", "S1")])
        PosetStratification(line_3, order)
        assert helpers.point_map(line_3, order).is_continuous()

    def test_refuses_a_preorder_that_is_not_a_poset(self, pseudo_circle_4):
        # the quotient is indiscrete, so no partial order fits; the
        # indiscrete preorder would make the map continuous
        indiscrete = Proset(("S1", "S2"), (0b11, 0b11))
        with pytest.raises(ValidationError, match=r"^order must be a Poset, got Proset$"):
            PosetStratification(pseudo_circle_4, indiscrete)
        with pytest.raises(ValidationError, match=r"^order must be a Poset, got Proset$"):
            pseudo_circle_4.check_against_order(indiscrete)

    def test_the_type_is_checked_before_the_elements(self, line_3):
        # only a Poset enters, even one whose relation is antisymmetric
        for order in (Proset(("S0", "S1"), (0b11, 0b10)), Proset(("S9",), (1,))):
            with pytest.raises(ValidationError, match=r"^order must be a Poset, got Proset$"):
                line_3.check_against_order(order)

    def test_indiscrete_two_points_never_reach_the_open_map_theorem(self):
        # an open map into an indiscrete preorder does not give a
        # stratification; every order on the two strata is refused before
        # stratification_from_open_map could report a library defect
        indiscrete = FiniteSpace(("a", "b"), (0b11, 0b11))
        dec = Decomposition.from_strata(indiscrete, {"0": ("a",), "1": ("b",)})
        assert not dec.is_stratification()
        for order in [*enumerate_prosets(2), *enumerate_posets(2)]:
            with pytest.raises(ValidationError):
                PosetStratification(dec, order)


DIAMOND = Poset.from_pairs("0123", [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")])
CHAIN = Poset.from_pairs("0123", [("0", "1"), ("1", "2"), ("2", "3")])


class TestQuotientMapAtStratumLevel:
    def test_production_builds_no_point_level_map(self, monkeypatch, quadrant_4, tmp_path):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a point-level SpaceMap was built")

        monkeypatch.setattr(SpaceMap, "__init__", refuse)
        documents = [fixture(name).document for name in fixture_names()]
        # fresh values, so no memoised result from an earlier test is read
        decompositions = [
            Decomposition(doc.value.space, doc.value.strata)
            for doc in documents if doc.kind == "decomposition"
        ]
        assert len(decompositions) >= 5
        for dec in decompositions:
            classify(dec)
        quadrant = Decomposition(quadrant_4.space, quadrant_4.strata)
        assert quadrant.check_against_order(DIAMOND) == OrderCheck(True, True)
        assert not quadrant.check_against_order(CHAIN).open
        assert stratification_from_open_map(PosetStratification(quadrant, DIAMOND)) is None
        with pytest.raises(PreconditionError, match="not an open map"):
            stratification_from_open_map(PosetStratification(quadrant, CHAIN))

        text = save(fixture("quadrant_4").document)
        code, out, _ = helpers.run_main(["check", "-"], text)
        assert code == 0 and "verdict: stratification" in out
        dec_path = tmp_path / "quadrant_4.json"
        dec_path.write_text(text, encoding="utf-8")
        for order, expected in ((DIAMOND, 0), (CHAIN, 1)):
            order_path = tmp_path / "order.json"
            order_path.write_text(save(Document("order-on-strata", order)), encoding="utf-8")
            code, _, err = helpers.run_main(["theorem-b", str(dec_path), str(order_path)], "")
            assert code == expected and "Traceback" not in err

    def test_verdicts_match_the_point_level_map(self):
        # the one pass per basis onto the quotient, on every labeled
        # instance with n <= 4; then continuity and openness on every one
        # with n <= 3, into its quotient and into every labeled partial
        # order on its strata. The witnesses must be the first
        # counterexamples the point-level map finds
        failures = {"open onto the quotient": 0, "closed": 0, "continuous": 0, "open": 0}
        for dec in all_instances(4):
            f = helpers.point_map(dec)
            for kind, (mine, _), reference in (
                ("open onto the quotient", dec._open_pass, f.is_open()),
                ("closed", dec._closed_pass, f.is_closed()),
            ):
                assert (mine.holds, mine.witness) == (reference.holds, reference.witness)
                failures[kind] += not mine.holds
        for dec in all_instances(3):
            targets = [(dec.quotient_space.min_open, helpers.point_map(dec))]
            for rows in labeled_poset_rows(dec.k):
                order = Poset(dec.ids, rows)
                f = helpers.point_map(dec, order)
                targets.append((rows, f))
                # the same order with its elements listed in reverse
                pairs = [(a, b) for a in order.elements for b in order.up_set(a)]
                reversed_order = Poset.from_pairs(dec.ids[::-1], pairs, close=False)
                cont, opn = f.is_continuous(), f.is_open()
                assert dec.check_against_order(reversed_order) == OrderCheck(
                    cont.holds, opn.holds, cont.witness, opn.witness
                )
            for up, f in targets:
                for kind, mine, reference in (
                    ("continuous", dec._continuous_into(up), f.is_continuous()),
                    ("open", dec._open_into(up), f.is_open()),
                ):
                    assert (mine.holds, mine.witness) == (reference.holds, reference.witness)
                    failures[kind] += not mine.holds
        assert all(count > 100 for count in failures.values()), failures


class TestCoarsen:
    def test_pseudo_circle_collapses_to_one_stratum(self, pseudo_circle_4):
        merged, ps = pseudo_circle_4.coarsen()
        assert merged.ids == ("S1",)
        assert merged.stratum("S1") == {"a", "b", "x", "y"}
        assert ps.order.elements == ("S1",)

    def test_quadrant_unchanged(self, quadrant_4):
        merged, _ = quadrant_4.coarsen()
        assert merged == quadrant_4

    def test_pointwise_poset_space_unchanged(self, chain_3):
        merged, _ = chain_3.coarsen()
        assert merged == chain_3

    def test_coarsening_is_always_poset_stratified(self):
        for dec in all_instances(3):
            merged, ps = dec.coarsen()
            assert merged.poset_stratified_equivalences().value
            assert helpers.point_map(merged, ps.order).is_continuous()


class TestTheoremConstructions:
    def test_quadrant_round_trip(self, quadrant_4):
        ps = as_poset_stratified(quadrant_4)
        assert ps.order.hasse() == (("0", "1"), ("0", "2"), ("1", "3"), ("2", "3"))

    def test_chain_pointwise(self, chain_3):
        ps = as_poset_stratified(chain_3)
        assert ps.order.hasse() == (("c0", "c1"), ("c1", "c2"))

    def test_line_3_is_rejected(self, line_3):
        with pytest.raises(PreconditionError) as exc:
            as_poset_stratified(line_3)
        assert "frontier condition fails" in exc.value.reasons

    def test_open_map_confirms_stratification(self, quadrant_4):
        diamond = Poset.from_pairs(
            "0123", [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")]
        )
        assert stratification_from_open_map(PosetStratification(quadrant_4, diamond)) is None
        assert quadrant_4.is_stratification()
        p = quadrant_4.preorder
        assert all(
            diamond.leq(a, b) for a in p.elements for b in p.elements if p.leq(a, b)
        )

    def test_non_open_map_is_a_precondition_failure(self, line_3):
        order = Poset.from_pairs(("S0", "S1"), [("S0", "S1")])
        ps = PosetStratification(line_3, order)
        with pytest.raises(PreconditionError, match="not an open map"):
            stratification_from_open_map(ps)


class TestCompatibleOrders:
    def test_two_point_discrete_has_exactly_three(self, two_point_discrete):
        orders = compatible_orders(two_point_discrete)
        assert len(orders) == 3
        base = two_point_discrete.preorder
        for order in orders:
            for a in base.elements:
                for b in base.elements:
                    if base.leq(a, b):
                        assert order.leq(a, b)

    def test_line_3_has_exactly_one(self, line_3):
        (order,) = compatible_orders(line_3)
        assert order.leq("S0", "S1")

    def test_quadrant_orders_are_the_diamond_refinements(self, quadrant_4):
        orders = compatible_orders(quadrant_4)
        diamond = quadrant_4.preorder
        for order in orders:
            for a in diamond.elements:
                for b in diamond.elements:
                    if diamond.leq(a, b):
                        assert order.leq(a, b)
        # the only freedom is how 1 and 2 compare: none, 1<=2, or 2<=1
        assert len(orders) == 3

    def test_orders_are_a_tuple_of_posets(self, two_point_discrete):
        orders = compatible_orders(two_point_discrete)
        assert type(orders) is tuple and all(type(order) is Poset for order in orders)
        assert repr(orders) == "(Poset([0, 1]; ), Poset([0, 1]; 0<=1), Poset([0, 1]; 1<=0))"

    def test_not_poset_stratified_is_rejected(self, pseudo_circle_4):
        with pytest.raises(PreconditionError):
            compatible_orders(pseudo_circle_4)

    def test_bound(self):
        # seven isolated points, one stratum each: poset-stratified (and a
        # stratification), but one stratum past the fixed bound of 6
        dec = Decomposition.pointwise(FiniteSpace.discrete("abcdefg"))
        assert dec.is_stratification()
        for check in (compatible_orders, strict_refinements_never_open):
            with pytest.raises(ValidationError, match=r"^order enumeration bound is 6 strata$"):
                check(dec)

    def test_five_strata_are_within_the_bound(self):
        # every labeled order on five isolated points contains the discrete preorder
        dec = Decomposition.pointwise(FiniteSpace.discrete("abcde"))
        assert len(compatible_orders(dec)) == POSET_COUNTS[5]
        assert strict_refinements_never_open(dec) == POSET_COUNTS[5] - 1

    def test_a_continuous_order_missing_the_preorder_is_caught(self, quadrant_4, monkeypatch):
        # a search that calls every order continuous offers orders that do
        # not contain the decomposition preorder
        orders = labeled_poset_rows(quadrant_4.k)
        monkeypatch.setattr(
            oracle, "_orders_by_continuity", lambda dec, orders: (orders, [True] * len(orders))
        )
        with pytest.raises(InternalInvariantError):
            compatible_orders(quadrant_4)


class TestRefinements:
    def test_quadrant_has_two_strict_refinements(self, quadrant_4):
        assert strict_refinements_never_open(quadrant_4) == 2

    def test_total_order_has_none(self, chain_3):
        count = strict_refinements_never_open(chain_3)
        assert type(count) is int and count == 0

    def test_non_stratification_rejected(self, line_3):
        with pytest.raises(PreconditionError):
            strict_refinements_never_open(line_3)

    @pytest.mark.parametrize("check", [compatible_orders, strict_refinements_never_open])
    def test_a_discontinuous_refinement_is_caught(self, quadrant_4, monkeypatch, check):
        # the order laws visit only the orders the search calls continuous;
        # the continuity of every refinement is asserted on its own
        search = oracle._orders_by_continuity

        def refinements_discontinuous(dec, orders):
            orders, continuous = search(dec, orders)
            base = dec.preorder.up
            return orders, [
                ok and (rows == base or not rows_within(base, rows))
                for rows, ok in zip(orders, continuous)
            ]

        monkeypatch.setattr(oracle, "_orders_by_continuity", refinements_discontinuous)
        with pytest.raises(InternalInvariantError, match="refinement broke continuity"):
            check(quadrant_4)


class TestSemicontinuity:
    def test_line_3_is_upper_semicontinuous_only(self, line_3):
        report = line_3.semicontinuity()
        assert (
            report.sat_open_open,
            report.sat_closed_closed,
            report.pi_open,
            report.pi_closed,
        ) == (False, True, False, True)
        assert report.label == "upper-semicontinuous"

    def test_pointwise_is_continuous(self, quadrant_4):
        report = quadrant_4.semicontinuity()
        assert report.label == "continuous"
        assert report.sat_open_open and report.sat_closed_closed

    def test_pseudo_circle_is_neither(self, pseudo_circle_4):
        report = pseudo_circle_4.semicontinuity()
        assert report.label == "neither"
        assert not any(
            (report.sat_open_open, report.sat_closed_closed, report.pi_open, report.pi_closed)
        )

    def test_saturation_pairings_brute_force(self):
        # quantify the saturation formulas over whole open/closed families
        # and compare against the quotient-map properties
        for dec in all_instances(3):
            sat_open, sat_closed = helpers.brute_saturations(dec)
            pi = helpers.point_map(dec)
            assert sat_open == bool(pi.is_open())
            assert sat_closed == bool(pi.is_closed())
            report = dec.semicontinuity()
            assert (report.sat_open_open, report.sat_closed_closed) == (
                sat_open,
                sat_closed,
            )

    @pytest.mark.parametrize(
        "name, kind", [("fixture:line_3", "open"), ("fixture:quadrant_4", "closed")]
    )
    def test_a_wrong_saturation_on_one_image_raises(self, name, kind, monkeypatch):
        # the formula is made wrong on the first stratum-set its pass asks
        # about that is no minimal open of the quotient, so the Alexandrov
        # group, which asks only about those, is untouched
        closed = kind == "closed"
        message = f"^{kind} saturation disagrees with quotient map {kind}ness$"
        dec = fresh_decomposition(name)
        basics = dec.space._closed_basis if closed else dec.space._open_basis
        others = (1 << dec.k) - 1 if closed else 0
        asked = [others ^ rows_meeting(dec.masks, basic) for basic in basics]
        wrong = next(m for m in asked if m not in dec.quotient_space.min_open)
        right = Decomposition._preimage_is_open
        monkeypatch.setattr(
            Decomposition, "_preimage_is_open", lambda self, m: right(self, m) != (m == wrong)
        )
        with pytest.raises(InternalInvariantError, match=message):
            classify(fresh_decomposition(name))
        # openness onto the quotient is first decided in the frontier group
        method = "semicontinuity" if closed else "frontier_equivalences"
        with pytest.raises(InternalInvariantError, match=message):
            getattr(fresh_decomposition(name), method)()

    @pytest.mark.parametrize(
        "name", ["fixture:quadrant_4", "face:tetrahedron/pointwise", "face:octahedron/skeleton"]
    )
    def test_classify_takes_each_image_once(self, name, monkeypatch):
        # where every verdict holds, every scan runs to its end: the _reach
        # row of each stratum, then one pass per basis onto the quotient
        dec = fresh_decomposition(name)
        calls = []

        def counted(rows, mask):
            calls.append(mask)
            return rows_meeting(rows, mask)

        monkeypatch.setattr(decomposition, "rows_meeting", counted)
        report = classify(dec)
        assert report.verdict() == "stratification"
        assert report.semicontinuity.label == "continuous"
        assert len(calls) == dec.k + len(dec.space._open_basis) + len(dec.space._closed_basis)


class TestClassify:
    def test_ladder_verdicts(self, line_3, pseudo_circle_4, quadrant_4):
        assert classify(quadrant_4).verdict() == "stratification"
        assert classify(line_3).verdict() == "poset-stratified"
        assert classify(pseudo_circle_4).verdict() == "alexandrov"

    def test_report_is_json_serializable(self, line_3):
        import json

        payload = classify(line_3).to_json_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["verdict"] == "poset-stratified"
        assert round_tripped["frontier"]["quotient_map_open"] is False

    def test_agreement_groups_always_agree(self):
        for dec in all_instances(3):
            report = classify(dec)
            for group in (report.alexandrov, report.frontier, report.poset_stratified):
                assert len(set(group.values)) == 1


def generated_decomposition(n: int, density: float, blocks: int, seed: int) -> Decomposition:
    space = alexandrov_space(generate("preorder", n, {"density": density}, seed).value)
    return generate("partition", n, {"space": space, "blocks": blocks}, seed + 1).value


class TestStratumKernel:
    @pytest.mark.parametrize("seed", range(40))
    def test_classify_matches_the_subset_filter_reference(self, seed):
        # k from 2 to 12 on 6 to 18 points; dense seeds give proper preorders
        k = 2 + seed % 11
        n = k + seed % 7
        density = (0.05, 0.12, 0.3)[seed % 3]
        dec = generated_decomposition(n, density, k, 500 + 2 * seed)
        report = classify(dec).to_json_dict()
        witnesses = report.pop("witnesses")
        assert report == helpers.subset_filter_report(dec)
        failing = {label for label, value in report["frontier"].items() if not value}
        assert set(witnesses) == failing

    @given(
        n=st.integers(0, 40),
        density=st.sampled_from((0.05, 0.3)),
        blocks=st.integers(1, 40) | st.none(),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_frontier_rows_match_the_pair_scans(self, n, density, blocks, seed):
        # a block count above n stands for the pointwise decomposition,
        # where the frontier condition holds and every row is scanned
        space = alexandrov_space(generate("preorder", n, {"density": density}, seed).value)
        if blocks is not None and blocks > n:
            dec = Decomposition.pointwise(space)
        else:
            params = {"space": space, "blocks": blocks} if blocks else {"space": space}
            dec = generate("partition", n, params, seed + 1).value
        report = dec.frontier_equivalences()
        values, witnesses = helpers.frontier_by_pair_scans(dec)
        assert report.values == values
        assert {
            label: text for label, text in report.witnesses if label != "quotient_map_open"
        } == witnesses

    @given(
        n=st.integers(0, 300),
        k=st.integers(1, 100),
        seed=st.integers(0, 2**32),
        empty=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_meeting_is_the_image_through_the_named_assignment(self, n, k, seed, empty):
        # the strata are fibers: the strata a point set meets are its image
        k = min(k, n)
        rng = random.Random(seed)
        points = [f"p{i}" for i in range(n)]
        blocks = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(blocks)
        strata = {f"s{b}": [p for p, c in zip(points, blocks) if c == b] for b in range(k)}
        dec = Decomposition.from_strata(FiniteSpace.discrete(points), strata)
        assignment = helpers.stratum_assignment(dec)
        for _ in range(4):
            mask = 0 if empty else rng.getrandbits(n) & rng.getrandbits(n)
            expected = helpers.image_by_assignment(assignment, mask)
            assert rows_meeting(dec.masks, mask) == expected

    def test_octahedron_pointwise_is_a_stratification(self):
        # 26 strata: one vertex from each antipodal pair {a, f}, {b, c}, {d, e}
        model = face_poset_model([(a, b, c) for a in "af" for b in "bc" for c in "de"])
        dec = Decomposition.pointwise(model.space)
        assert dec.k == 26
        report = classify(dec)
        assert report.verdict() == "stratification"
        assert report.semicontinuity.label == "continuous"

    def test_sixty_four_strata_on_a_thousand_points_under_a_second(self):
        import time

        dec = generated_decomposition(1000, 0.5 / 1000, 64, 4242)
        assert dec.k == 64
        started = time.perf_counter()
        report = classify(dec)
        assert time.perf_counter() - started < 1.0
        assert report.alexandrov.value

    def test_subset_filter_guard_is_read_at_call_time(self, quadrant_4, monkeypatch):
        monkeypatch.setattr(topology, "MAX_POINTS", 3)
        with pytest.raises(ValidationError, match="guard is 3 strata"):
            quadrant_4.quotient_open_family()
        # the polynomial kernel has no guard
        assert classify(quadrant_4).verdict() == "stratification"

    def test_groups_are_computed_once(self, line_3):
        assert line_3.frontier_equivalences() is line_3.frontier_equivalences()
        assert (
            line_3.poset_stratified_equivalences() is line_3.poset_stratified_equivalences()
        )
