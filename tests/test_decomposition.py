from __future__ import annotations

import pytest

import helpers
from stratkit import (
    AgreementReport,
    Decomposition,
    FiniteSpace,
    Poset,
    PosetStratification,
    PreconditionError,
    StratificationVerdict,
    ValidationError,
    alexandrov_space,
    as_poset_stratified,
    classify,
    compatible_orders,
    face_poset_model,
    generate,
    strict_refinements_never_open,
    stratification_from_open_map,
)
from stratkit import topology
from stratkit.oracle import labeled_preorder_rows, set_partitions


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

    def test_cover_required(self, sierpinski):
        with pytest.raises(ValidationError, match="do not cover"):
            Decomposition.from_strata(sierpinski, {"A": ("c",)})

    def test_pi(self, line_3):
        assert line_3.pi("m") == "S0" and line_3.pi("p") == "S1"

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
            (lambda: as_poset_stratified(quadrant()), "order", "pi_into_order"),
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
            assert dec.quotient_space == dec.quotient_space_by_subset_filter()


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
        ps = PosetStratification(line_3, order)
        assert ps.pi_into_order.is_continuous()


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
            assert ps.pi_into_order.is_continuous()


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
        report = compatible_orders(two_point_discrete)
        assert report.count == 3
        base = two_point_discrete.preorder
        for order in report.orders:
            for a in base.elements:
                for b in base.elements:
                    if base.leq(a, b):
                        assert order.leq(a, b)

    def test_line_3_has_exactly_one(self, line_3):
        report = compatible_orders(line_3)
        assert report.count == 1
        (order,) = report.orders
        assert order.leq("S0", "S1")

    def test_quadrant_orders_are_the_diamond_refinements(self, quadrant_4):
        report = compatible_orders(quadrant_4)
        diamond = quadrant_4.preorder
        for order in report.orders:
            for a in diamond.elements:
                for b in diamond.elements:
                    if diamond.leq(a, b):
                        assert order.leq(a, b)
        # the only freedom is how 1 and 2 compare: none, 1<=2, or 2<=1
        assert report.count == 3

    def test_report_repr_and_count(self, two_point_discrete):
        report = compatible_orders(two_point_discrete)
        assert repr(report) == (
            "CompatibleOrdersReport(orders=(Poset([0, 1]; ), Poset([0, 1]; 0<=1), "
            "Poset([0, 1]; 1<=0)))"
        )
        assert report.count == 3  # the property, not tuple.count

    def test_not_poset_stratified_is_rejected(self, pseudo_circle_4):
        with pytest.raises(PreconditionError):
            compatible_orders(pseudo_circle_4)

    def test_bound(self, quadrant_4):
        with pytest.raises(ValidationError, match="bound"):
            compatible_orders(quadrant_4, bound=2)


class TestRefinements:
    def test_quadrant_has_two_strict_refinements(self, quadrant_4):
        assert strict_refinements_never_open(quadrant_4).refinements_tested == 2

    def test_total_order_has_none(self, chain_3):
        report = strict_refinements_never_open(chain_3)
        assert report.refinements_tested == 0
        assert repr(report) == "RefinementReport(refinements_tested=0)"

    def test_non_stratification_rejected(self, line_3):
        with pytest.raises(PreconditionError):
            strict_refinements_never_open(line_3)


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
            assert sat_open == bool(dec.pi_map.is_open())
            assert sat_closed == bool(dec.pi_map.is_closed())
            report = dec.semicontinuity()
            assert (report.sat_open_open, report.sat_closed_closed) == (
                sat_open,
                sat_closed,
            )


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
