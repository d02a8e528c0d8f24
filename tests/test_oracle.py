from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

import helpers

from stratkit import (
    AgreementReport,
    Decomposition,
    InternalInvariantError,
    Proset,
    ValidationError,
    Verdict,
    compatible_orders,
    exhaustive_verify,
    strict_refinements_never_open,
)
from stratkit.oracle import (
    PARTITION_COUNTS,
    POSET_COUNTS,
    PREORDER_COUNTS,
    Sweep,
    SweepReport,
    Tally,
    enumerate_partitions,
    enumerate_posets,
    enumerate_prosets,
    labeled_poset_rows,
    labeled_preorder_rows,
    partition_orbits,
    preorder_orbits,
    set_partitions,
)
from stratkit import oracle
from stratkit.kernel import preimage_of, rows_meeting, rows_within
from stratkit.order import alexandrov_space
from stratkit.topology import FiniteSpace

SWEEP5_SHA256 = Path(__file__).parent / "data" / "sweep5_json.sha256"

# sha256 of repr(labeled_preorder_rows(n)), captured from the 2**(n*n - n)
# filter that enumerated them before one-point extension: the order is pinned
LABELED_PREORDER_ROWS_SHA256 = {
    0: "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
    1: "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c",
    2: "3531ccaec6c2faed67136894b4f5284797249b9e50e7e20f3f3fdd73d9ee1716",
    3: "7f4a34cf272fda133bcc4da8bf16434132cf7d0dc210645bc6affd3ccb11ca1e",
    4: "c2998e825367760be6497c79107b1d408bd9927af130d40e62148097b2c9df2f",
    5: "48968b9f64012dc65c5ea1e6cfa908f357fe86735efd73f22dd78f422caa93a3",
}


def _relabeled(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The relation with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if (row >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


class TestCounts:
    def test_preorder_counts(self):
        for n, expected in PREORDER_COUNTS.items():
            assert len(labeled_preorder_rows(n)) == expected

    def test_poset_counts(self):
        for n, expected in POSET_COUNTS.items():
            assert len(labeled_poset_rows(n)) == expected

    def test_partition_counts(self):
        for n, expected in PARTITION_COUNTS.items():
            assert len(list(set_partitions([str(i) for i in range(n)]))) == expected

    def test_naive_filter_rederives_the_preorders(self):
        for n in range(4):
            assert sorted(helpers.naive_preorder_rows(n)) == sorted(labeled_preorder_rows(n))

    def test_naive_filter_is_size_guarded(self):
        with pytest.raises(ValidationError):
            helpers.naive_preorder_rows(4)


class TestEnumerations:
    def test_no_duplicates(self):
        for n in range(5):
            rows = labeled_preorder_rows(n)
            assert len(set(rows)) == len(rows)
            parts = list(set_partitions([str(i) for i in range(n)]))
            assert len(set(parts)) == len(parts)

    def test_deterministic_order(self):
        assert list(enumerate_partitions(4)) == list(enumerate_partitions(4))
        first = [p.up for p in enumerate_prosets(3)]
        second = [p.up for p in enumerate_prosets(3)]
        assert first == second

    def test_items_validate(self):
        for p in enumerate_prosets(3):
            assert p.elements == ("0", "1", "2")
        for p in enumerate_posets(3):
            assert p.is_poset()

    def test_posets_are_the_antisymmetric_preorders(self):
        posets = set(labeled_poset_rows(3))
        assert posets <= set(labeled_preorder_rows(3))

    def test_bounds(self):
        # one bound, oracle.MAX_ELEMENTS, for every labeled enumeration
        assert oracle.MAX_ELEMENTS == 6
        for run in (enumerate_prosets, enumerate_posets, enumerate_partitions):
            with pytest.raises(ValidationError, match="bound is 6 elements$"):
                list(run(7))
        with pytest.raises(ValidationError, match="^relation enumeration bound is 6 elements$"):
            labeled_preorder_rows(7)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: list(enumerate_prosets(-2)),
            lambda: list(enumerate_posets(-2)),
            lambda: list(enumerate_partitions(-2)),
            lambda: exhaustive_verify(-3),
            lambda: labeled_preorder_rows(-1),
            lambda: labeled_poset_rows(-2),
            lambda: exhaustive_verify(True),
            lambda: exhaustive_verify(2.0),
            lambda: list(enumerate_partitions(None)),
        ],
        ids=["prosets", "posets", "partitions", "sweep", "preorder-rows", "poset-rows",
             "sweep-bool", "sweep-float", "partitions-none"],
    )
    def test_negative_sizes_are_refused(self, run):
        # not the empty case: n = -2 used to enumerate the one empty structure,
        # and True used to sweep as n = 1
        with pytest.raises(ValidationError, match="size must be a nonnegative integer, got "):
            run()

    def test_labeled_order_is_pinned(self):
        for n, digest in LABELED_PREORDER_ROWS_SHA256.items():
            assert hashlib.sha256(repr(labeled_preorder_rows(n)).encode()).hexdigest() == digest

    def test_partition_blocks_cover_without_overlap(self):
        points = ("0", "1", "2", "3")
        for partition in set_partitions(points):
            flat = [p for block in partition for p in block]
            assert sorted(flat) == sorted(points)


class TestOrbits:
    def test_orbit_counts(self):
        # OEIS A001930: preorders on n unlabeled elements
        assert [len(preorder_orbits(n)) for n in range(6)] == [1, 1, 3, 9, 33, 139]

    def test_orbit_sizes_sum_to_the_labeled_count(self):
        for n, count in PREORDER_COUNTS.items():
            sizes = [factorial(n) // len(aut) for _, aut in preorder_orbits(n)]
            assert sum(sizes) == count

    def test_orbits_match_brute_force_relabeling(self):
        # every labeled preorder, relabeled all n! ways, lands on exactly
        # one representative, and each representative's orbit has the size
        # its automorphism count gives
        for n in range(5):
            perms = list(permutations(range(n)))
            orbit_sizes: dict[tuple[int, ...], int] = {}
            for rows in labeled_preorder_rows(n):
                canonical = min(_relabeled(rows, perm) for perm in perms)
                orbit_sizes[canonical] = orbit_sizes.get(canonical, 0) + 1
            reps = preorder_orbits(n)
            assert [rows for rows, _ in reps] == sorted(orbit_sizes)
            for rows, aut in reps:
                assert orbit_sizes[rows] == factorial(n) // len(aut)

    def test_automorphisms_fix_the_representative(self):
        for n in range(5):
            for rows, aut in preorder_orbits(n):
                for table in aut:
                    # the up-set of each element maps onto the up-set of its image
                    image = [0] * n
                    for i, row in enumerate(rows):
                        image[table[1 << i].bit_length() - 1] = table[row]
                    assert tuple(image) == rows

    def test_pair_orbit_counts(self):
        for n, expected in ((3, 36), (4, 337), (5, 4323)):
            partitions = tuple(set_partitions([str(i) for i in range(n)]))
            count = labeled = 0
            for _, aut in preorder_orbits(n):
                for _, size in partition_orbits(partitions, aut):
                    count += 1
                    labeled += factorial(n) // len(aut) * size
            assert count == expected
            assert labeled == PREORDER_COUNTS[n] * PARTITION_COUNTS[n]

    @pytest.mark.parametrize("n", range(5))
    def test_weighted_sweep_matches_the_labeled_reference(self, n):
        assert exhaustive_verify(n).to_json() == helpers.labeled_sweep(n).to_json()


class TestNothingLeftBehind:
    """The labeled enumerations live only inside the call that reads them:
    after each entry, on return or on an exception, traced memory is back
    at its baseline. A cache of the n = 5 labeled posets alone would keep
    0.6 MB (20 MB at n = 6); tracing multiplies the time of each call by
    about five, so the checks run at n = 5."""

    @staticmethod
    def retained_mb(call) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / 2**20
        finally:
            tracemalloc.stop()

    @staticmethod
    def five_strata() -> Decomposition:
        # a stratification with one stratum per point: a chain of five
        chain = Proset.from_pairs("abcde", zip("abcd", "bcde"))
        return Decomposition.pointwise(alexandrov_space(chain))

    def test_nothing_is_left_on_return(self):
        dec = self.five_strata()
        for call in (lambda: list(enumerate_posets(5)), lambda: list(enumerate_prosets(5)),
                     lambda: compatible_orders(dec)):
            assert self.retained_mb(call) < 0.1

    def test_nothing_is_left_on_an_exception(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("refinement check")

        monkeypatch.setattr(oracle, "_refinements_continuous", broken)
        dec = self.five_strata()
        for call in (lambda: exhaustive_verify(5), lambda: compatible_orders(dec),
                     lambda: strict_refinements_never_open(dec)):
            def raising():
                with pytest.raises(RuntimeError, match="refinement check"):
                    call()

            assert self.retained_mb(raising) < 0.1


class TestSweep:
    def test_n0_has_one_trivial_instance(self):
        report = exhaustive_verify(0)
        assert report.instances == 1 and report.failures == 0

    def test_n3_is_clean(self):
        report = exhaustive_verify(3)
        assert report.instances == 145
        assert report.spaces == 29
        assert report.failures == 0
        assert report.order_pairs == 29 * 29
        tallies = dict(report.tallies)
        for name in (
            "alexandrov_triple_agreement",
            "frontier_quadruple_agreement",
            "poset_stratified_triple_agreement",
            "semicontinuity_pairings",
            "locally_closed_and_frontier_iff_poset_stratified_and_open",
            "quotient_fixpoint_matches_subset_filter",
        ):
            assert tallies[name].passed == 145 and tallies[name].failed == 0
        assert report.first_counterexample is None

    def test_report_repr_and_identity_equality(self):
        report = SweepReport(1, 1, 1, 0, (("x", Tally(1, 0)),), {"check": "x"})
        assert repr(report) == (
            "SweepReport(n=1, spaces=1, instances=1, order_pairs=0, "
            "tallies=(('x', Tally(passed=1, failed=0)),), first_counterexample={'check': 'x'})"
        )
        # it holds a dict, so equal fields do not make equal reports
        again = SweepReport(1, 1, 1, 0, (("x", Tally(1, 0)),), {"check": "x"})
        assert report == report and report != again and hash(report) != hash(again)
        with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
            report.n = 2

    def test_guard(self):
        with pytest.raises(ValidationError, match="^exhaustive sweep bound is 6 points$"):
            exhaustive_verify(7)

    def test_n5_report_bytes(self):
        report = exhaustive_verify(5)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == SWEEP5_SHA256.read_text().strip()

    def test_subset_filter_runs_once_per_instance(self, monkeypatch):
        # the definitional quotient and Alexandrov routes share one
        # filtered family of stratum sets per instance
        calls = {"filter": 0, "instances": 0}
        family, check = Decomposition.quotient_open_family, Sweep.check_instance

        def counted_family(self):
            calls["filter"] += 1
            return family(self)

        def counted_check(self, *args):
            calls["instances"] += 1
            return check(self, *args)

        monkeypatch.setattr(Decomposition, "quotient_open_family", counted_family)
        monkeypatch.setattr(Sweep, "check_instance", counted_check)
        exhaustive_verify(3)
        assert calls["instances"] > 0 and calls["filter"] == calls["instances"]

    def test_search_catches_a_wrong_poset_stratified_value(self, monkeypatch):
        # production decides the group by antisymmetry alone; only the
        # sweep's search over labeled partial orders can catch a wrong value
        decide = Decomposition.poset_stratified_equivalences

        def flipped(self):
            report = decide(self)
            return AgreementReport(report.labels, tuple(not v for v in report.values))

        monkeypatch.setattr(Decomposition, "poset_stratified_equivalences", flipped)
        report = exhaustive_verify(3)
        tally = dict(report.tallies)["poset_stratified_triple_agreement"]
        assert (tally.passed, tally.failed) == (0, report.instances)
        assert report.first_counterexample["check"] == "poset_stratified_triple_agreement"

    def test_sweep_catches_a_wrong_decomposition_preorder(self, monkeypatch):
        # production reads the preorder off the quotient; only the sweep
        # compares it with the closed saturations of the strata
        monkeypatch.setattr(
            "stratkit.decomposition.specialization_preorder",
            lambda space: Proset(space.points, space.point_closures),  # the opposite order
        )
        report = exhaustive_verify(3)
        tally = dict(report.tallies)["closed_saturation_matches_preorder_down_sets"]
        assert tally.failed > 0 and tally.passed > 0
        check = report.first_counterexample["check"]
        assert check == "closed_saturation_matches_preorder_down_sets"

    def test_sweep_catches_wrong_point_closures(self, monkeypatch):
        # production reads the specialization preorder off the minimal
        # opens; only the sweep's round-trip check compares the closures
        monkeypatch.setattr(
            FiniteSpace, "point_closures", property(lambda space: space.min_open)
        )
        report = exhaustive_verify(3)
        tally = dict(report.tallies)["adjunction_roundtrips"]
        assert tally.failed > 0 and tally.passed > 0
        assert report.first_counterexample["check"] == "adjunction_roundtrips"

    def test_sweep_catches_a_wrong_openness_witness(self, monkeypatch):
        # naming the last failing minimal open instead of the first changes
        # no reported value; only the comparison with the point-level map
        # under semicontinuity_pairings can see it. No map onto a quotient
        # of a space with at most 3 points has two failing minimal opens,
        # so the sweep runs at n = 4.
        one_pass = Decomposition._onto_quotient

        def last_failure(self, closed):
            if closed:
                return one_pass(self, closed)
            up_rows = self.quotient_space.min_open
            images = [(b, rows_meeting(self.masks, b)) for b in self.space._open_basis]
            failing = [b for b, image in images if preimage_of(up_rows, image) & ~image]
            verdict = Verdict(not failing, self.space.names_of(failing[-1]) if failing else None)
            return verdict, verdict.holds

        monkeypatch.setattr(Decomposition, "_onto_quotient", last_failure)
        report = exhaustive_verify(4)
        tallies = dict(report.tallies)
        assert tallies["semicontinuity_pairings"].failed > 0
        assert report.failures == tallies["semicontinuity_pairings"].failed
        assert report.first_counterexample["check"] == "semicontinuity_pairings"

    def test_sweep_catches_a_broken_combination_law(self, monkeypatch):
        # production does not assert the combination law; a wrong
        # locally-closed clause must show in the sweep's tally
        monkeypatch.setattr(
            Decomposition,
            "locally_closed_strata",
            lambda self: tuple((sid, Verdict(True)) for sid in self.ids),
        )
        report = exhaustive_verify(3)
        law = "locally_closed_and_frontier_iff_poset_stratified_and_open"
        tally = dict(report.tallies)[law]
        assert tally.failed > 0 and tally.passed > 0
        assert report.first_counterexample["check"] == law

    def test_sweep_catches_flipped_local_closure(self, monkeypatch):
        # classify and is_stratification read the production tuple of
        # booleans; flipping it must show in the sweep
        decide = Decomposition._locally_closed.func
        monkeypatch.setattr(
            Decomposition,
            "_locally_closed",
            property(lambda self: tuple([not holds for holds in decide(self)])),
        )
        report = exhaustive_verify(3)
        assert report.failures > 0
        tallies = dict(report.tallies)
        law = "locally_closed_and_frontier_iff_poset_stratified_and_open"
        assert tallies[law].failed > 0

    def test_sweep_catches_an_order_search_without_refinements(self, monkeypatch):
        # a search that finds only the decomposition preorder itself leaves
        # the refinement statements nothing to run on; the check that every
        # labeled order above a partial-order preorder is continuous sees it
        search = oracle._orders_by_continuity

        def without_refinements(dec, orders):
            orders, continuous = search(dec, orders)
            base = dec.preorder.up
            return orders, [
                ok and not (rows != base and rows_within(base, rows))
                for rows, ok in zip(orders, continuous)
            ]

        monkeypatch.setattr(oracle, "_orders_by_continuity", without_refinements)
        report = exhaustive_verify(3)
        tally = dict(report.tallies)["poset_stratified_triple_agreement"]
        assert tally.failed > 0 and tally.passed > 0
        assert report.first_counterexample["check"] == "poset_stratified_triple_agreement"

    def test_the_law_table_names_every_tallied_check(self):
        # a law that never applies, or a name recorded outside the table, shows here
        tallied = {name for name, _ in exhaustive_verify(4).tallies}
        assert {law.name for law in oracle.LAWS} == tallied

    def test_a_raising_agreement_fails_the_laws_that_read_it(self, monkeypatch):
        def raising(self):
            raise InternalInvariantError("frontier characterizations disagree")

        monkeypatch.setattr(Decomposition, "frontier_equivalences", raising)
        report = exhaustive_verify(3)
        tallies = dict(report.tallies)
        tally = tallies["frontier_quadruple_agreement"]
        assert (tally.passed, tally.failed) == (0, report.instances)
        # a law that reads the value fails too, where it once went unrecorded
        assert tallies["locally_closed_and_frontier_iff_poset_stratified_and_open"].failed > 0
        # the first counterexample names the first law in table order that fails
        first = next(law.name for law in oracle.LAWS if tallies.get(law.name, Tally(0, 0)).failed)
        assert report.first_counterexample["check"] == first == "frontier_quadruple_agreement"

    def test_report_serializes(self):
        report = exhaustive_verify(2)
        payload = json.loads(report.to_json())
        assert payload["failures"] == 0
        assert payload["instances"] == report.instances

    def test_summary_format(self):
        assert exhaustive_verify(2).summary().endswith("instances, 0 failures")
