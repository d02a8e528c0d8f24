from __future__ import annotations

import json

import pytest

from stratkit import AgreementReport, Decomposition, ValidationError, exhaustive_verify
from stratkit.oracle import (
    PARTITION_COUNTS,
    POSET_COUNTS,
    PREORDER_COUNTS,
    enumerate_partitions,
    enumerate_posets,
    enumerate_prosets,
    labeled_poset_rows,
    labeled_preorder_rows,
    naive_preorder_rows,
    set_partitions,
)


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
            assert sorted(naive_preorder_rows(n)) == sorted(labeled_preorder_rows(n))

    def test_naive_filter_is_size_guarded(self):
        with pytest.raises(ValidationError):
            naive_preorder_rows(4)


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
        with pytest.raises(ValidationError, match="bound"):
            list(enumerate_prosets(5))
        with pytest.raises(ValidationError, match="bound"):
            list(enumerate_posets(5))
        with pytest.raises(ValidationError, match="bound"):
            list(enumerate_partitions(7))

    def test_partition_blocks_cover_without_overlap(self):
        points = ("0", "1", "2", "3")
        for partition in set_partitions(points):
            flat = [p for block in partition for p in block]
            assert sorted(flat) == sorted(points)


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

    def test_guard(self):
        with pytest.raises(ValidationError, match="bound"):
            exhaustive_verify(5)

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

    def test_report_serializes(self):
        report = exhaustive_verify(2)
        payload = json.loads(report.to_json())
        assert payload["failures"] == 0
        assert payload["instances"] == report.instances

    def test_summary_format(self):
        assert exhaustive_verify(2).summary().endswith("instances, 0 failures")
