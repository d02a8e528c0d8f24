"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

import helpers
from stratkit import (
    Poset,
    adjunction_roundtrips,
    alexandrov_space,
    compatible_orders,
    exhaustive_verify,
    fixture,
    save,
    singleton_local_closure_check,
    symbolic_local_finiteness,
)
from stratkit.cli import main
from stratkit.oracle import (
    enumerate_prosets,
    labeled_poset_rows,
    labeled_preorder_rows,
    set_partitions,
)

EQUIVALENCE_GROUPS = (
    "alexandrov_triple_agreement",
    "poset_stratified_triple_agreement",
    "frontier_quadruple_agreement",
    "locally_closed_and_frontier_iff_poset_stratified_and_open",
    "semicontinuity_pairings",
)

# sha256 of ``exhaustive_verify(n).to_json()``, the bytes ``perfbench/golden.json`` pins too
SWEEP_JSON_SHA256 = {
    3: "925b8dfde5268f186ada34a30380d176d125679df582274c646f24f95407166f",
    4: "9d5dfe89d32e04fec33da77bf3332f33deefc8f3d00e4ce601ddab6f646d6666",
}


README = Path(__file__).resolve().parent.parent / "README.md"


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def sweep3():
    start = time.perf_counter()
    report = exhaustive_verify(3)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep4():
    start = time.perf_counter()
    report = exhaustive_verify(4)
    return report, time.perf_counter() - start


def test_criterion_1_exhaustive_sweep_n3(sweep3):
    report, seconds = sweep3
    tallies = dict(report.tallies)
    ok = (
        report.spaces == 29
        and report.instances == 29 * 5
        and report.failures == 0
        and all(
            tallies[name].passed == 145 and tallies[name].failed == 0
            for name in EQUIVALENCE_GROUPS
        )
        and seconds < 1.0
    )
    report_line(
        1,
        ok,
        f"{report.instances} instances, {report.failures} failures, "
        f"all equivalence groups agree, {seconds:.3f}s",
    )


def test_criterion_2_exhaustive_sweep_n4(sweep4):
    report, seconds = sweep4
    tallies = dict(report.tallies)
    theorem_b = tallies["continuous_open_order_implies_stratification"]
    ok = (
        report.spaces == 355
        and report.instances == 355 * 15
        and report.failures == 0
        and report.order_pairs == 355 * 355  # every labeled poset per instance
        and all(
            tallies[name].passed == 5325 and tallies[name].failed == 0
            for name in EQUIVALENCE_GROUPS
        )
        and theorem_b.failed == 0
        and theorem_b.passed > 0
        and seconds < 60.0
    )
    report_line(
        2,
        ok,
        f"{report.instances} instances, {report.order_pairs} order pairs, "
        f"{report.failures} failures, {seconds:.2f}s",
    )


def test_sweep_reports_are_byte_identical(sweep3, sweep4):
    # every tally, not only the counts: a check moved between production
    # and the sweep must keep its name and its passes
    for n, (report, _) in ((3, sweep3), (4, sweep4)):
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == SWEEP_JSON_SHA256[n], f"n = {n}"


def test_criterion_3_fixture_verdicts():
    checks = []

    pc = fixture("pseudo_circle_4").document.value
    q = pc.quotient_space
    indiscrete = all(row == q.full_mask for row in q.min_open)
    checks.append(indiscrete)
    checks.append(all(v.holds for _, v in pc.locally_closed_strata()))
    checks.append(not pc.poset_stratified_equivalences().value)
    checks.append(not pc.frontier_equivalences().value)

    line = fixture("line_3").document.value
    checks.append(line.poset_stratified_equivalences().value)
    checks.append(line.preorder.leq("S0", "S1") and not line.preorder.leq("S1", "S0"))
    checks.append(not helpers.point_map(line).is_open().holds)
    checks.append(not line.is_stratification().holds)

    quad = fixture("quadrant_4").document.value
    checks.append(quad.is_stratification().holds)
    diamond_strict = {("0", "1"), ("0", "2"), ("0", "3"), ("1", "3"), ("2", "3")}
    p = quad.preorder
    checks.append(
        {(a, b) for a in p.elements for b in p.elements if a != b and p.leq(a, b)}
        == diamond_strict
    )
    chain = Poset.from_pairs("0123", [("0", "1"), ("1", "2"), ("2", "3")])
    against_chain = quad.check_against_order(chain)
    checks.append(against_chain.continuous and not against_chain.open)

    two = fixture("two_point_discrete").document.value
    checks.append(len(compatible_orders(two)) == 3)

    nat = symbolic_local_finiteness("NatUsual")
    checks.append(nat.locally_finite_poset and not nat.locally_finite_space)

    report_line(3, all(checks), f"{sum(checks)}/{len(checks)} fixture verdicts reproduced")


def test_criterion_4_adjunction_laws():
    count = 0
    for p in enumerate_prosets(4):
        space = alexandrov_space(p)
        adjunction_roundtrips(p, space)  # raises on any failed round-trip
        singleton_local_closure_check(p)  # raises if the biconditional breaks
        count += 1
    report_line(4, count == 355, f"round-trips and the singleton biconditional on {count} preorders")


def test_criterion_5_stratification_order_and_refinements(sweep3, sweep4):
    ok = True
    detail = []
    for label, (report, _) in (("n=3", sweep3), ("n=4", sweep4)):
        tallies = dict(report.tallies)
        thm_a = tallies["stratification_induces_initial_partial_order"]
        refinements = tallies["strict_refinement_is_continuous_never_open"]
        ok = ok and thm_a.failed == 0 and thm_a.passed > 0
        ok = ok and refinements.failed == 0
        detail.append(
            f"{label}: {thm_a.passed} stratifications, {refinements.passed} refinements"
        )
    report_line(5, ok, "; ".join(detail))


def test_criterion_6_enumeration_counts():
    expected_preorders = {2: 4, 3: 29, 4: 355}
    expected_posets = {3: 19, 4: 219}
    expected_partitions = {3: 5, 4: 15}
    ok = all(len(labeled_preorder_rows(n)) == c for n, c in expected_preorders.items())
    ok = ok and all(len(labeled_poset_rows(n)) == c for n, c in expected_posets.items())
    ok = ok and all(
        len(list(set_partitions([str(i) for i in range(n)]))) == c
        for n, c in expected_partitions.items()
    )
    rederived = all(
        sorted(helpers.naive_preorder_rows(n)) == sorted(labeled_preorder_rows(n))
        for n in range(4)
    )
    report_line(
        6,
        ok and rederived,
        "preorders 4/29/355, posets 19/219, partitions 5/15, naive filter agrees",
    )


def test_criterion_7_cli_determinism_and_exit_codes(tmp_path, capsys, monkeypatch):
    line_path = tmp_path / "line_3.json"
    line_path.write_text(save(fixture("line_3").document), encoding="utf-8")

    code1 = main(["classify", str(line_path), "--expect", "stratification"])
    out1 = capsys.readouterr().out
    scenario1 = code1 == 1 and "frontier condition fails" in out1

    code2 = main(["verify", "--exhaustive", "--points", "3"])
    out2 = capsys.readouterr().out
    scenario2 = code2 == 0 and "145 instances, 0 failures" in out2

    shown = main(["fixture", "show", "quadrant_4"])
    fixture_text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(fixture_text))
    code3 = main(["classify", "-", "--expect", "stratification"])
    capsys.readouterr()
    scenario3 = shown == 0 and code3 == 0

    outputs = []
    for _ in range(2):
        assert main(["check", str(line_path), "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    deterministic = outputs[0] == outputs[1] and json.loads(outputs[0])

    ok = scenario1 and scenario2 and scenario3 and bool(deterministic)
    report_line(
        7,
        ok,
        f"exit codes ({code1}, {code2}, {code3}) honored, repeated output byte-identical",
    )


def test_readme_quick_start_states_its_values():
    # each expression line of the README's "Library quick start" block
    # evaluates to the literal its comment starts with, of the same type
    text = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not isinstance(ast.parse(code).body[0], ast.Expr):
            exec(code, scope)
            continue
        stated = comment.strip()
        try:
            expected = ast.literal_eval(stated)
        except (SyntaxError, ValueError):  # a literal, then ": " and prose
            expected = ast.literal_eval(stated.split(":", 1)[0])
        value = eval(code, scope)
        assert (type(value), value) == (type(expected), expected), line
        checked.append(code.strip())
    assert len(checked) == 6, checked
