"""Names, units and derivations of the benchmark's metrics.

``BENCHMARK.json`` lists the same names and units; ``smoke.py`` checks
that the two agree and that every run emits each of them.
"""

from __future__ import annotations

import math

# The tail latency percentile, the same on every workload and every run so
# that two commits compare the same percentile.
TAIL_PERCENTILE = 90

# The loop probe's time on a host at about this one's median speed: setup_s
# is each set-up over the loop probe timed right after it, times this.
PROBE_REFERENCE_MS = 4.0

# name -> unit of the bounded metrics. round_cost is one round in units of
# the probe, a fixed piece of work that runs no stratkit code and is timed
# right before every operation: on a shared host every time moves with the
# machine's slow phases, which last minutes, and the ratio cancels them.
# setup_raw_s, round_best_s, probe_p50_ms, wall_s, cpu_s, ops_per_s,
# latency_p50_ms, latency_tail_ms and ops_failed_ratio are printed beside
# them but not bounded (ops_failed_ratio is 0 on most workloads).
END_TO_END = {
    "setup_s": "s",
    "round_cost": "probes",
    "peak_rss_mb": "MB",
}


def _span(name, field="s"):
    return ("span", name, field)


def _count(name):
    return ("count", name)


def _ratio(numerator, denominator):
    return ("ratio", numerator, denominator)


# name -> (unit, better, source). Span times and counts are for one set-up,
# the once-only operations and one timed round; the cli.* and trace.*
# entries are measured apart.
PER_LAYER = {
    "decomposition.alexandrov.s": ("s", "lower", _span("decomposition.alexandrov")),
    "decomposition.alexandrov.calls": ("count", "lower", _span("decomposition.alexandrov", "calls")),
    "decomposition.subset_candidates": ("count", "lower", _count("decomposition.subset_candidates")),
    "decomposition.subset_open_ratio": (
        "ratio", "higher",
        _ratio("decomposition.subset_open", "decomposition.subset_candidates")),
    "decomposition.refused": ("count", "lower", _count("decomposition.refused")),
    "decomposition.poset_stratified.s": ("s", "lower", _span("decomposition.poset_stratified")),
    "decomposition.poset_stratified.calls": (
        "count", "lower", _span("decomposition.poset_stratified", "calls")),
    "decomposition.order_candidates": ("count", "lower", _count("decomposition.order_candidates")),
    "decomposition.frontier.s": ("s", "lower", _span("decomposition.frontier")),
    "decomposition.frontier.calls": ("count", "lower", _span("decomposition.frontier", "calls")),
    "decomposition.stratification.s": (
        "s", "lower", _span("decomposition.stratification", "self_s")),
    "decomposition.stratification.calls": (
        "count", "lower", _span("decomposition.stratification", "calls")),
    "decomposition.semicontinuity.s": ("s", "lower", _span("decomposition.semicontinuity")),
    "decomposition.quotient_space.s": ("s", "lower", _span("decomposition.quotient_space")),
    "decomposition.preorder.s": ("s", "lower", _span("decomposition.preorder")),
    "decomposition.build.s": ("s", "lower", _span("decomposition.build")),
    "decomposition.classify.s": ("s", "lower", _span("decomposition.classify")),
    "decomposition.classify.calls": ("count", "lower", _span("decomposition.classify", "calls")),
    "oracle.enumerate.s": ("s", "lower", _span("oracle.enumerate")),
    "oracle.enumerate.kept_ratio": (
        "ratio", "higher", _ratio("oracle.enumerate.kept", "oracle.enumerate.candidates")),
    "oracle.sweep_self.s": ("s", "lower", _span("oracle.sweep", "self_s")),
    "oracle.instances": ("count", "higher", _count("oracle.instances")),
    "oracle.order_pairs": ("count", "higher", _count("oracle.order_pairs")),
    "topology.space_build.s": ("s", "lower", _span("topology.space_build")),
    "topology.space_build.calls": ("count", "lower", _span("topology.space_build", "calls")),
    "topology.map_check.s": ("s", "lower", _span("topology.map_check")),
    "topology.map_check.calls": ("count", "lower", _span("topology.map_check", "calls")),
    "topology.final_topology.s": ("s", "lower", _span("topology.final_topology")),
    "topology.final_topology.calls": (
        "count", "lower", _span("topology.final_topology", "calls")),
    "order.proset_build.s": ("s", "lower", _span("order.proset_build")),
    "order.proset_build.calls": ("count", "lower", _span("order.proset_build", "calls")),
    "order.translations.s": ("s", "lower", _span("order.translations")),
    "order.oracle_checks.s": ("s", "lower", _span("order.oracle_checks")),
    "documents.save.s": ("s", "lower", _span("documents.save")),
    "documents.save.bytes": ("bytes", "lower", _count("documents.save.bytes")),
    "documents.load.s": ("s", "lower", _span("documents.load")),
    "documents.load.bytes": ("bytes", "lower", _count("documents.load.bytes")),
    "generate.preorder.s": ("s", "lower", _span("generate.preorder")),
    "generate.partition.s": ("s", "lower", _span("generate.partition")),
    "generate.draws": ("count", "lower", _count("generate.draws")),
    "fixtures.face_poset_model.s": ("s", "lower", _span("fixtures.face_poset_model")),
    "dot.export_dot.s": ("s", "lower", _span("dot.export_dot")),
    "cli.interpreter_start_ms": ("ms", "lower", None),
    "cli.import_ms": ("ms", "lower", None),
    "cli.command_ms": ("ms", "lower", None),
    "trace.untraced_wall_s": ("s", "lower", None),
    "trace.traced_wall_s": ("s", "lower", None),
    "trace.overhead_ratio": ("ratio", "lower", None),
}


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' rule)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_values(setup_totals, round_totals, setup_counts, round_counts, rounds: int) -> dict:
    """Per-layer metrics with a span or count source, for one set-up (with
    the once-only operations) plus one round: set-up totals plus round
    totals divided by ``rounds``."""

    def total(kind, name, field=None):
        if kind == "span":
            return (setup_totals.get(name, {}).get(field, 0.0)
                    + round_totals.get(name, {}).get(field, 0.0) / rounds)
        return setup_counts.get(name, 0.0) + round_counts.get(name, 0.0) / rounds

    out = {}
    for name, (unit, _, source) in PER_LAYER.items():
        if source is None:
            continue
        if source[0] == "span":
            out[name] = total("span", source[1], source[2])
        elif source[0] == "count":
            out[name] = total("count", source[1])
        else:
            denominator = total("count", source[2])
            out[name] = total("count", source[1]) / denominator if denominator else 0.0
    return out
