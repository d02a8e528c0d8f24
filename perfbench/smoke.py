"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (``--smoke``), untraced and traced, and
asserts that each run is correct and emits every metric named in
``BENCHMARK.json`` with its unit. It also checks that the metric lists in
``BENCHMARK.json`` match ``metrics.py``, and that the benchmark refuses to
run, without printing a result, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``. Takes about 15 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_spec(spec: dict) -> None:
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, f"end_to_end differs from metrics.py: {declared}"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    assert declared == expected, "per_layer differs from metrics.py"


def check_run(workload: str, trace: int, spec: dict) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == RESULT_KEYS, f"{workload}: result keys {sorted(last)}"
    assert last["correct"] is True, f"{workload}: incorrect\n{proc.stdout}"
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}, f"{workload}: metric names"
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{workload}: {m['name']} value"
        assert f"{m['name']} " in proc.stdout, f"{workload}: {m['name']} not printed by name"
    print(f"ok  {workload:15s} trace={trace}  {len(wanted)} metrics")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "sweep", 0)
        assert proc.returncode != 0, "ran without the library sources"
        assert not proc.stdout.strip(), "printed a result without the library sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
