"""Repeat runs over several seeds and report each metric's median and
quartile spread.

    python3 perfbench/repeat.py --workload sweep --seeds 1-10 --seconds 25
    python3 perfbench/repeat.py --workload all --seeds 1-10 --save end_to_end_baseline
    python3 perfbench/repeat.py --workload all --seeds 1 --trace 1 --save per_layer_baseline_seed1

The spread is (q3 - q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``: the figure ``BENCHMARK.json``'s
bounds are set against. ``--save KEY`` writes the table under KEY in
``baseline.json`` (for instance ``end_to_end_baseline`` for the first set
of runs of a commit and ``end_to_end_second_set`` for the second); with a
single seed it stores the values themselves. Runs one process at a time,
from the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sweep", "classify-wide", "documents-bulk", "cli-check")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="KEY", help="store the table in baseline.json")
    args = parser.parse_args(argv)

    table = {}
    for workload in NAMES if args.workload == "all" else (args.workload,):
        runs = [one_run(workload, seed, args.seconds, args.trace)
                for seed in seed_range(args.seeds)]
        if len(runs) == 1:
            table[workload] = runs[0]
            for name, value in runs[0].items():
                print(f"{workload:15s} {name:34s} {value:14.6f}", flush=True)
            continue
        table[workload] = {name: summary([r[name] for r in runs]) for name in runs[0]}
        for name, row in table[workload].items():
            print(f"{workload:15s} {name:20s} median {row['median']:12.6f}  "
                  f"spread {row['spread']:.4f}  ({row['runs']} runs)", flush=True)
    if args.save:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        baseline.setdefault(args.save, {}).update(table)
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
