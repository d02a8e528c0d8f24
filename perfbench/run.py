"""stratkit benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload classify-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The library is imported from ``src/`` of
the checkout this file sits in; nothing is installed. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run and its overhead against an untraced run of the same length. Each
metric is printed by name with its unit and sample count; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Traces and per-run details go to ``.perfbench/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here: imports, then inputs

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up samples per run: this process plus one fresh child before each of
# the first rounds, so that they spread over the start of the run
SETUP_CHILDREN = 4
PROBE_SAMPLES = 5
NAMES = ("sweep", "classify-wide", "documents-bulk", "cli-check")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def cpu_clock() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": read_commit(),
    }


def read_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- running operations --------------------------------------------------------------


def time_op(op, untimed=contextlib.nullcontext, probe=None) -> dict:
    """Run and time one operation, then check it inside ``untimed()``.
    With a ``probe``, time it first, right before the operation."""
    from workloads import FAILED, OK

    probe_wall = None
    if probe is not None:
        probe_wall = perf_counter()
        probe()
        probe_wall = perf_counter() - probe_wall
    wall0, cpu0 = perf_counter(), cpu_clock()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # an operation that raised is a failed operation
        result, error = None, exc
    wall, cpu = perf_counter() - wall0, cpu_clock() - cpu0
    if error is not None:
        status, detail, units = FAILED, f"{op.label}: {type(error).__name__}: {error}", 1
    else:
        with untimed():
            status, detail = op.check(result)
        units = op.units(result)
    return {"label": op.label, "wall": wall, "cpu": cpu, "status": status,
            "detail": detail, "units": units, "known": op.known_failure,
            "ok": status == OK, "probe": probe_wall}


def run_rounds(ops, before_round, seconds: float,
               untimed=contextlib.nullcontext, probe=None) -> list[list[dict]]:
    """Whole rounds, one pass over ``ops`` each, until ``seconds`` of wall
    time have passed (at least one round)."""
    rounds = []
    started = perf_counter()
    while not rounds or perf_counter() - started < seconds:
        before_round()
        rounds.append([time_op(op, untimed, probe) for op in ops])
    return rounds


def outcome(once, rounds) -> dict:
    from workloads import WRONG

    results = once + [r for rnd in rounds for r in rnd]
    failed = [r for r in results if not r["ok"]]
    incorrect = [r for r in failed if r["status"] == WRONG or not r["known"]]
    return {"attempted": len(results), "failed": len(failed),
            "correct": not incorrect,
            "problems": sorted({r["detail"] for r in incorrect}),
            "known": sorted({f"{r['label']}: {r['known']}" for r in failed if r["known"]})}


def end_to_end(workload, once, rounds, setup_samples) -> dict:
    """Every end-to-end metric as (value, unit, samples, note).

    ``round_cost`` divides each operation's time by that of the probe
    timed right before it, takes each operation's median ratio over the
    run and sums them over the round: the host's slow phases, which last
    minutes, slow the probe and the operation alike and cancel out. The
    bounded metrics (``metrics.END_TO_END``) come first; the medians and
    totals after them are printed for reading. ``setup_s`` scales each
    set-up by the loop probe timed right after it in the same process, for
    the same reason; ``setup_samples`` holds (set-up, probe) pairs in
    seconds."""
    from metrics import PROBE_REFERENCE_MS, TAIL_PERCENTILE, percentile

    round_wall = [sum(r["wall"] for r in rnd) for rnd in rounds]
    round_cpu = [sum(r["cpu"] for r in rnd) for rnd in rounds]
    latencies = [r["wall"] for rnd in rounds for r in rnd]
    columns = list(zip(*rounds))  # one per operation: rounds repeat the same ones
    best = [min(r["wall"] for r in column) for column in columns]
    cost = [median(r["wall"] / r["probe"] for r in column) for column in columns]
    probes = [r["probe"] for rnd in rounds for r in rnd]
    units = sum(r["units"] for rnd in rounds for r in rnd)
    pct = TAIL_PERCENTILE
    beyond = sum(1 for x in latencies if x > percentile(latencies, pct))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "cli-check":
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = outcome(once, rounds)
    return {
        "setup_s": (median(s / p for s, p in setup_samples) * PROBE_REFERENCE_MS / 1000, "s",
                    len(setup_samples),
                    f"median set-up at a {PROBE_REFERENCE_MS:g} ms loop probe"),
        "round_cost": (sum(cost), "probes", len(rounds),
                       "sum over operations of their median time over the probe's before them"),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1, "ru_maxrss"),
        "setup_raw_s": (median(s for s, _ in setup_samples), "s", len(setup_samples),
                        "median set-up as timed"),
        "round_best_s": (sum(best), "s", len(rounds),
                         "one round, each operation at its fastest of the run"),
        "probe_p50_ms": (1000 * median(probes), "ms", len(probes),
                         f"median {workload.probe_name}, timed before every operation"),
        "wall_s": (median(round_wall), "s", len(rounds), "median round"),
        "cpu_s": (median(round_cpu), "s", len(rounds), "median round"),
        "ops_per_s": (units / sum(round_wall), "1/s", units, f"{workload.unit} per second"),
        "latency_p50_ms": (1000 * median(latencies), "ms", len(latencies), "operations"),
        "latency_tail_ms": (1000 * percentile(latencies, pct), "ms", len(latencies),
                            f"p{pct} of operations, {beyond} beyond"),
        "ops_failed_ratio": (result["failed"] / result["attempted"], "ratio",
                             result["attempted"], f"{result['failed']} failed"),
    }


# -- set-up -------------------------------------------------------------------------


def self_command(args, workload: str, *extra) -> list[str]:
    """This benchmark, for ``workload``, with the run's seed and length."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    return cmd + list(extra)


def setup_probe() -> float:
    """Median time of the loop probe, run right after a set-up in the same
    process: how fast the host was while that set-up ran."""
    from workloads import loop_probe

    samples = []
    for _ in range(PROBE_SAMPLES):
        started = perf_counter()
        loop_probe()
        samples.append(perf_counter() - started)
    return median(samples)


def setup_in_child(args) -> tuple[float, float]:
    """Set-up time of a fresh process preparing the same inputs, and its
    ``setup_probe``."""
    proc = subprocess.run(self_command(args, args.workload, "--setup-only"), cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    setup, probe = proc.stdout.split()[-2:]
    return float(setup), float(probe)


def probe_ms(code: str) -> float:
    """Median wall time of ``python -c code`` with the checkout's src path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(PROBE_SAMPLES):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=60, capture_output=True)
        samples.append(1000 * (perf_counter() - started))
    return median(samples)


# -- the traced run ---------------------------------------------------------------------


def traced_run(args, workload, prepared, ops) -> tuple[dict, list, list, list]:
    """Per-layer metrics from one traced set-up and pass over the once-only
    operations, then traced rounds, which alternate with untraced rounds
    so that both see the same machine."""
    import workloads
    from metrics import layer_values
    from spans import Tracer

    tracer = Tracer()
    tracer.install(workloads)
    try:
        workload.prepare(ROOT, args.seed, args.smoke).cleanup()
        once = [time_op(op, tracer.paused) for op in prepared.once]
    finally:
        tracer.uninstall()
    setup_end = len(tracer)
    setup_counts = dict(tracer.counts)

    untraced, traced = [], []
    started = perf_counter()
    while not traced or perf_counter() - started < args.seconds:
        untraced += run_rounds(ops, prepared.before_round, 0)
        tracer.install(workloads)
        try:
            traced += run_rounds(ops, prepared.before_round, 0, untimed=tracer.paused)
        finally:
            tracer.uninstall()

    round_counts = {k: v - setup_counts.get(k, 0.0) for k, v in tracer.counts.items()}
    values = layer_values(tracer.totals(0, setup_end), tracer.totals(setup_end),
                          setup_counts, round_counts, len(traced))
    untraced_wall = median([sum(r["wall"] for r in rnd) for rnd in untraced])
    traced_wall = median([sum(r["wall"] for r in rnd) for rnd in traced])
    interpreter = probe_ms("pass")
    values.update({
        "cli.interpreter_start_ms": interpreter,
        "cli.import_ms": probe_ms("import stratkit") - interpreter,
        "cli.command_ms": (1000 * median([r["wall"] for rnd in untraced for r in rnd])
                           if workload.name == "cli-check" else 0.0),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    return values, once, untraced, traced


# -- output -----------------------------------------------------------------------------


def report(args, env, lines, result, metrics, detail) -> None:
    print(f"# stratkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit']}")
    for line in lines:
        print(line)
    print(f"# attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for item in result["known"]:
        print(f"# known failure: {item}")
    for item in result["problems"]:
        print(f"# INCORRECT: {item}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, **detail}, indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(self_command(args, name, "--trace", str(args.trace)),
                              cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stratkit" / "__init__.py").is_file():
        print(f"error: no stratkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import stratkit

    if Path(stratkit.__file__).resolve().parent != (SRC / "stratkit").resolve():
        print(f"error: imported stratkit from {stratkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(ROOT, args.seed, args.smoke)
    setup_self = perf_counter() - STARTED
    try:
        if args.setup_only:
            print(repr(setup_self), repr(setup_probe()))
            return 0
        return measure(args, workload, prepared, setup_self)
    finally:
        prepared.cleanup()


def measure(args, workload, prepared, setup_self) -> int:
    from metrics import END_TO_END, PER_LAYER

    env = environment()
    setup_samples = [(setup_self, setup_probe())]
    if args.trace:
        # subprocesses cannot be traced from outside: cli-check calls cli.main
        ops = prepared.in_process_ops if workload.name == "cli-check" else prepared.ops
        values, once, untraced, traced = traced_run(args, workload, prepared, ops)
        rounds = untraced + traced
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
        lines = [f"{name:34s} {values[name]:14.6f} {PER_LAYER[name][0]:6s} "
                 f"(traced rounds {len(traced)}, untraced rounds {len(untraced)})"
                 for name in PER_LAYER]
    else:
        children = 1 if args.smoke else SETUP_CHILDREN

        def before_round():
            if len(setup_samples) <= children:
                setup_samples.append(setup_in_child(args))
            prepared.before_round()

        started = perf_counter()  # the once-only operations count in the run's time
        once = [time_op(op) for op in prepared.once]
        rounds = run_rounds(prepared.ops, before_round, args.seconds - (perf_counter() - started),
                            probe=prepared.probe)
        while len(setup_samples) <= children:
            setup_samples.append(setup_in_child(args))
        table = end_to_end(workload, once, rounds, setup_samples)
        metrics = {name: {"value": table[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
        lines = [f"{name:19s} {value:14.6f} {unit:6s} (samples {samples}; {note})"
                 for name, (value, unit, samples, note) in table.items()]
        lines += [f"# once per run: {r['label']} {r['wall']:.6f} s (not a bounded metric)"
                  for r in once]
    result = outcome(once, rounds)
    detail = {"args": vars(args), "setup_samples": setup_samples,
              "once": [{k: r[k] for k in ("label", "wall", "cpu", "status")} for r in once],
              "metrics": metrics,
              "rounds": [[{k: r[k] for k in ("label", "wall", "cpu", "status", "probe")}
                          for r in rnd]
                         for rnd in rounds]}
    report(args, env, lines, result, metrics, detail)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
