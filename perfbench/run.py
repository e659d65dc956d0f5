"""Run the soscurves benchmark: parse -> analyze -> decide -> certify/witness -> verify.

One workload, as a measured run ending in one JSON line:

    python3 perfbench/run.py --workload line-forest --seed 1 --seconds 30 --trace 0

Every workload, one row each (end-to-end metrics, or per-layer with --trace 1):

    python3 perfbench/run.py --seed 1 --seconds 30

Load: one process, one thread, closed loop (the next operation starts when
the previous one ends).  See perfbench/README.md for the metrics and the
workloads.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS thread count, pinned before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_speed import SpeedGauge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# per-operation budget, far above the slowest passing instance of each workload
BUDGET_S = {"line-forest": 8.0, "compact-gram": 4.0, "shear-elim": 40.0}
SETUP_SAMPLES = 5
TAIL_OPS = 10  # operations a run must time beyond its p90
HARD_LIMIT_S = 150.0  # a run stops starting operations after this, whatever --seconds says

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "1/s"),
    ("completed_share", "share"),
    ("exact_share", "share"),
    ("peak_rss_mb", "MB"),
)


def setup(workload: str, seed: int):
    """Import the library and generate the instances; returns (instances, seconds)."""
    t0 = time.perf_counter()
    if not (SRC / "soscurves").is_dir():
        raise SystemExit(f"error: the soscurves sources are missing ({SRC / 'soscurves'})")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench_pipeline  # noqa: F401  imports every soscurves layer an operation uses
    from bench_instances import generate

    instances = generate(workload, seed)
    return instances, time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, first: float) -> float:
    """Median calibrated set-up time over this process and fresh child processes."""
    samples = [first / SpeedGauge().factor()]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def tail_ops(runs) -> int:
    """Operations whose calibrated time lies beyond the run's p90."""
    times = op_times(runs)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return sum(t > p90 for t in times)


def measure(instances, budget_s: float, seconds: float, trace=None):
    """Closed loop over the instances, in passes, for `seconds` (at least one full pass).

    An untraced run goes on past `seconds` until TAIL_OPS operations lie
    beyond its p90.  An instance whose operation ran out of budget is not
    repeated in the same run: each repeat would cost the whole budget again
    and tell nothing new.  Each result is kept with the machine's speed
    factor during it: the mean of the gauge's factors before and after it.
    With `trace`, every operation that did not time out runs again, traced;
    the traced-minus-untraced time is the tracing overhead.  Returns the
    (result, speed) pairs per instance, the traced operation count and the
    overhead.
    """
    from bench_pipeline import run_operation

    gauge = SpeedGauge()
    runs: list[list] = [[] for _ in instances]
    traced_ops, traced_s, untraced_s = 0, 0.0, 0.0
    start = time.perf_counter()
    deadline = start + seconds
    full_passes = 0

    def finished() -> bool:
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S:
            return True
        if not full_passes or now < deadline:
            return False
        return trace is not None or tail_ops(runs) >= TAIL_OPS

    while not finished():
        for inst, done in zip(instances, runs):
            if finished():
                break
            if done and done[-1][0].timed_out:
                continue
            before = gauge.factor()
            res = run_operation(inst, budget_s)
            done.append((res, (before + gauge.factor()) / 2))
            if trace is not None and not res.timed_out:
                with trace:
                    again = run_operation(inst, budget_s)
                traced_ops += 1
                untraced_s += res.seconds
                traced_s += again.seconds
        full_passes += 1
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return runs, traced_ops, overhead


def check_known_defects(workload: str, budget_s: float):
    """Run each of the workload's known-defect reproducers once, untimed.

    They fail by design, so they stay out of the measured operations and out
    of `attempted` and `failed`; the run reports whether each still fails.
    """
    from bench_instances import known_defects
    from bench_pipeline import run_operation

    return [(inst, run_operation(inst, budget_s)) for inst in known_defects(workload)]


def op_times(runs, calibrate: bool = True) -> list[float]:
    """Each operation's time; calibrated, it is the time at quiet-spell speed.

    A timeout stays at its wall-clock budget either way.
    """
    return [
        r.seconds if r.timed_out or not calibrate else r.seconds / speed
        for done in runs for r, speed in done
    ]


def summarize(runs, calibrate: bool = True) -> dict[str, float]:
    """End-to-end metrics: latencies over operations, the rest over instances.

    Latencies count every operation, repeats of an instance included.  Times
    are calibrated by the speed gauge (see bench_speed) unless `calibrate` is
    false.  Throughput is that of one sweep over the instances, each once at
    its mean time: the completed instances over the sweep's busy time.  A
    share is the mean over instances of the share of each instance's
    operations.  So neither a timed-out instance, run once, nor the pass that
    the deadline cut short tilts them: whether that pass reaches a heavy
    instance such as the 3 cubics moved a per-operation throughput by 0.14
    of its median from seed to seed.
    """
    done_runs = [done for done in runs if done]
    times = op_times(runs, calibrate)
    share = {
        o: statistics.fmean(sum(r.outcome == o for r, _ in done) / len(done) for done in done_runs)
        for o in ("exact", "failed")
    }
    sweep_s = sum(statistics.fmean(op_times([done], calibrate)) for done in done_runs)
    return {
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "throughput_per_s": len(done_runs) * (1.0 - share["failed"]) / sweep_s,
        "completed_share": 1.0 - share["failed"],
        "exact_share": share["exact"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": workload,
        "seed": seed,
    }


def run_workload(args) -> int:
    instances, first_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(first_setup / SpeedGauge().factor())
        return 0
    from bench_pipeline import OUTCOMES

    setup_s = setup_seconds(args.workload, args.seed, first_setup)
    budget_s = BUDGET_S[args.workload]

    trace = None
    if args.trace:
        from bench_trace import LayerTrace

        trace = LayerTrace()
    runs, traced_ops, overhead = measure(instances, budget_s, args.seconds, trace)
    defects = check_known_defects(args.workload, budget_s)

    ops = [r for done in runs for r, _ in done]
    attempted = len(ops)
    failed = sum(r.outcome == "failed" for r in ops)
    wrong = [(inst.name, r.detail) for inst, done in zip(instances, runs) for r, _ in done if r.wrong]
    wrong += [(inst.name, r.detail) for inst, r in defects if r.wrong]
    env = environment(args.workload, args.seed)
    env.update(
        instances=len(instances),
        attempted=attempted,
        failed=failed,
        outcomes={o: sum(r.outcome == o for r in ops) for o in OUTCOMES},
        budget_s=budget_s,
        known_defects={inst.name: r.outcome for inst, r in defects},
    )
    print("environment " + json.dumps(env))
    for inst, r in defects:
        state = "reproduced" if r.outcome == inst.outcome else "no longer reproduced"
        print(f"known defect {inst.name}: {state}: {r.outcome}: {r.detail}")
    for inst, done in zip(instances, runs):
        first = done[0][0] if done else None
        if inst.outcome is not None and first is not None and first.outcome != inst.outcome:
            print(f"note: {inst.name} expected {inst.outcome}, got {first.outcome}: {first.detail}")
    for name, detail in wrong:
        print(f"WRONG: {name}: {detail}", file=sys.stderr)

    if trace is None:
        raw = summarize(runs, calibrate=False)
        speeds = [f for done in runs for _, f in done]
        print(f"machine speed factor: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f}")
        print("uncalibrated " + json.dumps({k: raw[k] for k in ("latency_p50_s", "latency_p90_s", "throughput_per_s")}))
        values = summarize(runs)
        values["setup_s"] = setup_s
        beyond = sum(t > values["latency_p90_s"] for t in op_times(runs))
        print(f"operations beyond p90: {beyond} of {attempted}")
        if beyond < TAIL_OPS:
            print(f"warning: only {beyond} operations beyond p90, fewer than {TAIL_OPS}; "
                  "latency_p90_s rests on too few of them", file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = trace.metrics(traced_ops)
        layer["trace.overhead_share"] = overhead
        for name, self_s, total_s in trace.top_self_time():
            print(f"self time {name}: {self_s:.3f} s (total {total_s:.3f} s)")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layer.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "L5.gram_iterations":
        return "1/op"
    if name.endswith("_s"):
        return "s/op"
    return "ratio"


def run_all(args) -> int:
    """Every workload in its own process; prints one row per workload."""
    rows, status = {}, 0
    for workload in BUDGET_S:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        sys.stdout.write("".join(f"[{workload}] {line}\n" for line in lines[:-1]))
        sys.stderr.write(out.stderr)
        if out.returncode != 0 or not lines:
            print(f"FAILED: {workload} exited with {out.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"FAILED: {workload} produced a wrong answer", file=sys.stderr)
            status = 1
        rows[workload] = result
    if not rows:
        return 1
    names = list(next(iter(rows.values()))["metrics"])
    width = max(len(n) for n in names) + 8
    print("metric (unit)".ljust(width) + "".join(w.rjust(14) for w in rows))
    for name in names:
        unit = next(iter(rows.values()))["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:14.6g}" for r in rows.values())
        print(f"{name} ({unit})".ljust(width) + cells)
    for key in ("attempted", "failed"):
        print(key.ljust(width) + "".join(f"{r[key]:14d}" for r in rows.values()))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(BUDGET_S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
