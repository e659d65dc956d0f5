"""Run the benchmark alternately in two checkouts and compare end-to-end metrics.

    python3 tools/ab_pairs.py --parent <old checkout> --change <new checkout> \\
        --workload shear-elim --seed 11 --seconds 30 --pairs 10 [--json out.json]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one run at a time; the side that runs
first alternates from pair to pair, so a slow drift of the machine weighs
on both sides alike.  Every run's last line is its JSON result.  The tool
prints each pair's end-to-end metrics, then per metric the median and
quartiles of each side and the number of pairs the change won, reading
which direction is better from the change's BENCHMARK.json.  A tie counts
as no win.  --json writes the runs and the summary to a file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {root}: run.py exited with {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "failed": result["failed"], "correct": result["correct"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict[str, dict]:
    out = {}
    for name, direction in better.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        if direction == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "better": direction,
            "parent_median": pq[1], "parent_q1": pq[0], "parent_q3": pq[2],
            "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
            "parent_iqr": pq[2] - pq[0],
            "change_wins": wins, "pairs": len(parent),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))
        cells = "  ".join(
            f"{name} {runs['parent'][-1][name]:.5g} -> {runs['change'][-1][name]:.5g}" for name in better
        )
        print(f"pair {k + 1}: {cells}", flush=True)
    summary = summarize(runs, better)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name, s in summary.items():
        print(
            f"  {name} ({s['better']} is better): parent {s['parent_median']:.5g} "
            f"[{s['parent_q1']:.5g}, {s['parent_q3']:.5g}], change {s['change_median']:.5g} "
            f"[{s['change_q1']:.5g}, {s['change_q3']:.5g}], change won {s['change_wins']} of {s['pairs']}"
        )
    for side in SIDES:
        if any(r["failed"] or not r["correct"] for r in runs[side]):
            print(f"  warning: the {side} had failed or wrong operations")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "runs": runs, "summary": summary,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
