"""Screen the compact-gram draw pools; prints each base's draws to exclude.

    python3 perfbench/screen_pool.py

Runs every draw of each base's pool once, under the workload's budget, and
prints the numbers of the draws whose operation failed or took longer than
LIMIT_S.  Those go into the base's "excluded" list in data/instances.json,
so that no measured operation fails and a timeout is never a coin flip.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench_instances import compact_gram_draw, load_data
from bench_pipeline import run_operation
from run import BUDGET_S

LIMIT_S = 1.5  # a slower draw could come near the budget in a slow spell


def main() -> None:
    for base in load_data()["compact-gram"]["bases"]:
        excluded = []
        for k in range(base["pool"]):
            res = run_operation(compact_gram_draw(base, k), BUDGET_S["compact-gram"])
            print(f"{base['name']} draw {k}: {res.outcome} {res.seconds:.2f} s {res.detail}", flush=True)
            if res.outcome == "failed" or res.seconds > LIMIT_S:
                excluded.append(k)
        print(f"{base['name']} excluded: {excluded}")


if __name__ == "__main__":
    main()
