"""Golden test over the benchmark corpus: every seed-1 instance, end to end.

Each instance runs parse -> analyze -> decide -> certify or witness -> verify
through the benchmark's own pipeline.  No operation may fail or assert
something false, and each workload keeps at least its recorded number of
exact outcomes, so a later change may raise these counts but not lower them.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from bench_instances import generate  # noqa: E402
from bench_pipeline import run_operation  # noqa: E402

BUDGET_S = 30.0
MIN_EXACT = {"line-forest": 172, "compact-gram": 8, "shear-elim": 13}


@pytest.mark.parametrize("workload", sorted(MIN_EXACT))
def test_corpus_outcomes(workload):
    results = [(inst, run_operation(inst, BUDGET_S)) for inst in generate(workload, 1)]
    bad = [(inst.name, res.outcome, res.detail) for inst, res in results if res.outcome == "failed" or res.wrong]
    assert not bad
    exact = sum(res.outcome == "exact" for _, res in results)
    assert exact >= MIN_EXACT[workload]
