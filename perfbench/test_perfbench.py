"""Tests for the benchmark harness: seeding, outcome classification, tracing."""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dataclasses import replace

import pytest
from soscurves import decide
from soscurves.tribool import TriBool

from bench_instances import GENERATORS, Instance, generate, known_defects
from bench_pipeline import run_operation
from bench_trace import TARGETS, LayerTrace


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_reproduces_instance_strings(workload):
    first = generate(workload, 7)
    assert first == generate(workload, 7)
    assert first != generate(workload, 8)
    for inst in first:
        assert all(isinstance(f, str) for f in inst.factors)
        assert inst.verdict in ("YES", "NO")
        assert inst.verdict == "NO" or inst.target is not None


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_known_defects_stay_out_of_the_measured_instances(workload):
    measured = {(inst.factors, inst.target) for inst in generate(workload, 7)}
    for inst in known_defects(workload):
        assert inst.outcome == "failed"
        assert (inst.factors, inst.target) not in measured


@pytest.mark.parametrize(
    "inst,budget,outcome",
    [
        (Instance("exact-certificate", ("x^2+y^2-1",), "x^2+1", "YES"), 30, "exact"),
        (Instance("numeric-certificate", ("x*y-2", "x-1", "x-3"), "x^2+y^2+1", "YES"), 30, "numeric"),
        (Instance("cycle-witness", ("x", "y", "1-x-y"), None, "NO"), 30, "exact"),
        (Instance("timeout", ("x^2+y^2-1",), "x^8+x^3*y+3", "YES"), 0.3, "failed"),
    ],
    ids=lambda v: v.name if isinstance(v, Instance) else None,
)
def test_outcome_classifier(inst, budget, outcome):
    res = run_operation(inst, budget)
    assert res.outcome == outcome, res.detail
    assert not res.wrong
    if inst.name == "cycle-witness":
        assert res.detail == "CycleObstruction verified"
    if inst.name == "timeout":
        assert res.timed_out
        assert res.seconds < 5


def test_wrong_verdict_is_failed_and_wrong():
    res = run_operation(Instance("wrong", ("x", "y", "1-x-y"), None, "YES"), 30)
    assert (res.outcome, res.wrong) == ("failed", True)


def test_unknown_verdict_is_failed_not_wrong(monkeypatch):
    real = decide.decide_psd_eq_sos
    monkeypatch.setattr(
        decide, "decide_psd_eq_sos", lambda config: replace(real(config), answer=TriBool.UNKNOWN)
    )
    res = run_operation(Instance("unknown", ("x", "y", "1-x-y"), None, "NO"), 30)
    assert (res.outcome, res.wrong) == ("failed", False), res.detail


def _soscurves_names():
    """Every (holder, attribute) -> object binding that tracing may touch."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("soscurves") and mod is not None:
            for key, value in vars(mod).items():
                seen[(name, key)] = value
    for cls in (sys.modules["soscurves.unipoly"].UniPoly, sys.modules["soscurves.bipoly"].BiPoly):
        for key, value in vars(cls).items():
            seen[(cls.__qualname__, key)] = value
    return seen


def test_traced_run_restores_every_name():
    before = _soscurves_names()
    trace = LayerTrace()
    with trace:
        patched = _soscurves_names()
        res = run_operation(Instance("shear", ("x^2+y^2-1", "y-x", "y+x"), "1", "YES"), 30)
    after = _soscurves_names()
    assert res.outcome == "refused"
    assert sum(before[k] is not patched[k] for k in before) >= len(TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert trace.stats["L2.resultant_y"].calls > 0
    assert trace.stats["L3.shear_score"].calls > 0
    metrics = trace.metrics(1)
    assert metrics["L0.unipoly_mul.calls"] > 0
    assert 0 <= metrics["L3.fast_intersection.hit_ratio"] <= 1
