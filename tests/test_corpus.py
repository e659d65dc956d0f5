"""Golden tests over the benchmark corpus: every seed-1 instance.

Each instance runs parse -> analyze -> decide -> certify or witness -> verify
through the benchmark's own pipeline.  No operation may fail or assert
something false, and each workload keeps at least its recorded number of
exact outcomes, so a later change may raise these counts but not lower them.

The curve analysis of each instance is also compared with
`tests/data/corpus_points.json`: the shear, and per point its realness,
incidences, own singularities, classification and coordinates (rational ones
exact, algebraic ones as the defining u-polynomial plus 12-digit floats).
Regenerate the file with `PYTHONPATH=src python tests/test_corpus.py --write`
only when a change is meant to alter the analysis.
"""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from bench_instances import generate  # noqa: E402
from bench_pipeline import run_operation  # noqa: E402

from soscurves.curve import analyze_curve  # noqa: E402
from soscurves.points import AlgebraicPoint, ConjugatePairPoint, RationalPoint  # noqa: E402
from soscurves.polyparse import format_unipoly, parse_bipoly  # noqa: E402

BUDGET_S = 30.0
MIN_EXACT = {"line-forest": 172, "compact-gram": 8, "shear-elim": 13}
GOLDEN = Path(__file__).resolve().parent / "data" / "corpus_points.json"


@pytest.mark.parametrize("workload", sorted(MIN_EXACT))
def test_corpus_outcomes(workload):
    results = [(inst, run_operation(inst, BUDGET_S)) for inst in generate(workload, 1)]
    bad = [(inst.name, res.outcome, res.detail) for inst, res in results if res.outcome == "failed" or res.wrong]
    assert not bad
    exact = sum(res.outcome == "exact" for _, res in results)
    assert exact >= MIN_EXACT[workload]


def _point_entry(rec) -> dict:
    p = rec.point
    entry = {"real": rec.is_real, "components": list(rec.components), "singular_on": list(rec.singular_on)}
    if isinstance(p, RationalPoint):
        entry["xy"] = [str(p.x), str(p.y)]
    elif isinstance(p, AlgebraicPoint):
        entry["u_poly"] = format_unipoly(p.u.poly, "u")
        entry["xy_float"] = [float(f"{v:.12g}") for v in p.as_floats()]
    else:
        assert isinstance(p, ConjugatePairPoint)
        entry["abscissa"] = None if p.abscissa is None else str(p.abscissa)
        entry["y_quadratic"] = None if p.y_quadratic is None else format_unipoly(p.y_quadratic, "y")
    cls = rec.classification
    if cls is not None:
        entry["kind"] = cls.kind.value
    return entry


def analysis_record(factors: tuple[str, ...]) -> dict:
    """The golden record of one instance's curve analysis."""
    analysis = analyze_curve([parse_bipoly(s) for s in factors])
    shear = None if analysis.shear is None else str(analysis.shear)
    return {"shear": shear, "points": [_point_entry(rec) for rec in analysis.points]}


def _same(got, want) -> bool:
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return got == want


@pytest.mark.parametrize("workload", sorted(MIN_EXACT))
def test_corpus_points(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    instances = generate(workload, 1)
    assert sorted(golden) == sorted(inst.name for inst in instances)
    bad = [inst.name for inst in instances if not _same(analysis_record(inst.factors), golden[inst.name])]
    assert not bad


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    # one instance per line keeps the file small and its diffs readable
    blocks = []
    for workload in sorted(MIN_EXACT):
        rows = ",\n".join(
            f"  {json.dumps(inst.name)}: {json.dumps(analysis_record(inst.factors), sort_keys=True)}"
            for inst in generate(workload, 1)
        )
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
