"""Exact values of component functions at shared algebraic points."""
import random
from fractions import Fraction as Fr

import pytest

from soscurves.components import CircleChart
from soscurves.curve import analyze_curve
from soscurves.points import AlgebraicPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import (
    CircleFn,
    float_value,
    restrict_to_chart,
    value_as_u_fraction,
    values_agree_at_algebraic,
)
from soscurves.unipoly import UniPoly


def _rat(rng, lo=-3, hi=3, dens=(1, 2, 3)):
    return Fr(rng.randint(lo, hi), rng.choice(dens))


def _circle_pair(seed):
    """Two conics in circle form, (x - a)^2 + (y + k*x - b)^2 = r, meeting in
    at least one real point with irrational coordinates; the analysis and
    its algebraic shared records."""
    rng = random.Random(f"circle-pair/{seed}")
    while True:
        factors = []
        for _ in range(2):
            a, b, k = _rat(rng), _rat(rng), _rat(rng, -1, 1)
            r = Fr(rng.randint(1, 9), rng.choice((1, 2)))
            factors.append(B(f"(x - ({a}))^2 + (y + ({k})*x - ({b}))^2 - ({r})"))
        analysis = analyze_curve(factors)
        shared = [
            rec
            for rec in analysis.points
            if rec.is_real and len(rec.components) == 2 and isinstance(rec.point, AlgebraicPoint)
        ]
        if shared:
            return analysis, shared


def _random_circle_fn(rng, q):
    a = UniPoly([_rat(rng) for _ in range(rng.randint(1, 4))])
    b = UniPoly([_rat(rng) for _ in range(rng.randint(0, 3))])
    return CircleFn(a, b, q)


def _random_plane_poly(rng):
    terms = [
        f"({_rat(rng)})*x^{i}*y^{j}" for i in range(4) for j in range(4 - i) if rng.random() < 0.5
    ]
    return B(" + ".join(terms) if terms else "1")


@pytest.mark.parametrize("seed", range(4))
def test_u_fraction_matches_the_float_value(seed):
    analysis, shared = _circle_pair(seed)
    rng = random.Random(seed)
    for rec in shared:
        p = rec.point
        xf, yf = p.as_floats(60)
        box = p.u.refined(60)
        u0 = float(box.low + box.high) / 2.0
        for idx in rec.components:
            chart = analysis.components[idx].chart
            assert isinstance(chart, CircleChart)
            for _ in range(10):
                fn = _random_circle_fn(rng, chart.q)
                num, den = value_as_u_fraction(fn, chart, p)
                got = num.eval_float(u0) / den.eval_float(u0)
                want = float_value(fn, chart, xf, yf)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_restrictions_agree_at_shared_algebraic_points(seed):
    analysis, shared = _circle_pair(seed)
    rng = random.Random(100 + seed)
    for _ in range(5):
        F = _random_plane_poly(rng)
        for rec in shared:
            c1, c2 = (analysis.components[i].chart for i in rec.components)
            f1, f2 = restrict_to_chart(F, c1), restrict_to_chart(F, c2)
            assert values_agree_at_algebraic(f1, c1, f2, c2, rec.point)
            g2 = restrict_to_chart(F + B("1"), c2)
            assert not values_agree_at_algebraic(f1, c1, g2, c2, rec.point)
            assert not values_agree_at_algebraic(g2, c2, f1, c1, rec.point)
