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
    LineFn,
    float_value,
    restrict_to_chart,
    sum_of_squares,
    value_at_algebraic,
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
        xf, yf = p.as_floats()
        box = p.u.refined(60)
        u0 = float(box.low + box.high) / 2.0
        for idx in rec.components:
            chart = analysis.components[idx].chart
            assert isinstance(chart, CircleChart)
            for _ in range(10):
                fn = _random_circle_fn(rng, chart.q)
                got = value_at_algebraic(fn, chart, p).poly.eval_float(u0)
                want = float_value(fn, chart, xf, yf)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# line-type components against a line or a circle, meeting at irrational
# points: a parabola whose axis is tilted (both chart coordinates have degree
# two) and a hyperbola (a punctured chart)
_LINE_TYPE_PAIRS = {
    "tilted-parabola": ("x^2 + 2*x*y + y^2 - x + y", "4*y + 1"),
    "hyperbola-line": ("x*y - 1", "x + y - 3"),
    "hyperbola-circle": ("x*y - 1", "x^2 + y^2 - 3"),
}


@pytest.mark.parametrize("case", [*range(4), *_LINE_TYPE_PAIRS])
def test_restrictions_agree_at_shared_algebraic_points(case):
    if isinstance(case, int):
        analysis, shared = _circle_pair(case)
        rng = random.Random(100 + case)
    else:
        analysis = analyze_curve([B(f) for f in _LINE_TYPE_PAIRS[case]])
        shared = [rec for rec in analysis.points if rec.is_real and len(rec.components) == 2]
        assert shared and all(isinstance(rec.point, AlgebraicPoint) for rec in shared)
        rng = random.Random(case)
    for rec in shared:
        for i in rec.components:
            c = analysis.components[i].chart
            assert value_at_algebraic(restrict_to_chart(B("x"), c), c, rec.point) == rec.point.x
            assert value_at_algebraic(restrict_to_chart(B("y"), c), c, rec.point) == rec.point.y
    for _ in range(5):
        F = _random_plane_poly(rng)
        for rec in shared:
            c1, c2 = (analysis.components[i].chart for i in rec.components)
            f1, f2 = restrict_to_chart(F, c1), restrict_to_chart(F, c2)
            v1, v2 = (value_at_algebraic(f, c, rec.point) for f, c in ((f1, c1), (f2, c2)))
            assert (v1 - v2).is_zero()
            w2 = value_at_algebraic(restrict_to_chart(F + B("1"), c2), c2, rec.point)
            assert not (v1 - w2).is_zero()
            assert not (w2 - v1).is_zero()


# -- one-pass sums of squares against the product-and-add chain ----------------


def _random_uni(rng, zero_share=0.2):
    """A seeded polynomial with mixed denominators; zero now and then."""
    if rng.random() < zero_share:
        return UniPoly.zero()
    return UniPoly([_rat(rng, -9, 9, (1, 2, 3, 5, 7)) for _ in range(rng.randint(1, 5))])


def _chain_dot(ps, qs):
    total = UniPoly.zero()
    for p, q in zip(ps, qs):
        total = total + p * q
    return total


def _chain_squares(fns, zero):
    total = zero
    for f in fns:
        total = total + f * f
    return total


@pytest.mark.parametrize("seed", range(6))
def test_dot_matches_products_and_sums(seed):
    rng = random.Random(f"dot/{seed}")
    for size in range(6):
        ps = [_random_uni(rng) for _ in range(size)]
        qs = [_random_uni(rng) for _ in range(size)]
        assert UniPoly.dot(ps, qs) == _chain_dot(ps, qs)
        assert UniPoly.dot(ps, ps) == _chain_dot(ps, ps)
    # cancellation down to zero, and the empty sum
    p = UniPoly([Fr(1, 3), 2])
    assert UniPoly.dot([p, p], [p, -p]).is_zero()
    assert UniPoly.dot([], []) == UniPoly.zero()
    with pytest.raises(ValueError):
        UniPoly.dot([p, p], [p])


@pytest.mark.parametrize("seed", range(6))
def test_line_sum_of_squares_matches_the_chain(seed):
    rng = random.Random(f"line-sos/{seed}")
    pole = _rat(rng, -4, 4)
    for size in range(6):
        # mixed pole orders at one pole, order 0 and zero functions among them
        fns = [LineFn(_random_uni(rng), rng.randint(0, 3), pole) for _ in range(size)]
        assert LineFn.sum_of_squares(fns) == _chain_squares(fns, LineFn.zero())
        plain = [LineFn(_random_uni(rng)) for _ in range(size)]
        assert LineFn.sum_of_squares(plain) == _chain_squares(plain, LineFn.zero())
    # a numerator that the pole divides drops to a lower order first
    lin = UniPoly.linear_root(pole)
    fns = [LineFn(lin * UniPoly([1, 1]), 2, pole), LineFn(UniPoly([3]), 1, pole)]
    assert LineFn.sum_of_squares(fns) == _chain_squares(fns, LineFn.zero())
    assert LineFn.sum_of_squares([]) == LineFn.zero()
    with pytest.raises(ValueError):
        LineFn.sum_of_squares([LineFn(UniPoly([1]), 1, pole), LineFn(UniPoly([1]), 2, pole + 1)])


@pytest.mark.parametrize("seed", range(6))
def test_circle_sum_of_squares_matches_the_chain(seed):
    rng = random.Random(f"circle-sos/{seed}")
    q = UniPoly([_rat(rng, 1, 9), _rat(rng), -1])
    for size in range(6):
        fns = [
            CircleFn(_random_uni(rng), _random_uni(rng, 0.4), q) for _ in range(size)
        ]
        assert CircleFn.sum_of_squares(fns, q) == _chain_squares(fns, CircleFn.zero(q))
    assert CircleFn.sum_of_squares([], q) == CircleFn.zero(q)
    other = UniPoly([2, 0, -1])
    with pytest.raises(ValueError):
        CircleFn.sum_of_squares([CircleFn.const(1, q), CircleFn.const(1, other)], q)
    with pytest.raises(ValueError):
        CircleFn.sum_of_squares([CircleFn.const(1, other)], q)


def test_sum_of_squares_follows_the_target():
    q = UniPoly([1, 0, -1])
    line = [LineFn(UniPoly([1, Fr(1, 2)])), LineFn(UniPoly([Fr(-2, 3)]))]
    assert sum_of_squares(line, LineFn.const(5)) == LineFn.sum_of_squares(line)
    circle = [CircleFn(UniPoly([1, 2]), UniPoly([Fr(1, 3)]), q), CircleFn.const(2, q)]
    assert sum_of_squares(circle, CircleFn.const(1, q)) == CircleFn.sum_of_squares(circle, q)
    with pytest.raises(ValueError):
        sum_of_squares(circle, CircleFn.const(1, UniPoly([2, 0, -1])))
