import random
from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import (
    BiPoly,
    DegenerateInput,
    NotBinaryQuadratic,
    QuadraticSplitKind,
    have_common_factor,
    resultant_y,
    split_binary_quadratic,
)
from soscurves.intersect import _subresultant_ladder
from soscurves.polyparse import parse_bipoly as B
from soscurves.polyparse import parse_unipoly as P
from soscurves.unipoly import UniPoly, isolate_real_roots


UNIT_CIRCLE = B("x^2 + y^2 - 1")


def test_arithmetic_and_evaluation():
    F = B("x^2 - 2*x*y + y^2")
    assert F == B("(x - y)^2")
    assert F(Fr(3), Fr(1)) == 4
    assert F.partial_x() == B("2x - 2y")
    assert F.total_degree == 2 and F.deg_x == 2 and F.deg_y == 2


def test_translate_moves_point_to_origin():
    F = UNIT_CIRCLE
    moved = F.translate(1, 0)  # now passes through the origin
    assert moved(0, 0) == 0
    assert moved == B("x^2 + 2x + y^2")


def test_compose_linear_shear():
    F = UNIT_CIRCLE.compose_linear(1, -1, 0, 1)  # x -> x - y
    assert F == B("x^2 - 2*x*y + 2*y^2 - 1")


def test_homogeneous_parts():
    F = B("x^3 + x*y - 2*y + 5")
    assert F.leading_form() == B("x^3")
    assert F.homogeneous_part(1) == B("-2y")
    assert F.homogeneous_part(0) == B("5")


def test_specialize_and_substitute():
    F = UNIT_CIRCLE
    assert F.specialize_x(Fr(1, 2)) == P("t^2 - 3/4")
    # parametrize the circle rationally and check the pullback vanishes
    num_x = P("1 - t^2")
    num_y = P("2t")
    den = P("1 + t^2")
    pulled = F.compose_rational(num_x, num_y, den)
    assert pulled.is_zero()


def test_resultant_frozen_circle_pairs():
    far = B("(x - 3)^2 + y^2 - 1")
    assert resultant_y(UNIT_CIRCLE, far) == P("36t^2 - 108t + 81")
    near = B("(x - 1)^2 + y^2 - 1")
    assert resultant_y(UNIT_CIRCLE, near) == P("4t^2 - 4t + 1")


def test_resultant_line_circle():
    assert resultant_y(UNIT_CIRCLE, B("x - y")) == P("2t^2 - 1")
    assert resultant_y(UNIT_CIRCLE, B("y - x^2 - 1")) == P("t^4 + 3t^2")


def test_resultant_vanishes_iff_common_component():
    F = UNIT_CIRCLE * B("x - y")
    assert resultant_y(F, B("x - y")).is_zero()
    assert have_common_factor(F, B("x - y"))
    assert not have_common_factor(UNIT_CIRCLE, B("(x-3)^2 + y^2 - 1"))


def test_common_factor_through_contents():
    # shared vertical line lives in the y-content of both inputs
    F = B("x - 2") * B("y - 1")
    G = B("x - 2") * UNIT_CIRCLE
    assert have_common_factor(F, G)


def test_resultant_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        resultant_y(B("x^2 - 1"), UNIT_CIRCLE)


def test_resultant_vs_root_elimination():
    # parabola against horizontal lines: eliminating y must leave exactly the
    # x-values where the curves meet, i.e. the roots of F(x, b)
    rng = random.Random(11)
    from soscurves.unipoly import boxes_equal

    for _ in range(10):
        a, b = Fr(rng.randint(-3, 3)), Fr(rng.randint(-3, 3))
        F = B("y - x^2").translate(a, 0)
        G = B("y") - BiPoly.const(b)
        R = resultant_y(F, G)
        got = isolate_real_roots(R)
        expected = isolate_real_roots(F.specialize_y(b))
        assert len(got) == len(expected)
        for u, v in zip(got, expected):
            assert boxes_equal(u, v)


def test_subresultant_chain_line_circle():
    sheared_circle = UNIT_CIRCLE.compose_linear(1, -1, 0, 1)
    sheared_line = B("x - y").compose_linear(1, -1, 0, 1)
    s0, s1 = _subresultant_ladder(sheared_circle, sheared_line)[0]
    # single intersection root over u0: y = -s0/s1 evaluated there
    assert s1 == P("-2") and s0 == P("t")


def test_split_binary_quadratics():
    out = split_binary_quadratic(B("x^2 + y^2"))
    assert out.kind is QuadraticSplitKind.IRREDUCIBLE_OVER_REALS

    out = split_binary_quadratic(B("x^2 - y^2"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors == (B("x - y"), B("x + y"))

    out = split_binary_quadratic(B("x^2 - 2*y^2"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors is None  # real but irrational slopes

    out = split_binary_quadratic(B("x^2 + 2*x*y + y^2"))
    assert out.kind is QuadraticSplitKind.PERFECT_SQUARE
    assert out.repeated_factor == B("x + y")

    out = split_binary_quadratic(B("x*y"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors == (B("y"), B("x"))

    assert split_binary_quadratic(BiPoly.zero()).kind is QuadraticSplitKind.ZERO

    with pytest.raises(NotBinaryQuadratic):
        split_binary_quadratic(B("x^2 + y"))


def test_monomial_content():
    F = B("x^2*y + x*y^2")
    assert F.monomial_content() == (1, 1)
    assert F.shift_down(1, 1) == B("x + y")
