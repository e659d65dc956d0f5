"""Exact points of plane curves.

Real points come in two flavours: fully rational coordinates, or algebraic
coordinates pinned by an isolating box in a sheared frame.  Non-real closed
points (conjugate pairs of complex intersections) are tracked as counting
records with optional exact data.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .unipoly import RootBox, UniPoly, box_compare, box_sign, boxes_equal, gcd


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction

    def as_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))


@dataclass(frozen=True, eq=False)
class AlgebraicPoint:
    """A real point with irrational coordinates.

    The frame parameter ``lam`` fixes u = x + lam*y.  The box isolates the
    u-value of the point among the roots of its defining polynomial, and both
    coordinates are rational functions of u:

        x = A(u)/C(u),   y = B(u)/C(u),   C(u) != 0 at the root.

    Points may only be compared when they share a frame; the curve analysis
    picks one shear for an entire configuration so this always holds.
    """

    u: RootBox
    lam: Fraction
    A: UniPoly
    B: UniPoly
    C: UniPoly

    def as_floats(self, precision: int = 40) -> tuple[float, float]:
        box = self.u.refined(precision)
        u0 = float(box.low + box.high) / 2.0
        c = self.C.eval_float(u0)
        return (self.A.eval_float(u0) / c, self.B.eval_float(u0) / c)


RealPoint = RationalPoint | AlgebraicPoint


@dataclass(frozen=True, eq=False)
class ConjugatePairPoint:
    """One non-real closed point: a conjugate pair of complex plane points.

    When the pair sits over a rational x-value, ``abscissa`` carries it and
    ``y_quadratic`` is the monic quadratic (irreducible over the rationals
    and the reals) whose roots are the two y-values.  Points found through a
    shear carry counts only.
    """

    abscissa: Fraction | None = None
    y_quadratic: UniPoly | None = None


def curve_sign_at(F: BiPoly, p: RealPoint) -> int:
    """Exact sign of F at a real point."""
    if isinstance(p, RationalPoint):
        v = F(p.x, p.y)
        return (v > 0) - (v < 0)
    numerator = F.compose_rational(p.A, p.B, p.C)
    s = box_sign(numerator, p.u)
    if F.total_degree % 2 == 0:
        return s
    sc = box_sign(p.C, p.u)
    if sc == 0:
        raise ArithmeticError("frame denominator vanishes at the point")
    return s * sc


def lies_on(F: BiPoly, p: RealPoint) -> bool:
    return curve_sign_at(F, p) == 0


def same_point(p: RealPoint, q: RealPoint) -> bool:
    """Exact equality of two real points.

    Algebraic points are only comparable within a common frame; rational
    points never equal algebraic ones because the engine resolves any point
    with a rational frame value into a RationalPoint.
    """
    if isinstance(p, RationalPoint) and isinstance(q, RationalPoint):
        return p == q
    if isinstance(p, RationalPoint) or isinstance(q, RationalPoint):
        return False
    if p.lam != q.lam:
        raise ValueError("points live in different shear frames")
    if not boxes_equal(p.u, q.u):
        return False
    # same u-value; the frame map u = x + lam*y pins the point once y agrees
    psi = p.B * q.C - q.B * p.C
    return box_sign(psi, p.u) == 0


def pair_passes_through(F: BiPoly, pt: ConjugatePairPoint) -> bool | None:
    """Whether a component contains a non-real closed point; None if unknown.

    With exact data the test is divisibility: the quadratic is irreducible,
    so F passes through both conjugate points or neither.
    """
    if pt.abscissa is None or pt.y_quadratic is None:
        return None
    fy = F.specialize_x(pt.abscissa)
    if fy.is_zero():
        return True
    return gcd(fy, pt.y_quadratic).degree == 2


def same_conjugate_pair(p: ConjugatePairPoint, q: ConjugatePairPoint) -> bool | None:
    if p is q:
        return True
    if p.abscissa is None or q.abscissa is None or p.y_quadratic is None or q.y_quadratic is None:
        return None
    return p.abscissa == q.abscissa and p.y_quadratic.monic() == q.y_quadratic.monic()


def order_real_points(points: list) -> list:
    """Sort mixed real points; algebraic ones by exact comparison of u-values."""
    rationals = sorted(
        [p for p in points if isinstance(p, RationalPoint)], key=lambda p: (p.x, p.y)
    )
    boxed = [p for p in points if isinstance(p, AlgebraicPoint)]
    # insertion sort with exact comparisons; point counts are small
    ordered: list[AlgebraicPoint] = []
    for p in boxed:
        at = len(ordered)
        for k, q in enumerate(ordered):
            c = box_compare(p.u, q.u)
            if c < 0 or (c == 0 and _y_less(p, q)):
                at = k
                break
        ordered.insert(at, p)
    return rationals + ordered


def _y_less(p: AlgebraicPoint, q: AlgebraicPoint) -> bool:
    psi = p.B * q.C - q.B * p.C
    s = box_sign(psi, p.u) * box_sign(p.C, p.u) * box_sign(q.C, p.u)
    return s < 0
