"""Exact points of plane curves.

Real points come in two flavours: fully rational coordinates, or algebraic
coordinates pinned by an isolating box in a sheared frame.  Non-real closed
points (conjugate pairs of complex intersections) are tracked as counting
records with optional exact data.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .bipoly import BiPoly
from .unipoly import BoxedValue, RootBox, UniPoly, box_compare, boxes_equal, gcd


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction


@dataclass(frozen=True, eq=False)
class AlgebraicPoint:
    """A real point with irrational coordinates.

    The frame parameter ``lam`` fixes u = x + lam*y.  The box isolates the
    u-value of the point among the roots of its defining polynomial P, and
    both coordinates are elements of Q[u]/(P') read at that root, for P'
    the factor of P that holds it (`BoxedValue`); x and y share P'.

    Points may only be compared when they share a frame; the curve analysis
    picks one shear for an entire configuration so this always holds.
    """

    u: RootBox
    lam: Fraction
    x: BoxedValue
    y: BoxedValue

    @cached_property
    def u_float(self) -> float:
        """The frame value as a float: the midpoint of the box refined 60 times."""
        box = self.u.refined(60)
        return float(box.low + box.high) / 2.0

    def as_floats(self) -> tuple[float, float]:
        return (self.x.poly.eval_float(self.u_float), self.y.poly.eval_float(self.u_float))


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
    return BoxedValue(F.substitute(p.x.poly, p.y.poly), p.u, p.x.modulus).sign()


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
    return (p.y - q.y).is_zero()


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
    """Sort mixed real points: rational ones by (x, y), then algebraic ones by
    exact comparison of their u-values and, over one u-value, of y."""
    rationals = sorted(
        [p for p in points if isinstance(p, RationalPoint)], key=lambda p: (p.x, p.y)
    )
    boxed = [p for p in points if isinstance(p, AlgebraicPoint)]
    return rationals + sorted(
        boxed, key=cmp_to_key(lambda p, q: box_compare(p.u, q.u) or (p.y - q.y).sign())
    )
