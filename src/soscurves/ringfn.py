"""Exact models for regular functions on parametrized curve components.

A component with an affine-line chart carries plain polynomials in the
parameter; a punctured-line chart (hyperbola type) additionally allows poles
at the excluded parameter value, so its functions look like

    num(t) / (t - pole_at)^order.

A conic in circle normal form carries functions a(x) + b(x)*w where
w^2 = q(x).  Both shapes support the exact ring operations certificate
assembly needs: arithmetic, restriction of plane polynomials, and evaluation
at rational points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .components import Chart, CircleChart, PolyChart, PuncturedChart
from .points import AlgebraicPoint, RationalPoint
from .unipoly import UniPoly, box_sign, gcd


class IrrationalAttachment(ValueError):
    """A construction needed a rational point (or parameter) and got an
    algebraic one."""


class ChartlessComponent(ValueError):
    """The component has no usable rational parametrization."""


_NO_POLE = Fraction(0)


@dataclass(frozen=True)
class LineFn:
    """num(t) / (t - pole_at)^order on a (possibly punctured) line.

    Normal form: order is dropped while (t - pole_at) divides num, and a
    function without a pole stores pole_at = 0.  Affine-line components only
    ever hold order = 0; punctured components put the pole at the excluded
    parameter value.
    """

    num: UniPoly
    order: int = 0
    pole_at: Fraction = _NO_POLE

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("pole order must be nonnegative")
        num, order, pole = self.num, self.order, self.pole_at
        if num.is_zero():
            order = 0
        if order > 0:
            lin = UniPoly.linear_root(pole)
            while order > 0 and num.sign_at(pole) == 0:
                num = num.exact_div(lin)
                order -= 1
        if order == 0:
            pole = _NO_POLE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "pole_at", pole)

    @staticmethod
    def zero() -> LineFn:
        return LineFn(UniPoly.zero())

    @staticmethod
    def const(c) -> LineFn:
        return LineFn(UniPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def top_degree(self) -> int:
        """Degree of the function at the parameter-line infinity."""
        return self.num.degree - self.order

    def _common(self, other: LineFn) -> Fraction:
        if self.order and other.order and self.pole_at != other.pole_at:
            raise ValueError("functions have poles at different parameter values")
        return self.pole_at if self.order else other.pole_at

    def __add__(self, other: LineFn) -> LineFn:
        pole = self._common(other)
        k = max(self.order, other.order)
        a, b = self.num, other.num
        if k:
            lin = UniPoly.linear_root(pole)
            a = a * lin ** (k - self.order)
            b = b * lin ** (k - other.order)
        return LineFn(a + b, k, pole)

    def __sub__(self, other: LineFn) -> LineFn:
        return self + (-other)

    def __neg__(self) -> LineFn:
        return LineFn(-self.num, self.order, self.pole_at)

    def __mul__(self, other: LineFn) -> LineFn:
        pole = self._common(other)
        return LineFn(self.num * other.num, self.order + other.order, pole)

    def scale(self, c) -> LineFn:
        return LineFn(self.num.scale(c), self.order, self.pole_at)

    def square(self) -> LineFn:
        return self * self

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if self.order and t == self.pole_at:
            raise ZeroDivisionError("evaluation at the excluded parameter value")
        return self.num(t) / (t - self.pole_at) ** self.order


@dataclass(frozen=True)
class CircleFn:
    """a(x) + b(x)*w on a conic in circle normal form, with w^2 = q(x)."""

    a: UniPoly
    b: UniPoly
    q: UniPoly

    @staticmethod
    def zero(q: UniPoly) -> CircleFn:
        return CircleFn(UniPoly.zero(), UniPoly.zero(), q)

    @staticmethod
    def const(c, q: UniPoly) -> CircleFn:
        return CircleFn(UniPoly.const(c), UniPoly.zero(), q)

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    @property
    def top_degree(self) -> int:
        """Degree with respect to the filtration where deg x = 1, deg w = 1."""
        da = self.a.degree
        db = self.b.degree + 1 if not self.b.is_zero() else -1
        return max(da, db)

    def _common(self, other: CircleFn) -> UniPoly:
        if self.q != other.q:
            raise ValueError("functions live on different conics")
        return self.q

    def __add__(self, other: CircleFn) -> CircleFn:
        q = self._common(other)
        return CircleFn(self.a + other.a, self.b + other.b, q)

    def __sub__(self, other: CircleFn) -> CircleFn:
        return self + (-other)

    def __neg__(self) -> CircleFn:
        return CircleFn(-self.a, -self.b, self.q)

    def __mul__(self, other: CircleFn) -> CircleFn:
        q = self._common(other)
        a = self.a * other.a + self.b * other.b * q
        b = self.a * other.b + self.b * other.a
        return CircleFn(a, b, q)

    def scale(self, c) -> CircleFn:
        return CircleFn(self.a.scale(c), self.b.scale(c), self.q)

    def square(self) -> CircleFn:
        return self * self

    def __call__(self, x, w) -> Fraction:
        x, w = Fraction(x), Fraction(w)
        return self.a(x) + self.b(x) * w


RingFn = LineFn | CircleFn


def restrict_to_chart(F: BiPoly, chart: Chart) -> RingFn:
    """The plane polynomial F as a function on the parametrized component."""
    if isinstance(chart, PolyChart):
        return LineFn(F.substitute(chart.x, chart.y))
    if isinstance(chart, PuncturedChart):
        d = max(F.total_degree, 0)
        lead = chart.den.leading()
        num = F.compose_rational(chart.x_num, chart.y_num, chart.den).scale(
            Fraction(1) / lead**d
        )
        return LineFn(num, d, chart.excluded)
    if isinstance(chart, CircleChart):
        # substitute y = w - (s1 x + s0) and reduce w^2 -> q by Horner steps
        shift = UniPoly([-chart.s0, -chart.s1])
        y_fn = CircleFn(shift, UniPoly.one(), chart.q)
        out = CircleFn.zero(chart.q)
        for row in reversed(F.as_y_polynomial()):
            out = out * y_fn + CircleFn(row, UniPoly.zero(), chart.q)
        return out
    raise ChartlessComponent(f"no restriction rule for {type(chart).__name__}")


def param_of_point(chart: PolyChart | PuncturedChart, p: RationalPoint) -> Fraction:
    """The parameter value a chart sends to a rational point of the component.

    Works for any of the line-type charts: the parameter is the unique common
    root of the coordinate equations, and bijectivity of the chart makes
    their gcd linear.
    """
    if isinstance(chart, PolyChart):
        eqs = [chart.x - UniPoly.const(p.x), chart.y - UniPoly.const(p.y)]
    else:
        eqs = [
            chart.x_num - chart.den.scale(p.x),
            chart.y_num - chart.den.scale(p.y),
        ]
    g = UniPoly.zero()
    for eq in eqs:
        g = gcd(g, eq) if g else (eq.monic() if eq else g)
    if g.is_zero():
        raise ValueError("degenerate chart equations")
    if isinstance(chart, PuncturedChart):
        lin = UniPoly.linear_root(chart.excluded)
        while g.degree > 1 and g(chart.excluded) == 0:
            g = g.exact_div(lin)
    if g.degree != 1:
        raise ValueError("point does not lie on the parametrized component")
    t = -g.coeff(0) / g.coeff(1)
    if isinstance(chart, PuncturedChart) and t == chart.excluded:
        raise ValueError("point maps to the excluded parameter value")
    return t


def chart_arguments(chart: Chart, p: RationalPoint) -> tuple[Fraction, ...]:
    """The arguments at which a component function on `chart` takes its value
    at a rational plane point: the parameter of a line-type chart, or (x, w)
    with w = y + s1*x + s0 on a circle chart."""
    if isinstance(chart, CircleChart):
        return (p.x, p.y + chart.s1 * p.x + chart.s0)
    return (param_of_point(chart, p),)


def value_at_point(fn: RingFn, chart: Chart, p: RationalPoint) -> Fraction:
    """Exact value of a component function at a rational plane point."""
    return fn(*chart_arguments(chart, p))


def value_as_u_fraction(fn: RingFn, chart: Chart, p: AlgebraicPoint) -> tuple[UniPoly, UniPoly]:
    """Value of a component function at an algebraic point, as N(u)/D(u).

    The point's coordinates are rational functions of its frame value u, so
    the value of any component function is one too; returning numerator and
    denominator keeps comparisons exact (cross-multiply, then take the sign
    over the point's isolating box).  The denominator does not vanish at the
    root unless the function itself has a pole there, which raises.
    """
    if isinstance(chart, PuncturedChart):
        raise IrrationalAttachment(
            "algebraic points on punctured components are not supported"
        )
    if isinstance(fn, LineFn):
        assert isinstance(chart, PolyChart)
        # invert the degree-one chart: t = (coord - c0) / c1 in the frame
        if chart.x.degree == 1:
            c0, c1 = chart.x.coeffs[0], chart.x.coeffs[1]
            coord_num = p.A
        else:
            c0, c1 = chart.y.coeffs[0], chart.y.coeffs[1]
            coord_num = p.B
        t_num = coord_num - p.C.scale(c0)
        t_den = p.C.scale(c1)
        dn = max(fn.num.degree, 0)
        value_num = UniPoly.zero()
        for k, c in enumerate(fn.num.coeffs):
            if c:
                value_num = value_num + (t_num**k * t_den ** (dn - k)).scale(c)
        if fn.order == 0:
            return value_num, t_den**dn
        pole_num = t_num - t_den.scale(fn.pole_at)
        return value_num * t_den**fn.order, t_den**dn * pole_num**fn.order
    assert isinstance(chart, CircleChart)
    w_num = p.B + p.A.scale(chart.s1) + p.C.scale(chart.s0)
    da = max(fn.a.degree, 0)
    db = fn.b.degree
    depth = max(da, db + 1, 0)
    total = UniPoly.zero()
    for k, c in enumerate(fn.a.coeffs):
        if c:
            total = total + (p.A**k * p.C ** (depth - k)).scale(c)
    for k, c in enumerate(fn.b.coeffs):
        if c:
            total = total + (p.A**k * p.C ** (depth - 1 - k) * w_num).scale(c)
    return total, p.C**depth


def values_agree_at_algebraic(
    fn1: RingFn, chart1: Chart, fn2: RingFn, chart2: Chart, p: AlgebraicPoint
) -> bool:
    """Exact agreement test for two component functions at a shared algebraic
    point, via the sign of the cross-multiplied difference at the boxed root."""
    n1, d1 = value_as_u_fraction(fn1, chart1, p)
    n2, d2 = value_as_u_fraction(fn2, chart2, p)
    if box_sign(d1, p.u) == 0 or box_sign(d2, p.u) == 0:
        raise ZeroDivisionError("function denominator vanishes at the point")
    return box_sign(n1 * d2 - n2 * d1, p.u) == 0
