"""Exact models for regular functions on parametrized curve components.

A line-type component (line, parabola, hyperbola) has one chart format,
t -> (x_num(t), y_num(t)) / den(t) with den = 1 unless the component is a
hyperbola, whose chart excludes the root of den.  Its functions look like

    num(t) / (t - pole_at)^order,

with poles only at the excluded parameter value, and every chart carries
the linear inverse t = alpha*x + beta*y that reads the parameter of a point
off its coordinates.  A conic in circle normal form carries functions
a(x) + b(x)*w where w^2 = q(x).  Both shapes support the exact ring
operations certificate assembly needs: arithmetic, restriction of plane
polynomials, and evaluation at rational and algebraic points.

A function on the reducible curve is one such function per component, and
a sum-of-squares certificate (`SosCertificate`) stores its summands that
way: one column of functions per component.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bipoly import BiPoly
from .components import Chart, CircleChart, LineChart
from .points import AlgebraicPoint, RationalPoint, RealPoint
from .unipoly import BoxedValue, UniPoly


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
    function without a pole stores pole_at = 0.  On a chart with den = 1
    order is always 0; on a hyperbola the pole sits at the excluded
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

    @staticmethod
    def _lifted(fns: Sequence[LineFn]) -> tuple[list[UniPoly], int, Fraction]:
        """(nums, k, pole) with fns_j = nums_j / (t - pole)^k, k the largest
        pole order."""
        k = max((f.order for f in fns), default=0)
        if not k:
            return [f.num for f in fns], 0, _NO_POLE
        poles = {f.pole_at for f in fns if f.order}
        if len(poles) > 1:
            raise ValueError("functions have poles at different parameter values")
        pole = poles.pop()
        lin = UniPoly.linear_root(pole)
        nums = [
            f.num * lin ** (k - f.order) if f.order < k and not f.is_zero else f.num
            for f in fns
        ]
        return nums, k, pole

    @staticmethod
    def lincomb(coeffs: Sequence, fns: Sequence[LineFn]) -> LineFn:
        """sum c_j * fns_j: the numerators lifted to the largest pole order
        and combined by one `UniPoly.lincomb`."""
        nums, k, pole = LineFn._lifted(fns)
        return LineFn(UniPoly.lincomb(coeffs, nums), k, pole)

    @staticmethod
    def sum_of_squares(fns: Sequence[LineFn]) -> LineFn:
        """sum f_j^2: the numerators lifted to the largest pole order, then
        squared and summed by one `UniPoly.dot`."""
        nums, k, pole = LineFn._lifted(fns)
        return LineFn(UniPoly.dot(nums, nums), 2 * k, pole)

    def __call__(self, t) -> Fraction:
        if not self.order:
            return self.num(t)
        t = Fraction(t)
        if t == self.pole_at:
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

    @staticmethod
    def lincomb(coeffs: Sequence, fns: Sequence[CircleFn]) -> CircleFn:
        """sum c_j * fns_j, one `UniPoly.lincomb` each on a and on b."""
        q = fns[0].q
        if any(f.q != q for f in fns):
            raise ValueError("functions live on different conics")
        return CircleFn(
            UniPoly.lincomb(coeffs, [f.a for f in fns]),
            UniPoly.lincomb(coeffs, [f.b for f in fns]),
            q,
        )

    @staticmethod
    def sum_of_squares(fns: Sequence[CircleFn], q: UniPoly) -> CircleFn:
        """sum f_j^2 on the conic w^2 = q: sum a^2 + q * sum b^2 and 2 * sum ab,
        each sum one `UniPoly.dot`."""
        if any(f.q != q for f in fns):
            raise ValueError("functions live on different conics")
        a = [f.a for f in fns]
        b = [f.b for f in fns]
        return CircleFn(
            UniPoly.dot(a, a) + q * UniPoly.dot(b, b), UniPoly.dot(a, b).scale(2), q
        )

    def __call__(self, x, w) -> Fraction:
        x, w = Fraction(x), Fraction(w)
        return self.a(x) + self.b(x) * w


RingFn = LineFn | CircleFn


def sum_of_squares(fns: Sequence[RingFn], like: RingFn) -> RingFn:
    """sum f_j^2 for functions on the component of `like`: a line sum when
    `like` is a LineFn, otherwise a sum on the conic of `like`."""
    if isinstance(like, LineFn):
        return LineFn.sum_of_squares(fns)
    return CircleFn.sum_of_squares(fns, like.q)


@dataclass
class SosCertificate:
    """sum_j s_j^2 for ring elements s_j, stored as one column per component.

    columns[cid][j] is the restriction of s_j to component cid.  Every
    column has the same length, the number of summands `len(cert)`; the
    s_j are functions on the curve when their restrictions agree at the
    shared points, which `verify` checks.  A target that vanishes on the
    curve is the empty sum: every column is empty.
    """

    columns: dict[str, tuple[RingFn, ...]]
    exact: bool = True
    residual: float = 0.0
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.columns = {cid: tuple(col) for cid, col in self.columns.items()}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def restrict_to_chart(F: BiPoly, chart: Chart) -> RingFn:
    """The plane polynomial F as a function on the parametrized component."""
    if isinstance(chart, LineChart):
        # den^d F(x_num/den, y_num/den) for d = deg F, over den^d: a pole of
        # order d at the excluded value, or a polynomial when den = 1
        num = F.compose_rational(chart.x_num, chart.y_num, chart.den)
        pole = chart.excluded
        if pole is None:
            return LineFn(num)
        d = max(F.total_degree, 0)
        return LineFn(num.scale(Fraction(1) / chart.den.leading() ** d), d, pole)
    if isinstance(chart, CircleChart):
        # substitute y = w - (s1 x + s0) and reduce w^2 -> q by Horner steps
        shift = UniPoly([-chart.s0, -chart.s1])
        y_fn = CircleFn(shift, UniPoly.one(), chart.q)
        out = CircleFn.zero(chart.q)
        for row in reversed(F.as_y_polynomial()):
            out = out * y_fn + CircleFn(row, UniPoly.zero(), chart.q)
        return out
    raise ChartlessComponent(f"no restriction rule for {type(chart).__name__}")


def chart_arguments(chart: Chart, p: RealPoint) -> tuple:
    """The arguments at which a component function on `chart` takes its value
    at a real plane point of the component: the parameter alpha*x + beta*y of
    a line chart, or (x, w) with w = y + s1*x + s0 on a circle chart.  Both
    are linear in the coordinates, so they are rational at a rational point
    and lie in Q[u]/(P') at an algebraic one."""
    if isinstance(chart, CircleChart):
        return (p.x, p.y + p.x * chart.s1 + chart.s0)
    return (p.x * chart.alpha + p.y * chart.beta,)


def value_at_point(fn: RingFn, chart: Chart, p: RationalPoint) -> Fraction:
    """Exact value of a component function at a rational plane point."""
    return fn(*chart_arguments(chart, p))


def float_value(fn: RingFn, chart: Chart, xf: float, yf: float) -> float:
    """A circle-chart function a(x) + b(x)*(y + s1*x + s0) at a float point.

    Line components meet other components at rational points only, so their
    functions are never evaluated in floats.
    """
    if isinstance(fn, LineFn):
        raise ValueError("line components carry rational attachment points only")
    wf = yf + float(chart.s1) * xf + float(chart.s0)
    return fn.a.eval_float(xf) + fn.b.eval_float(xf) * wf


def value_at_algebraic(fn: RingFn, chart: Chart, p: AlgebraicPoint) -> BoxedValue:
    """Exact value of a component function at an algebraic point, in the
    point's Q[u]/(P'); a pole at the point raises ZeroDivisionError."""
    if isinstance(fn, CircleFn):
        x, w = chart_arguments(chart, p)
        return x.value_of(fn.a) + x.value_of(fn.b) * w
    (t,) = chart_arguments(chart, p)
    value = t.value_of(fn.num)
    if fn.order:
        value = value * t.value_of(UniPoly.linear_root(fn.pole_at) ** fn.order).inverse()
    return value
