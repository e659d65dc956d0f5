"""Per-component attributes of a plane curve: realness, boundedness, charts.

Lines and conics are classified exactly through the signature of the
projective quadratic form and the splitting of the leading form.  Only a
component of degree three or higher counts its places at infinity
(`infinity_summary`), and only to decide boundedness, which stays exact
whenever the curve meets the line at infinity transversally; every other
flag of such a component stays Unknown.

Lines, parabolas and hyperbolas with rational asymptotes share one chart
format, `LineChart`, which carries a linear inverse t = alpha*x + beta*y;
conics without real points at infinity get a `CircleChart`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly, have_common_factor, split_binary_quadratic
from .numbers import exact_isqrt
from .polyparse import format_bipoly
from .tribool import TriBool
from .unipoly import UniPoly, count_real_roots, isolate_real_roots, squarefree_part


class UnsupportedComponent(ValueError):
    """A factor the theory cannot treat as one real component (e.g. a product
    of two real lines that only splits over an extension field)."""


class InvalidComponent(ValueError):
    pass


@dataclass(frozen=True)
class LineChart:
    """Parametrization t -> (x_num(t), y_num(t)) / den(t) of a line-type
    component: a line, a parabola or a hyperbola.

    den is the constant 1 on lines and parabolas; on a hyperbola it is
    linear, and its root `excluded` is the one parameter value without a
    point.  The chart maps the rest of the line bijectively onto the real
    curve, and t = alpha*x + beta*y inverts it on the whole component.
    """

    x_num: UniPoly
    y_num: UniPoly
    den: UniPoly
    alpha: Fraction
    beta: Fraction

    @property
    def excluded(self) -> Fraction | None:
        if self.den.degree < 1:
            return None
        return -self.den.coeff(0) / self.den.coeff(1)


@dataclass(frozen=True)
class CircleChart:
    """Weierstrass-style form of a conic without real points at infinity.

    With w = y + s1*x + s0, the defining polynomial is scale * (w^2 - q(x)),
    so functions on the component are a(x) + b(x)*w with w^2 = q(x).
    """

    q: UniPoly
    s1: Fraction
    s0: Fraction
    scale: Fraction

    def x_range(self) -> tuple[Fraction, Fraction] | None:
        """Rational bounds enclosing the real x-extent, None when empty."""
        if self.q.degree != 2 or self.q.leading() >= 0:
            return None
        roots = isolate_real_roots(self.q)
        if len(roots) != 2:
            return None
        lo = roots[0].exact_value if roots[0].exact_value is not None else roots[0].low
        hi = roots[1].exact_value if roots[1].exact_value is not None else roots[1].high
        return (lo, hi)


Chart = LineChart | CircleChart


@dataclass
class Component:
    """One factor of F; each flag stays UNKNOWN unless exact analysis sets it."""

    index: int
    label: str
    poly: BiPoly
    degree: int
    is_real: TriBool = TriBool.UNKNOWN
    has_real_points: TriBool = TriBool.UNKNOWN
    bounded_ring_trivial: TriBool = TriBool.UNKNOWN
    rational_open_A1: TriBool = TriBool.UNKNOWN
    chart: Chart | None = None
    conic_kind: str | None = None


def component_index(cid: str) -> int:
    """Position in the factor list of the component with id `cid`.

    Ids are the labels `build_component` writes, C1, C2, ...; this is the
    only place that reads one back.
    """
    return int(cid[1:]) - 1


def is_squarefree(F: BiPoly) -> bool:
    """Whether F is coprime to F_x (to F_y when F is free of x).

    False for a repeated factor, and also for a squarefree but reducible F
    with a factor free of x, such as x*y.
    """
    fx = F.partial_x()
    fy = F.partial_y()
    if fx.is_zero() and fy.is_zero():
        return F.total_degree <= 0
    probe = fy if fx.is_zero() else fx
    return not have_common_factor(F, probe)


def build_component(index: int, F: BiPoly) -> Component:
    d = F.total_degree
    if d < 1:
        raise InvalidComponent("components must be non-constant")
    frames = _line_frames(F) if d >= 3 else []
    # a line, and a conic whose projective form has full rank (a smooth,
    # hence irreducible, conic), pass is_squarefree; its resultant is spared
    smooth = d == 1 or (d == 2 and sum(_conic_signature(F)) == 3)
    if not (smooth or is_squarefree(F)) or any(G.deg_y > 0 and G.content_wrt_y().degree > 0 for G in frames):
        raise InvalidComponent(
            f"{format_bipoly(F)} is reducible or has a repeated factor; "
            "each component must be one irreducible factor"
        )
    if any(G.deg_y == 0 for G in frames):
        raise UnsupportedComponent(
            "a univariate factor of degree three or more always splits over the reals"
        )
    label = f"C{index + 1}"
    if d == 1:
        return _line_component(index, label, F)
    if d == 2:
        return _conic_component(index, label, F)
    return _high_degree_component(index, label, F)


def _line_frames(F: BiPoly) -> list[BiPoly]:
    """F with each rational linear factor of its leading form moved to the
    first coordinate: the factor x leaves F as it is, and y - t*x gives
    F(y, x + t*y).

    A line inside F has such a factor as its leading form, so in that frame
    it divides the content of F in the first coordinate; F free of the
    second coordinate is a union of parallel lines.
    """
    p = F.leading_form().specialize_x(1)  # L(1, t): L vanishes on (1, t)
    frames = [F] if p.degree < F.total_degree else []  # x divides L
    for box in isolate_real_roots(p):
        if box.exact_value is not None:
            frames.append(F.compose_linear(0, 1, 1, box.exact_value))
    return frames


# -- lines -------------------------------------------------------------------


def _line_component(index: int, label: str, F: BiPoly) -> Component:
    a, b, c = F.coeff(1, 0), F.coeff(0, 1), F.coeff(0, 0)
    one, zero = Fraction(1), Fraction(0)
    if b:
        chart = LineChart(UniPoly.var(), UniPoly([-c / b, -a / b]), UniPoly.one(), one, zero)
    else:
        chart = LineChart(UniPoly.const(-c / a), UniPoly.var(), UniPoly.one(), zero, one)
    yes = TriBool.YES
    return Component(
        index, label, F, 1, is_real=yes, has_real_points=yes, bounded_ring_trivial=yes,
        rational_open_A1=yes, chart=chart,
    )


# -- conics ------------------------------------------------------------------


_CONIC_KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))  # a x^2 + b xy + c y^2 + d x + e y + f


def _conic_matrix(F: BiPoly) -> list[list[int]]:
    """2*den*M for M the symmetric 3x3 matrix of the projective form in
    (x, y, z) and F = num/den: the integer matrix of 2*num."""
    a, b, c, d, e, f = (F._num.get(k, 0) for k in _CONIC_KEYS)
    return [[2 * a, b, d], [b, 2 * c, e], [d, e, 2 * f]]


def _adjugate(m: list[list[int]]) -> list[list[int]]:
    """The adjugate (transposed cofactor matrix) of a symmetric 3x3 matrix."""
    (a, b, d), (_, c, e), (_, _, f) = m
    c00, c01, c02 = c * f - e * e, d * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - d * d, b * d - a * e, a * c - b * b
    return [[c00, c01, c02], [c01, c11, c12], [c02, c12, c22]]


def _conic_signature(F: BiPoly) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of the projective 3x3 form M.

    They are read off the integer matrix N = 2*den*M: a positive multiple
    has the same signature, and so the same rank.  The eigenvalues of N are
    the (all-real) roots of t^3 - tr t^2 + minors t - det, so Descartes'
    rule counts them exactly by sign.
    """
    m = _conic_matrix(F)
    adj = _adjugate(m)
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = adj[0][0] + adj[1][1] + adj[2][2]  # the principal 2x2 minors
    det = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
    return _sign_changes(-det, minors, -tr, 1), _sign_changes(det, minors, tr, 1)


def _sign_changes(*coeffs: int) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _conic_kernel(F: BiPoly) -> tuple[int, int, int]:
    """A nonzero integer kernel vector of the rank-2 projective form M, up to scale.

    N = 2*den*M has the kernel of M.  At rank 2 its adjugate is c*k*k^T for
    a kernel vector k and some c != 0 (N adj(N) = det(N) I = 0, and some
    2x2 minor is nonzero), so every nonzero column spans the kernel.
    """
    return next(col for col in zip(*_adjugate(_conic_matrix(F))) if any(col))


def _conic_component(index: int, label: str, F: BiPoly) -> Component:
    pos, neg = _conic_signature(F)
    rank = pos + neg
    adj = _adjugate(_conic_matrix(F))

    if rank == 1:
        raise InvalidComponent("components must be squarefree")
    if rank == 2 and pos == neg:
        # two real lines crossing at the kernel point k; on a plane X_i = 0
        # that misses k they cut out the zeros of a binary quadratic form,
        # and the lines are rational exactly when those zeros are.  k_i != 0
        # where the cofactor adj_ii = c*k_i^2 of N = 2*den*M is, and -adj_ii
        # is a quarter of the discriminant of N's form, (2*den)^2 times M's
        if exact_isqrt(-next(adj[i][i] for i in range(3) if adj[i][i])) is not None:
            raise InvalidComponent(
                f"{format_bipoly(F)} is reducible: it is a product of two "
                "rational lines; each component must be one irreducible factor"
            )
        raise UnsupportedComponent(
            "this factor is a product of two real lines over an extension field"
        )
    if rank == 2:
        # two conjugate complex lines; their crossing is the only real point
        has_pt = TriBool.of(_conic_kernel(F)[2] != 0)
        no = TriBool.NO
        return Component(
            index, label, F, 2, is_real=no, has_real_points=has_pt, bounded_ring_trivial=no,
            rational_open_A1=no, conic_kind="conjugate-lines",
        )

    # rank 3: a smooth conic; its kind is the sign of the cofactor
    # adj_22 = 4ac - b^2 of N, minus the discriminant of the leading form
    empty = pos == 3 or neg == 3
    if adj[2][2] > 0:
        kind = "ellipse"
        chart: Chart | None = _circle_chart(F)
        bounded, open_a1 = TriBool.NO, TriBool.NO
    else:
        split = split_binary_quadratic(F.leading_form())
        if adj[2][2] == 0:
            kind = "parabola"
            chart = _pencil_chart(F, split.repeated_factor)
        else:
            kind = "hyperbola"
            chart = _pencil_chart(F, split.factors[0]) if split.factors else None
        bounded, open_a1 = TriBool.YES, TriBool.YES
    if empty:
        kind, bounded, open_a1 = "empty", TriBool.NO, TriBool.NO
    real = TriBool.of(not empty)
    return Component(
        index, label, F, 2, is_real=real, has_real_points=real, bounded_ring_trivial=bounded,
        rational_open_A1=open_a1, chart=chart, conic_kind=kind,
    )


def infinity_summary(F: BiPoly) -> int | None:
    """The number of conjugate pairs of non-real places of a component at
    infinity, or None when the curve does not meet the line at infinity
    transversally.

    Directions are the roots of the dehomogenized leading form p plus
    possibly the vertical one, of multiplicity deg F - deg p.  They are the
    places of the completed curve exactly when every one is simple.
    """
    p = F.leading_form().specialize_x(1)
    sq = squarefree_part(p)
    if F.total_degree - p.degree > 1 or sq.degree != p.degree:
        return None
    return (sq.degree - count_real_roots(p)) // 2


def _pencil_chart(F: BiPoly, direction: BiPoly) -> LineChart:
    """The chart of a parabola or hyperbola along the parallel lines
    p x + q y = (p^2 + q^2) t, for p x + q y the linear form `direction`: the
    repeated factor of a parabola's leading form, or a rational factor of a
    hyperbola's.

    With x = p t + q s, y = q t - p s, F becomes c1(t) s + c0(t), so the
    line at t meets the conic at s = -c0/c1; c1 is a constant on a parabola
    and linear on a hyperbola.  The inverse is t = (p x + q y) / (p^2 + q^2).
    """
    p, q = direction.coeff(1, 0), direction.coeff(0, 1)
    rows = F.compose_linear(p, q, q, -p).as_y_polynomial()
    assert len(rows) == 2 and rows[1].degree <= 1, "the pencil must move linearly"
    c0, den = rows
    if den.degree == 0:
        c0, den = c0.scale(Fraction(1) / den.coeff(0)), UniPoly.one()
    t_den = UniPoly.var() * den
    x_num = t_den.scale(p) - c0.scale(q)
    y_num = t_den.scale(q) + c0.scale(p)
    assert F.compose_rational(x_num, y_num, den).is_zero()
    norm = p * p + q * q
    return LineChart(x_num, y_num, den, p / norm, q / norm)


def _circle_chart(F: BiPoly) -> CircleChart:
    a, b, c, d, e, f = (F.coeff(*k) for k in _CONIC_KEYS)
    assert c != 0, "an irreducible leading form forces a y^2 term"
    s1 = b / (2 * c)
    s0 = e / (2 * c)
    # with w = y + s1 x + s0: F = c*(w^2 - q(x))
    q = UniPoly(
        [
            s0 * s0 - f / c,
            2 * s0 * s1 - d / c,
            s1 * s1 - a / c,
        ]
    )
    w = BiPoly({(0, 1): Fraction(1), (1, 0): s1, (0, 0): s0})
    rebuilt = (w * w - BiPoly.from_unipoly_in_x(q)).scale(c)
    assert rebuilt == F
    return CircleChart(q=q, s1=s1, s0=s0, scale=c)


# -- degree three and higher ---------------------------------------------------


def _high_degree_component(index: int, label: str, F: BiPoly) -> Component:
    pairs = infinity_summary(F)
    bounded = TriBool.UNKNOWN if pairs is None else TriBool.of(pairs == 0)
    return Component(index, label, F, F.total_degree, bounded_ring_trivial=bounded)
