"""Per-component attributes of a plane curve: realness, boundedness, charts.

Lines and conics are classified exactly through the signature of the
projective quadratic form and the splitting of the leading form.  Components
of degree three and higher keep exact boundedness analysis whenever the curve
is smooth along the line at infinity; everything else falls back to
user-supplied metadata or an Unknown flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bipoly import BiPoly, QuadraticSplitKind, have_common_factor, split_binary_quadratic
from .numbers import sqrt_fraction
from .polyparse import format_bipoly
from .tribool import TriBool
from .unipoly import UniPoly, count_real_roots, isolate_real_roots, squarefree_part


class UnsupportedComponent(ValueError):
    """A factor the theory cannot treat as one real component (e.g. a product
    of two real lines that only splits over an extension field)."""


class MetadataConflict(ValueError):
    """User metadata contradicts an exactly computed attribute."""


class InvalidComponent(ValueError):
    pass


@dataclass(frozen=True)
class PolyChart:
    """Bijective polynomial parametrization t -> (x(t), y(t)) of the real curve."""

    x: UniPoly
    y: UniPoly
    kind: str  # "line" or "parabola"


@dataclass(frozen=True)
class PuncturedChart:
    """Rational parametrization with one excluded parameter value.

    t -> (x_num(t)/den(t), y_num(t)/den(t)) maps the line minus the root of
    den bijectively onto the real curve (hyperbola-type components).
    """

    x_num: UniPoly
    y_num: UniPoly
    den: UniPoly
    excluded: Fraction


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


Chart = PolyChart | PuncturedChart | CircleChart


@dataclass(frozen=True)
class InfinitySummary:
    real_places: int | None
    nonreal_pairs: int | None
    vertical_multiplicity: int
    exact: bool
    note: str = ""


@dataclass
class Component:
    index: int
    label: str
    poly: BiPoly
    degree: int
    is_real: TriBool
    has_real_points: TriBool
    bounded_ring_trivial: TriBool
    rational_open_A1: TriBool
    infinity: InfinitySummary
    chart: Chart | None = None
    conic_kind: str | None = None
    notes: list[str] = field(default_factory=list)
    metadata_used: dict = field(default_factory=dict)


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


def build_component(index: int, F: BiPoly, metadata: dict | None = None) -> Component:
    d = F.total_degree
    if d < 1:
        raise InvalidComponent("components must be non-constant")
    frames = _line_frames(F) if d >= 3 else []
    if not is_squarefree(F) or any(G.deg_y > 0 and G.content_wrt_y().degree > 0 for G in frames):
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
        comp = _line_component(index, label, F)
    elif d == 2:
        comp = _conic_component(index, label, F)
    else:
        comp = _high_degree_component(index, label, F)
    _apply_metadata(comp, metadata)
    return comp


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
    if b:
        chart = PolyChart(x=UniPoly.var(), y=UniPoly([-c / b, -a / b]), kind="line")
    else:
        chart = PolyChart(x=UniPoly.const(-c / a), y=UniPoly.var(), kind="line")
    inf = InfinitySummary(real_places=1, nonreal_pairs=0, vertical_multiplicity=0 if b else 1, exact=True)
    return Component(
        index=index,
        label=label,
        poly=F,
        degree=1,
        is_real=TriBool.YES,
        has_real_points=TriBool.YES,
        bounded_ring_trivial=TriBool.YES,
        rational_open_A1=TriBool.YES,
        infinity=inf,
        chart=chart,
    )


# -- conics ------------------------------------------------------------------


def _conic_coefficients(F: BiPoly) -> tuple[Fraction, ...]:
    return (
        F.coeff(2, 0),
        F.coeff(1, 1),
        F.coeff(0, 2),
        F.coeff(1, 0),
        F.coeff(0, 1),
        F.coeff(0, 0),
    )


def _conic_matrix(F: BiPoly) -> list[list[Fraction]]:
    """The symmetric 3x3 matrix of the projective form in (x, y, z)."""
    a, b, c, d, e, f = _conic_coefficients(F)
    return [
        [a, b / 2, d / 2],
        [b / 2, c, e / 2],
        [d / 2, e / 2, f],
    ]


def _conic_signature(F: BiPoly) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts of the projective 3x3 form."""
    m = _conic_matrix(F)
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = (
        m[0][0] * m[1][1] - m[0][1] * m[1][0]
        + m[0][0] * m[2][2] - m[0][2] * m[2][0]
        + m[1][1] * m[2][2] - m[1][2] * m[2][1]
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    # eigenvalues are the (all-real) roots of t^3 - tr t^2 + minors t - det,
    # so Descartes' rule counts them exactly by sign
    charpoly = [-det, minors, -tr, Fraction(1)]
    pos = _descartes(charpoly)
    neg = _descartes([c if i % 2 == 0 else -c for i, c in enumerate(charpoly)])
    return pos, neg


def _descartes(coeffs: list[Fraction]) -> int:
    signs = [(c > 0) - (c < 0) for c in coeffs if c]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _conic_kernel(F: BiPoly) -> tuple[Fraction, Fraction, Fraction]:
    """A nonzero rational kernel vector of the rank-2 projective form."""
    m = _conic_matrix(F)
    # gaussian elimination looking for the one-dimensional null space
    cols = 3
    rows = [row[:] for row in m]
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, 3) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(3):
            if i != r and rows[i][col]:
                rows[i] = [u - rows[i][col] * v for u, v in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = next(c for c in range(cols) if c not in pivots)
    vec = [Fraction(0)] * 3
    vec[free] = Fraction(1)
    for row, col in zip(rows, pivots):
        vec[col] = -row[free]
    return tuple(vec)


def _conic_component(index: int, label: str, F: BiPoly) -> Component:
    pos, neg = _conic_signature(F)
    rank = pos + neg
    split = split_binary_quadratic(F.leading_form())
    inf = infinity_summary(F, smooth_curve=rank == 3)

    if rank == 1:
        raise InvalidComponent("components must be squarefree")
    if rank == 2 and pos == neg:
        # two real lines crossing at the kernel point k; on a plane X_i = 0
        # that misses k they cut out the zeros of a binary quadratic form,
        # and the lines are rational exactly when those zeros are
        k = _conic_kernel(F)
        i = next(i for i in range(3) if k[i])
        u, v = [j for j in range(3) if j != i]
        m = _conic_matrix(F)
        # a quarter of the discriminant of m_uu X_u^2 + 2 m_uv X_u X_v + m_vv X_v^2
        if sqrt_fraction(m[u][v] ** 2 - m[u][u] * m[v][v]) is not None:
            raise InvalidComponent(
                f"{format_bipoly(F)} is reducible: it is a product of two "
                "rational lines; each component must be one irreducible factor"
            )
        raise UnsupportedComponent(
            "this factor is a product of two real lines over an extension field"
        )
    if rank == 2:
        # two conjugate complex lines; their crossing is the only real point
        k1, k2, k3 = _conic_kernel(F)
        has_pt = TriBool.of(k3 != 0)
        comp = Component(
            index=index,
            label=label,
            poly=F,
            degree=2,
            is_real=TriBool.NO,
            has_real_points=has_pt,
            bounded_ring_trivial=TriBool.NO,
            rational_open_A1=TriBool.NO,
            infinity=inf,
            conic_kind="conjugate-lines",
        )
        if k3 != 0:
            comp.notes.append(
                f"single real point at ({k1 / k3}, {k2 / k3}) on a non-real component"
            )
        return comp

    # rank 3: a smooth conic
    empty = pos == 3 or neg == 3
    if split.kind is QuadraticSplitKind.PERFECT_SQUARE:
        kind = "parabola"
        chart: Chart | None = _parabola_chart(F, split.repeated_factor)
        bounded, open_a1 = TriBool.YES, TriBool.YES
    elif split.kind is QuadraticSplitKind.TWO_DISTINCT_REAL:
        kind = "hyperbola"
        chart = _hyperbola_chart(F, split.factors[0]) if split.factors else None
        bounded, open_a1 = TriBool.YES, TriBool.YES
    else:
        kind = "ellipse"
        chart = _circle_chart(F)
        bounded, open_a1 = TriBool.NO, TriBool.NO
    comp = Component(
        index=index,
        label=label,
        poly=F,
        degree=2,
        is_real=TriBool.of(not empty),
        has_real_points=TriBool.of(not empty),
        bounded_ring_trivial=TriBool.NO if empty else bounded,
        rational_open_A1=TriBool.NO if empty else open_a1,
        infinity=inf,
        chart=chart,
        conic_kind=kind if not empty else "empty",
    )
    if chart is None and kind == "hyperbola":
        comp.notes.append("asymptotic directions are irrational; no rational chart")
    return comp


def infinity_summary(F: BiPoly, smooth_curve: bool = False) -> InfinitySummary:
    """Count the places of a component along the line at infinity.

    Directions are the roots of the dehomogenized leading form plus possibly
    the vertical one.  The counts are places of the completed curve exactly
    when the curve meets the line at infinity transversally everywhere (or is
    a smooth conic, where repeated directions are still single smooth points).
    """
    d = F.total_degree
    p = F.leading_form().specialize_x(1)
    vertical_mult = d - max(p.degree, 0)
    if p.degree >= 1:
        sq = squarefree_part(p)
        real_distinct = count_real_roots(p)
    else:
        sq = p
        real_distinct = 0
    real_places = real_distinct + (1 if vertical_mult >= 1 else 0)
    nonreal = (max(sq.degree, 0) - real_distinct) // 2
    transversal = vertical_mult <= 1 and (p.degree <= 0 or sq.degree == p.degree)
    if smooth_curve or transversal:
        return InfinitySummary(real_places, nonreal, vertical_mult, exact=True)
    return InfinitySummary(
        None,
        None,
        vertical_mult,
        exact=False,
        note="curve is singular along the line at infinity; counts need metadata",
    )


def _parabola_chart(F: BiPoly, repeated: BiPoly) -> PolyChart:
    p, q = repeated.coeff(1, 0), repeated.coeff(0, 1)
    sub = F.compose_linear(p, q, q, -p)  # x = p t + q s, y = q t - p s
    rows = sub.as_y_polynomial()
    assert len(rows) == 2 and rows[1].degree == 0, "parabola pencil must be linear in s"
    beta = rows[1].coeff(0)
    s = rows[0].scale(Fraction(-1) / beta)
    x = UniPoly([Fraction(0), p]) + s.scale(q)
    y = UniPoly([Fraction(0), q]) - s.scale(p)
    assert F.substitute(x, y).is_zero()
    return PolyChart(x=x, y=y, kind="parabola")


def _hyperbola_chart(F: BiPoly, asymptote: BiPoly) -> PuncturedChart:
    p, q = asymptote.coeff(1, 0), asymptote.coeff(0, 1)
    sub = F.compose_linear(p, q, q, -p)
    rows = sub.as_y_polynomial()
    assert len(rows) == 2 and rows[1].degree == 1, "hyperbola pencil must move linearly"
    den = rows[1]
    neg_c0 = rows[0].scale(-1)
    x_num = UniPoly([Fraction(0), p]) * den + neg_c0.scale(q)
    y_num = UniPoly([Fraction(0), q]) * den - neg_c0.scale(p)
    excluded = -den.coeff(0) / den.coeff(1)
    assert F.compose_rational(x_num, y_num, den).is_zero()
    return PuncturedChart(x_num=x_num, y_num=y_num, den=den, excluded=excluded)


def _circle_chart(F: BiPoly) -> CircleChart:
    a, b, c, d, e, f = _conic_coefficients(F)
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
    d = F.total_degree
    inf = infinity_summary(F)
    bounded = TriBool.of(inf.nonreal_pairs == 0) if inf.exact else TriBool.UNKNOWN
    return Component(
        index=index,
        label=label,
        poly=F,
        degree=d,
        is_real=TriBool.UNKNOWN,
        has_real_points=TriBool.UNKNOWN,
        bounded_ring_trivial=bounded,
        rational_open_A1=TriBool.UNKNOWN,
        infinity=inf,
        chart=None,
    )


# -- metadata ------------------------------------------------------------------

_METADATA_FIELDS = ("is_real", "has_real_points", "bounded_ring_trivial", "rational_open_A1")


def _apply_metadata(comp: Component, metadata: dict | None) -> None:
    if not metadata:
        return
    for name in _METADATA_FIELDS:
        if name not in metadata:
            continue
        supplied = TriBool.of(bool(metadata[name]))
        current = getattr(comp, name)
        if current is TriBool.UNKNOWN:
            setattr(comp, name, supplied)
            comp.metadata_used[name] = metadata[name]
        elif current is not supplied:
            raise MetadataConflict(
                f"metadata sets {name}={metadata[name]} but exact analysis of "
                f"{format_bipoly(comp.poly)} determined {current.value}"
            )
    unknown = set(metadata) - set(_METADATA_FIELDS)
    if unknown:
        raise MetadataConflict(f"unknown metadata fields: {sorted(unknown)}")
