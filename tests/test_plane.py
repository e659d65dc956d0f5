import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soscurves.bipoly import (
    BiPoly,
    QuadraticSplitKind,
    have_common_factor,
    resultant_y,
    split_binary_quadratic,
)
from soscurves.components import (
    CircleChart,
    InvalidComponent,
    LineChart,
    UnsupportedComponent,
    build_component,
    infinity_summary,
)
from soscurves import bipoly, components, configuration, curve, intersect, ringfn
from soscurves.curve import PointClass, analyze_curve, classify_point, to_configuration
from soscurves.intersect import (
    SharedComponent,
    choose_shear,
    fast_intersection,
    shear_bad_bound,
    shear_score,
    sheared_intersection,
)
from soscurves.points import (
    AlgebraicPoint,
    RationalPoint,
    curve_sign_at,
    same_point,
)
from soscurves.polyparse import parse_bipoly as B
from soscurves.tribool import TriBool
from soscurves.unipoly import UniPoly, gcd, isolate_real_roots, squarefree_part

UNIT_CIRCLE = B("x^2 + y^2 - 1")


# -- pair intersections -------------------------------------------------------


def test_fast_path_two_far_circles():
    got = fast_intersection(UNIT_CIRCLE, B("(x-3)^2 + y^2 - 1"))
    assert got is not None
    assert got.real_points == []
    (pair,) = got.nonreal_pairs
    assert pair.abscissa == Fr(3, 2)
    assert pair.y_quadratic is not None
    assert pair.y_quadratic(Fr(0)) == Fr(5, 4)  # y^2 + 5/4


def test_fast_path_circle_and_axis():
    got = fast_intersection(UNIT_CIRCLE, B("y"))
    assert got is not None
    assert not got.nonreal_pairs
    assert sorted(p.x for p in got.real_points) == [Fr(-1), Fr(1)]
    assert all(p.y == 0 for p in got.real_points)


def test_fast_path_builds_one_sturm_chain_for_a_resultant_with_a_double_root(monkeypatch):
    import soscurves.unipoly as up

    built = []
    chain = up.sturm_chain
    monkeypatch.setattr(up, "sturm_chain", lambda p: built.append(p) or chain(p))
    monkeypatch.setattr(intersect, "squarefree_part", lambda p: pytest.fail("radical computed twice"))
    F, G = UNIT_CIRCLE, B("y - 1")  # tangent at (0, 1)
    R = resultant_y(F, G)
    assert R.degree == 2 and squarefree_part(R).degree == 1
    built.clear()
    got = fast_intersection(F, G)
    assert got.real_points == [RationalPoint(Fr(0), Fr(1))] and not got.nonreal_pairs
    # one remainder sequence for the resultant; the fibre's gcd y - 1 is linear
    assert built == [R]


def test_fast_path_needs_shear_for_irrational_points():
    assert fast_intersection(UNIT_CIRCLE, B("x - y")) is None
    assert fast_intersection(UNIT_CIRCLE, B("(x-1)^2 + y^2 - 1")) is None


def test_fast_path_vertical_line():
    got = fast_intersection(B("x - 1"), B("y - x^2"))
    assert got is not None
    assert got.real_points == [RationalPoint(Fr(1), Fr(1))]


def test_sheared_line_circle_points():
    _, (pair,) = choose_shear([(UNIT_CIRCLE, B("x - y"))])
    got = sheared_intersection(pair)
    assert not got.nonreal_pairs
    assert len(got.real_points) == 2
    for p in got.real_points:
        assert isinstance(p, AlgebraicPoint)
        assert curve_sign_at(UNIT_CIRCLE, p) == 0
        assert curve_sign_at(B("x - y"), p) == 0
        x, y = p.as_floats()
        assert abs(x * x + y * y - 1) < 1e-9
        assert abs(x - y) < 1e-9


def test_sheared_overlapping_circles():
    other = B("(x-1)^2 + y^2 - 1")
    _, (pair,) = choose_shear([(UNIT_CIRCLE, other)])
    got = sheared_intersection(pair)
    assert len(got.real_points) == 2 and not got.nonreal_pairs
    xs = [p.as_floats()[0] for p in got.real_points]
    ys = sorted(p.as_floats()[1] for p in got.real_points)
    assert all(abs(x - 0.5) < 1e-9 for x in xs)
    assert abs(ys[0] + 3**0.5 / 2) < 1e-9 and abs(ys[1] - 3**0.5 / 2) < 1e-9


def test_sheared_tangential_contact():
    # circle and hyperbola tangent at two irrational points
    hyp = B("x*y - 2")
    circ = B("x^2 + y^2 - 4")
    _, (pair,) = choose_shear([(circ, hyp)])
    got = sheared_intersection(pair)
    assert not got.nonreal_pairs
    assert len(got.real_points) == 2
    for p in got.real_points:
        assert curve_sign_at(circ, p) == 0 and curve_sign_at(hyp, p) == 0


def test_point_identity_across_pairs():
    # the same irrational point found through two different pairs must merge
    line = B("x - y")
    hyp = B("x*y - 2")
    circ = B("x^2 + y^2 - 4")
    _, (with_circ, with_hyp) = choose_shear([(line, circ), (line, hyp)])
    a = sheared_intersection(with_circ)
    b = sheared_intersection(with_hyp)
    hits = 0
    for p in a.real_points:
        for q in b.real_points:
            if same_point(p, q):
                hits += 1
    assert hits == 2  # (r2, r2) and (-r2, -r2) with r2 = sqrt(2)


def _random_pair(rng: random.Random) -> tuple[BiPoly, BiPoly]:
    while True:
        F, G = (
            BiPoly({(i, j): rng.randint(-2, 2) for i in range(d + 1) for j in range(d + 1 - i)})
            for d in (rng.randint(1, 2), rng.randint(1, 2))
        )
        if F.total_degree >= 1 and G.total_degree >= 1 and not have_common_factor(F, G):
            return F, G


def _valid_shear(F: BiPoly, G: BiPoly, k: int) -> bool:
    # the y^deg coefficient of P(u - k*y, y) is the leading form at (-k, 1)
    return all(P.leading_form()(-k, 1) != 0 for P in (F, G))


def _pool_maximum_reference(F: BiPoly, G: BiPoly) -> list[bool]:
    """Per integer shear in the pool: valid, and the squarefree degree of the
    sheared resultant reaches its maximum over the pool."""
    scores = []
    for k in range(1, shear_bad_bound(F, G) + 2):
        Fs, Gs = (P.compose_linear(1, -k, 0, 1) for P in (F, G))
        scores.append(squarefree_part(resultant_y(Fs, Gs)).degree if _valid_shear(F, G, k) else -1)
    best = max(scores)
    return [s == best for s in scores]


FIXED_PAIRS = [
    ("x^2 + y^2 - 4", "x*y - 2"),  # tangent at two irrational points
    ("y^2 - x^3", "y - x"),  # line through a cusp
    ("y^2 - x^2*(x + 1)", "y - x"),  # line along a branch of a node
    ("x^2 + y^2 - 1", "(x-1)^2 + (y-1)^2 - 1"),  # collides at lam = 1
    # on the fibre x + y = 0 both restrict to multiples of y^3, resp. y^3 - y:
    # one triple point (separating at lam = 1), three points (colliding)
    ("y^3 + (x + y)*(x^2 + 1)", "2*y^3 - (x + y)*(y^2 + x - 1)"),
    ("y^3 - y + (x + y)*(x^2 + 1)", "2*y^3 - 2*y - (x + y)*(y^2 + x - 1)"),
]


def test_shear_score_is_the_pool_maximum_test():
    rng = random.Random(20080803)
    pairs = [_random_pair(rng) for _ in range(30)] + [(B(f), B(g)) for f, g in FIXED_PAIRS]
    rejected_valid = 0
    for F, G in pairs:
        expected = _pool_maximum_reference(F, G)
        got = [shear_score(F, G, Fr(k)) is not None for k in range(1, len(expected) + 1)]
        assert got == expected, (F, G)
        assert choose_shear([(F, G)])[0] == expected.index(True) + 1
        rejected_valid += sum(not ok and _valid_shear(F, G, k) for k, ok in enumerate(expected, start=1))
    assert rejected_valid > 0  # some valid shears merge two points


def test_shear_collision_is_rejected():
    # (1, 0) and (0, 1) share u = x + y = 1
    F, G = UNIT_CIRCLE, B("(x-1)^2 + (y-1)^2 - 1")
    assert shear_score(F, G, Fr(1)) is None
    assert shear_score(F, G, Fr(2)) is not None
    assert choose_shear([(F, G)])[0] == 2


def _fibre_gcd_points(F: BiPoly, G: BiPoly, lam: Fr) -> list[RationalPoint]:
    """Rational points over the rational u-roots, read off the gcd of the two
    specialized fibres (an independent reference for the ladder reader)."""
    Fs, Gs = (P.compose_linear(1, -lam, 0, 1) for P in (F, G))
    out = []
    for box in isolate_real_roots(squarefree_part(resultant_y(Fs, Gs))):
        u0 = box.exact_value
        if u0 is None:
            continue
        g = gcd(Fs.specialize_x(u0), Gs.specialize_x(u0))
        k = g.degree
        y0 = -g.coeff(k - 1) / k
        assert g == UniPoly.linear_root(y0) ** k
        out.append(RationalPoint(u0 - lam * y0, y0))
    return out


def test_ladder_reads_the_fibre_gcd_points():
    rng = random.Random(20150601)
    compared = 0
    for _ in range(60):
        F, G = _random_pair(rng)
        lam, (pair,) = choose_shear([(F, G)])
        got = [p for p in sheared_intersection(pair).real_points if isinstance(p, RationalPoint)]
        assert got == _fibre_gcd_points(F, G, lam), (F, G)
        compared += len(got)
    assert compared >= 20


@pytest.mark.parametrize(
    "factors",
    [
        ["y^2 - x^3 + 2*x - 1", "y - x^3 + x", "x^2*y - y^3 + 1 - x"],
        ["x^2 + y^2 - 1", "x - y"],
    ],
)
def test_accepted_shear_is_not_eliminated_again(monkeypatch, factors):
    events = []
    for name in ("_shear", "resultant_y", "_subresultant_ladder"):
        original = getattr(intersect, name)
        monkeypatch.setattr(
            intersect, name, lambda *args, _f=original, _n=name: events.append(_n) or _f(*args)
        )
    chooser = curve.choose_shear

    def choose_and_mark(pairs):
        got = chooser(pairs)
        events.append("accepted")
        return got

    monkeypatch.setattr(curve, "choose_shear", choose_and_mark)
    an = analyze_curve([B(f) for f in factors])
    assert an.shear is not None
    assert events.count("accepted") == 1
    done = events.index("accepted")
    assert "_subresultant_ladder" in events[:done]  # the separation test ran
    assert events[done + 1 :] == []


def test_shared_component_detected():
    with pytest.raises(SharedComponent):
        fast_intersection(B("x - y"), B("(x - y)*(x + y)"))


@pytest.mark.parametrize(
    "F, G",
    [
        ("x - 1", "(x - 1)*(y - x)"),  # both vanish on the fibre x = 1
        ("(x - 1)*(y + x)", "(x - 1)*(y - x)"),  # resultant -2x(x - 1)^2 is not zero
        ("x^2 - 1", "x - 1"),  # two curves of vertical lines
    ],
)
def test_shared_vertical_line_is_detected(F, G):
    with pytest.raises(SharedComponent):
        fast_intersection(B(F), B(G))
    with pytest.raises(SharedComponent):
        fast_intersection(B(G), B(F))


@pytest.mark.parametrize(
    "factors, first, second",
    [
        (["x - 1", "2*x - 2"], "C1", "C2"),
        (["x - y", "2*x - 2*y"], "C1", "C2"),
        (["x^2 + y^2 - 1", "x^2 + y^2 - 1"], "C1", "C2"),
        (["x^2 + y^2 - 1", "y", "2*x^2 + 2*y^2 - 2"], "C1", "C3"),
    ],
)
def test_shared_component_names_the_pair(factors, first, second):
    with pytest.raises(SharedComponent, match=f"^components {first} and {second} share a factor$"):
        analyze_curve([B(f) for f in factors])


def test_unsheared_pair_is_eliminated_once(monkeypatch):
    eliminated = []
    original = bipoly.resultant_y
    for module in (bipoly, intersect):
        monkeypatch.setattr(
            module, "resultant_y", lambda F, G: eliminated.append((F, G)) or original(F, G)
        )
    looked_up = []
    lookup = ringfn.chart_arguments
    counted = lambda *args: looked_up.append(args) or lookup(*args)  # noqa: E731
    for module in (ringfn, curve, configuration):
        monkeypatch.setattr(module, "chart_arguments", counted, raising=False)
    signed = []
    sign = curve.curve_sign_at
    monkeypatch.setattr(curve, "curve_sign_at", lambda F, p: signed.append(F) or sign(F, p))
    factors = [B(f) for f in ("y", "x - y", "x + y - 2", "y - x^2", "x - 3")]
    an = analyze_curve(factors)
    assert an.shear is None
    both = [(F, G) for F, G in combinations(factors, 2) if F.deg_y > 0 and G.deg_y > 0]
    assert sorted(map(str, eliminated)) == sorted(map(str, both))
    # incidences come from the pairs' own intersections: no factor is
    # evaluated at a point again
    assert signed and not any(F in factors for F in signed)
    to_configuration(an)
    assert looked_up == []


# -- point classification -----------------------------------------------------


def test_classify_crossing_lines():
    got = classify_point([B("x"), B("y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.ORDINARY_DOUBLE_POINT


def test_classify_tangent_parabola_line():
    got = classify_point([B("y - x^2"), B("y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT


def test_classify_cusp_with_line():
    got = classify_point([B("y"), B("y^2 - x^3")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT


def test_classify_cusp_alone():
    got = classify_point([B("y^2 - x^3")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT


def test_classify_node_of_nodal_cubic():
    got = classify_point([B("y^2 - x^3 - x^2")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.ORDINARY_DOUBLE_POINT


def test_classify_smooth_point():
    got = classify_point([UNIT_CIRCLE], RationalPoint(Fr(1), Fr(0)))
    assert got.kind is PointClass.NON_SINGULAR


def test_classify_three_concurrent_lines():
    got = classify_point([B("x"), B("y"), B("x - y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT
    assert got.detail == "more than two branches through the point"


def _reference_classification(through, p):
    """The order-one/order-two expansion of the product translated to p."""
    prod = BiPoly.const(1)
    for F in through:
        prod = prod * F
    local = prod.translate(p.x, p.y)
    if not local.homogeneous_part(1).is_zero():
        return PointClass.NON_SINGULAR, ""
    split = split_binary_quadratic(local.homogeneous_part(2))
    if split.kind is QuadraticSplitKind.TWO_DISTINCT_REAL:
        return PointClass.ORDINARY_DOUBLE_POINT, "ordinary double point"
    return PointClass.NOT_OMPIT, split.kind


def _vanishing_at(rng, p, order):
    """A random polynomial of degree <= 3 vanishing to at least `order` at p."""
    terms = {
        (i, j): rng.randint(-3, 3)
        for i in range(4)
        for j in range(4 - i)
        if i + j >= order and rng.random() < 0.5
    }
    local = BiPoly(terms)
    if local.is_zero():
        local = BiPoly({(order, 0): 1, (0, 3): 1})
    return local.translate(-p.x, -p.y)


def test_classify_matches_the_translated_product():
    rng = random.Random(20080804)
    seen = set()
    for _ in range(300):
        p = RationalPoint(Fr(rng.randint(-4, 4), rng.randint(1, 3)), Fr(rng.randint(-4, 4), rng.randint(1, 3)))
        F = _vanishing_at(rng, p, rng.choice((1, 2)))
        if rng.random() < 0.5:
            through = [F]
        elif rng.random() < 0.3:  # the tangent line of F at p (a vertical one where F is singular)
            fx, fy = F.partial_x()(p.x, p.y), F.partial_y()(p.x, p.y)
            if fx == fy == 0:
                fx = Fr(1)
            through = [F, BiPoly({(1, 0): fx, (0, 1): fy, (0, 0): -fx * p.x - fy * p.y})]
        else:
            through = [F, _vanishing_at(rng, p, rng.choice((1, 1, 2)))]
        got = classify_point(through, p)
        kind, why = _reference_classification(through, p)
        assert got.kind is kind
        if kind is PointClass.NOT_OMPIT:
            seen.add(why)
            assert got.detail == {
                QuadraticSplitKind.ZERO: "order-two part vanishes",
                QuadraticSplitKind.PERFECT_SQUARE: "repeated tangent",
                QuadraticSplitKind.IRREDUCIBLE_OVER_REALS: "isolated real branch (conjugate tangents)",
            }[why]
        else:
            seen.add(kind)
            assert got.detail == why
    assert len(seen) == 5  # every kind and every degenerate form occurred


@pytest.mark.parametrize(
    "factors, detail",
    [
        (["y - (x^2 - 2)^2", "y"], "repeated tangent"),
        (["y^2 - (x^2 - 2)^2*(x + 3)", "y"], "order-two part vanishes"),
        (["y^2 + (x^2 - 2)^2*(x + 3)"], "isolated real branch (conjugate tangents)"),
        (["y^2 - (x^2 - 2)^2*(x + 3)"], "ordinary double point"),
    ],
)
def test_classify_at_algebraic_points(factors, detail):
    an = analyze_curve([B(f) for f in factors])
    boxed = [r for r in an.points if isinstance(r.point, AlgebraicPoint)]
    assert len(boxed) == 2
    for rec in boxed:
        assert rec.classification.detail == detail
        wanted = PointClass.ORDINARY_DOUBLE_POINT if detail == "ordinary double point" else PointClass.NOT_OMPIT
        assert rec.classification.kind is wanted


def test_classify_algebraic_crossing():
    an = analyze_curve([UNIT_CIRCLE, B("(x-1)^2 + y^2 - 1")])
    pts = [r for r in an.points if r.is_real]
    assert len(pts) == 2
    assert all(r.ompit is TriBool.YES for r in pts)
    assert all(r.classification.kind is PointClass.ORDINARY_DOUBLE_POINT for r in pts)


# -- component attributes -----------------------------------------------------


def _chart_point(chart, t):
    den = chart.den(t)
    return chart.x_num(t) / den, chart.y_num(t) / den


def test_line_component():
    c = build_component(0, B("2*x - 3*y + 1"))
    assert c.is_real is TriBool.YES
    assert c.bounded_ring_trivial is TriBool.YES
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, LineChart) and c.chart.excluded is None
    t = Fr(5, 7)
    x, y = _chart_point(c.chart, t)
    assert B("2*x - 3*y + 1")(x, y) == 0
    assert c.chart.alpha * x + c.chart.beta * y == t


def test_parabola_component():
    c = build_component(0, B("y - x^2"))
    assert c.conic_kind == "parabola"
    assert c.bounded_ring_trivial is TriBool.YES
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, LineChart) and c.chart.excluded is None
    for t in (Fr(0), Fr(2), Fr(-7, 3)):
        x, y = _chart_point(c.chart, t)
        assert B("y - x^2")(x, y) == 0
        assert c.chart.alpha * x + c.chart.beta * y == t
    # the place at infinity is a tangency, so the transversal count does not apply
    assert infinity_summary(B("y - x^2")) is None


def test_hyperbola_component():
    c = build_component(0, B("x*y - 1"))
    assert c.conic_kind == "hyperbola"
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, LineChart)
    t = Fr(3)
    x, y = _chart_point(c.chart, t)
    assert x * y == 1
    assert c.chart.alpha * x + c.chart.beta * y == t
    assert c.chart.den(c.chart.excluded) == 0
    assert infinity_summary(B("x*y - 1")) == 0


_ratios = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["line", "vertical line", "parabola", "hyperbola"]),
    entries=st.lists(_ratios, min_size=6, max_size=6),
    ts=st.lists(_ratios, min_size=1, max_size=4),
)
def test_line_chart_inverse_reads_back_the_parameter(kind, entries, ts):
    # the image of y, x, y - x^2 or x*y - 1 under (x, y) -> (L1, L2) for a
    # random invertible affine map; L1 keeps no y for a vertical line
    a, b, c, d, e, f = entries
    if kind == "vertical line":
        b = Fr(0)
    assume(a * d - b * c != 0)
    L1 = BiPoly({(1, 0): a, (0, 1): b, (0, 0): e})
    L2 = BiPoly({(1, 0): c, (0, 1): d, (0, 0): f})
    F = {
        "line": L2,
        "vertical line": L1,
        "parabola": L2 - L1 * L1,
        "hyperbola": L1 * L2 - BiPoly.const(1),
    }[kind]
    chart = build_component(0, F).chart
    assert isinstance(chart, LineChart)
    assert (chart.excluded is None) == (kind != "hyperbola")
    for t in ts:
        if t == chart.excluded:
            continue
        x, y = _chart_point(chart, t)
        assert F(x, y) == 0
        assert chart.alpha * x + chart.beta * y == t


# conics in coordinates (u, v), moved by a random affine map (x, y) -> (u, v)
_CONIC_FORMS = {
    "ellipse": "u^2 + v^2 - 1",
    "empty": "u^2 + v^2 + 1",
    "parabola": "v - u^2",
    "hyperbola": "u*v - 1",
    "irrational hyperbola": "u^2 - 2*v^2 - 1",
    "double line": "u^2",
    "real line pair": "u*v",
    "irrational line pair": "u^2 - 2*v^2",
    "parallel lines": "u^2 - 1",
    "complex line pair": "u^2 + v^2",
    "complex parallel lines": "u^2 + 1",
}


@st.composite
def _conics(draw):
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
        assume(any(coeffs[:3]))
        return BiPoly(dict(zip([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)], coeffs)))
    a, b, c, d, e, f, k = draw(st.lists(_ratios, min_size=7, max_size=7))
    assume(a * d - b * c != 0 and k != 0)
    G = B(_CONIC_FORMS[draw(st.sampled_from(sorted(_CONIC_FORMS)))], ("u", "v"))
    return G.translate(e, f).compose_linear(a, b, c, d).scale(k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(F=_conics())
def test_conic_signature_rank_and_kernel_match_sympy(F):
    sp = pytest.importorskip("sympy")
    a, b, c, d, e, f = (sp.Rational(F.coeff(*k).numerator, F.coeff(*k).denominator)
                        for k in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    M = sp.Matrix([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, f]])
    roots = sp.Poly(M.charpoly().as_expr()).real_roots()
    pos, neg = components._conic_signature(F)
    assert (pos, neg) == (sum(1 for r in roots if r > 0), sum(1 for r in roots if r < 0))
    assert pos + neg == M.rank()
    if pos + neg == 3:  # build_component skips the resultant test for these
        assert components.is_squarefree(F)
    if pos + neg == 2:
        k = sp.Matrix(components._conic_kernel(F))
        assert any(k) and M * k == sp.zeros(3, 1)


def test_hyperbola_without_rational_asymptotes():
    c = build_component(0, B("x^2 - 2*y^2 - 1"))
    assert c.conic_kind == "hyperbola"
    assert c.rational_open_A1 is TriBool.YES
    assert c.chart is None


def test_ellipse_component():
    c = build_component(0, UNIT_CIRCLE)
    assert c.conic_kind == "ellipse"
    assert c.is_real is TriBool.YES
    assert c.bounded_ring_trivial is TriBool.NO
    assert c.rational_open_A1 is TriBool.NO
    assert isinstance(c.chart, CircleChart)
    assert c.chart.q == B("1 - x^2").specialize_y(0)
    assert c.chart.x_range() == (Fr(-1), Fr(1))


def test_empty_conic():
    c = build_component(0, B("x^2 + y^2 + 1"))
    assert c.conic_kind == "empty"
    assert c.is_real is TriBool.NO
    assert c.has_real_points is TriBool.NO


def test_conjugate_lines_with_affine_crossing():
    c = build_component(0, B("x^2 + y^2"))
    assert c.conic_kind == "conjugate-lines"
    assert c.is_real is TriBool.NO
    assert c.has_real_points is TriBool.YES


def test_conjugate_lines_crossing_at_infinity():
    c = build_component(0, B("x^2 + 1"))
    assert c.conic_kind == "conjugate-lines"
    assert c.has_real_points is TriBool.NO


def test_real_line_pair_is_unsupported():
    with pytest.raises(UnsupportedComponent):
        build_component(0, B("x^2 - 2*y^2"))
    with pytest.raises(UnsupportedComponent):
        build_component(0, B("y^3 - 2"))
    with pytest.raises(UnsupportedComponent, match="univariate factor"):
        build_component(0, B("(x + y)^3 - 2"))  # three parallel lines, two of them complex


def test_invalid_components():
    with pytest.raises(InvalidComponent):
        build_component(0, B("(x + y)^2"))
    with pytest.raises(InvalidComponent):
        build_component(0, B("7"))


def test_reducible_factor_is_named_as_such():
    with pytest.raises(InvalidComponent, match="reducible or has a repeated factor"):
        build_component(0, B("x*y"))


@pytest.mark.parametrize("poly", ["x^2 - y^2", "(x + y)*(x + y + 1)", "x^2 - y^2 + 2*x + 1"])
def test_rational_line_pair_is_reducible(poly):
    with pytest.raises(InvalidComponent, match="product of two rational lines"):
        build_component(0, B(poly))


@pytest.mark.parametrize("poly", ["(x - y)*(x^2 + y^2 - 1)", "x*(y^2 - x^3 - 1)"])
def test_cubic_containing_a_line_is_reducible(poly):
    with pytest.raises(InvalidComponent, match="reducible or has a repeated factor"):
        build_component(0, B(poly))


def test_cubic_attributes_default_unknown():
    c = build_component(0, B("y^2 - x^3"))
    assert c.is_real is TriBool.UNKNOWN
    assert c.bounded_ring_trivial is TriBool.UNKNOWN
    assert infinity_summary(B("y^2 - x^3")) is None


def test_cubic_with_transversal_infinity_is_exact():
    # y^2*x - x^3 + y^3... use a cubic with squarefree leading form
    F = B("y^3 - x^3 + x*y - 1")
    c = build_component(0, F)
    assert infinity_summary(F) == 1
    assert c.bounded_ring_trivial is TriBool.NO


def test_infinity_summary_for_lines():
    # a line meets the line at infinity once, vertically or not, in a real place
    assert infinity_summary(B("x - 1")) == 0
    assert infinity_summary(B("y - x")) == 0


# -- whole-curve analysis -----------------------------------------------------


def test_triangle_analysis():
    an = analyze_curve([B("x"), B("y"), B("1 - x - y")])
    assert len(an.points) == 3
    assert all(len(r.components) == 2 for r in an.points)
    assert all(r.ompit is TriBool.YES for r in an.points)


def test_cusp_line_analysis():
    an = analyze_curve([B("y"), B("y^2 - x^3")])
    (rec,) = an.points
    assert rec.is_real
    assert rec.components == (0, 1)
    assert rec.singular_on == (1,)
    assert rec.ompit is TriBool.NO


def test_far_circles_nonreal_record():
    an = analyze_curve([UNIT_CIRCLE, B("(x-3)^2 + y^2 - 1")])
    (rec,) = an.points
    assert not rec.is_real
    assert rec.point.abscissa == Fr(3, 2)


def test_no_intersections_at_all():
    an = analyze_curve([B("x^2 + y^2 + 1"), UNIT_CIRCLE])
    assert an.points == []


def test_triple_point_merging_with_irrational_coordinates():
    # the line, circle and hyperbola all pass through (r, r) and (-r, -r)
    # with r = sqrt(2); merged incidence must see three components
    an = analyze_curve([B("x - y"), B("x^2 + y^2 - 4"), B("x*y - 2")])
    real = [r for r in an.points if r.is_real]
    assert len(real) == 2
    for rec in real:
        assert rec.components == (0, 1, 2)
        assert rec.ompit is TriBool.NO
        assert rec.classification.detail == "more than two branches through the point"


def test_sheared_pair_does_not_repeat_a_known_nonreal_point():
    # C1 and C3 need the shear, which reports their one non-real pair as a
    # count only; the pair (2, +-i*sqrt(3)) is already known exactly from
    # the line C2, which passes through it too
    an = analyze_curve([UNIT_CIRCLE, B("x - 2"), B("2*x^2 - x*y + y^2 - 2*x + 2*y - 1")])
    assert an.shear is not None
    nonreal = [r for r in an.points if not r.is_real and {0, 2} <= set(r.components)]
    (rec,) = nonreal
    assert rec.components == (0, 1, 2)
    assert (rec.point.abscissa, rec.point.y_quadratic) == (2, UniPoly([Fr(3), Fr(0), Fr(1)]))
    config = to_configuration(an)
    joining = [
        p for p in config.points
        if p.realness is TriBool.NO and {"C1", "C3"} <= set(p.components)
    ]
    assert len(joining) == 1


def test_acnode_component_point_found():
    an = analyze_curve([B("x^2 + y^2"), B("x - 5")])
    real = [r for r in an.points if r.is_real]
    (rec,) = real
    assert rec.point == RationalPoint(Fr(0), Fr(0))
    assert rec.singular_on == (0,)
    assert rec.ompit is TriBool.NO


def test_duplicate_factor_rejected():
    with pytest.raises(SharedComponent):
        analyze_curve([B("x - y"), B("x - y")])


def test_curve_sign_at_algebraic_points():
    an = analyze_curve([UNIT_CIRCLE, B("(x-1)^2 + y^2 - 1")])
    upper = [r.point for r in an.points if r.point.as_floats()[1] > 0][0]
    assert curve_sign_at(B("y"), upper) > 0
    assert curve_sign_at(B("x"), upper) > 0
    assert curve_sign_at(B("x - 1"), upper) < 0
    assert curve_sign_at(UNIT_CIRCLE, upper) == 0


def test_three_cubics_analysis():
    an = analyze_curve([B("y^2 - x^3 + 2*x - 1"), B("y - x^3 + x"), B("x^2*y - y^3 + 1 - x")])
    assert an.shear == 2
    assert len(an.points) == 16
    real = [r for r in an.points if r.is_real]
    assert len(real) == 10
    (triple,) = [r for r in an.points if r.components == (0, 1, 2)]
    assert triple.is_real
    assert triple.classification.kind is PointClass.NOT_OMPIT


def test_intersections_a_cluster_apart_need_no_recursion():
    # 1200 bisection levels separate the two abscissae; a recursive
    # bisection ran out of stack on this input
    eps = Fr(1, 2**1200)
    analysis = analyze_curve([B("y"), B(f"y - (x - 1)*(x - 1 - 1/{2**1200})")])
    assert [r.point for r in analysis.points] == [RationalPoint(Fr(1), Fr(0)), RationalPoint(1 + eps, Fr(0))]
    assert all(r.classification.kind == PointClass.ORDINARY_DOUBLE_POINT for r in analysis.points)
