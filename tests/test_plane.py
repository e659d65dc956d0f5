from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import BiPoly
from soscurves.components import (
    CircleChart,
    InvalidComponent,
    MetadataConflict,
    PolyChart,
    PuncturedChart,
    UnsupportedComponent,
    build_component,
    infinity_summary,
)
from soscurves.curve import PointClass, analyze_curve, classify_point
from soscurves.intersect import (
    SharedComponent,
    choose_shear,
    fast_intersection,
    sheared_intersection,
)
from soscurves.points import (
    AlgebraicPoint,
    RationalPoint,
    curve_sign_at,
    lies_on,
    same_point,
)
from soscurves.polyparse import parse_bipoly as B
from soscurves.tribool import TriBool

UNIT_CIRCLE = B("x^2 + y^2 - 1")


# -- pair intersections -------------------------------------------------------


def test_fast_path_two_far_circles():
    got = fast_intersection(UNIT_CIRCLE, B("(x-3)^2 + y^2 - 1"))
    assert got is not None
    assert got.real_points == []
    assert got.total_closed_points == 2
    (pair,) = got.nonreal_pairs
    assert pair.abscissa == Fr(3, 2)
    assert pair.y_quadratic is not None
    assert pair.y_quadratic(Fr(0)) == Fr(5, 4)  # y^2 + 5/4


def test_fast_path_circle_and_axis():
    got = fast_intersection(UNIT_CIRCLE, B("y"))
    assert got is not None
    assert got.total_closed_points == 2
    assert sorted(p.x for p in got.real_points) == [Fr(-1), Fr(1)]
    assert all(p.y == 0 for p in got.real_points)


def test_fast_path_needs_shear_for_irrational_points():
    assert fast_intersection(UNIT_CIRCLE, B("x - y")) is None
    assert fast_intersection(UNIT_CIRCLE, B("(x-1)^2 + y^2 - 1")) is None


def test_fast_path_vertical_line():
    got = fast_intersection(B("x - 1"), B("y - x^2"))
    assert got is not None
    assert got.real_points == [RationalPoint(Fr(1), Fr(1))]


def test_sheared_line_circle_points():
    lam = choose_shear([(UNIT_CIRCLE, B("x - y"))])
    got = sheared_intersection(UNIT_CIRCLE, B("x - y"), lam)
    assert got.total_closed_points == 2
    assert len(got.real_points) == 2
    for p in got.real_points:
        assert isinstance(p, AlgebraicPoint)
        assert lies_on(UNIT_CIRCLE, p)
        assert lies_on(B("x - y"), p)
        x, y = p.as_floats()
        assert abs(x * x + y * y - 1) < 1e-9
        assert abs(x - y) < 1e-9


def test_sheared_overlapping_circles():
    other = B("(x-1)^2 + y^2 - 1")
    lam = choose_shear([(UNIT_CIRCLE, other)])
    got = sheared_intersection(UNIT_CIRCLE, other, lam)
    assert got.total_closed_points == 2 and not got.nonreal_pairs
    xs = [p.as_floats()[0] for p in got.real_points]
    ys = sorted(p.as_floats()[1] for p in got.real_points)
    assert all(abs(x - 0.5) < 1e-9 for x in xs)
    assert abs(ys[0] + 3**0.5 / 2) < 1e-9 and abs(ys[1] - 3**0.5 / 2) < 1e-9


def test_sheared_tangential_contact():
    # circle and hyperbola tangent at two irrational points
    hyp = B("x*y - 2")
    circ = B("x^2 + y^2 - 4")
    lam = choose_shear([(circ, hyp)])
    got = sheared_intersection(circ, hyp, lam)
    assert got.total_closed_points == 2
    assert len(got.real_points) == 2
    for p in got.real_points:
        assert lies_on(circ, p) and lies_on(hyp, p)


def test_point_identity_across_pairs():
    # the same irrational point found through two different pairs must merge
    line = B("x - y")
    hyp = B("x*y - 2")
    circ = B("x^2 + y^2 - 4")
    lam = choose_shear([(line, circ), (line, hyp)])
    a = sheared_intersection(line, circ, lam)
    b = sheared_intersection(line, hyp, lam)
    hits = 0
    for p in a.real_points:
        for q in b.real_points:
            if same_point(p, q):
                hits += 1
    assert hits == 2  # (r2, r2) and (-r2, -r2) with r2 = sqrt(2)


def test_shared_component_detected():
    with pytest.raises(SharedComponent):
        fast_intersection(B("x - y"), B("(x - y)*(x + y)"))


# -- point classification -----------------------------------------------------


def test_classify_crossing_lines():
    got = classify_point([B("x"), B("y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.ORDINARY_DOUBLE_POINT
    assert got.tangents is not None
    assert {t for t in got.tangents} == {B("x"), B("y")}


def test_classify_tangent_parabola_line():
    got = classify_point([B("y - x^2"), B("y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT


def test_classify_cusp_with_line():
    got = classify_point([B("y"), B("y^2 - x^3")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT


def test_classify_cusp_alone():
    got = classify_point([B("y^2 - x^3")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT
    assert got.factors_through == 1


def test_classify_node_of_nodal_cubic():
    got = classify_point([B("y^2 - x^3 - x^2")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.ORDINARY_DOUBLE_POINT


def test_classify_smooth_point():
    got = classify_point([UNIT_CIRCLE], RationalPoint(Fr(1), Fr(0)))
    assert got.kind is PointClass.NON_SINGULAR


def test_classify_three_concurrent_lines():
    got = classify_point([B("x"), B("y"), B("x - y")], RationalPoint(Fr(0), Fr(0)))
    assert got.kind is PointClass.NOT_OMPIT
    assert got.factors_through == 3


def test_classify_algebraic_crossing():
    an = analyze_curve([UNIT_CIRCLE, B("(x-1)^2 + y^2 - 1")])
    pts = [r for r in an.points if r.is_real]
    assert len(pts) == 2
    assert all(r.ompit is TriBool.YES for r in pts)
    assert all(r.classification.kind is PointClass.ORDINARY_DOUBLE_POINT for r in pts)


# -- component attributes -----------------------------------------------------


def test_line_component():
    c = build_component(0, B("2*x - 3*y + 1"))
    assert c.is_real is TriBool.YES
    assert c.bounded_ring_trivial is TriBool.YES
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, PolyChart)
    t = Fr(5, 7)
    assert B("2*x - 3*y + 1")(c.chart.x(t), c.chart.y(t)) == 0


def test_parabola_component():
    c = build_component(0, B("y - x^2"))
    assert c.conic_kind == "parabola"
    assert c.bounded_ring_trivial is TriBool.YES
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, PolyChart)
    for t in (Fr(0), Fr(2), Fr(-7, 3)):
        assert B("y - x^2")(c.chart.x(t), c.chart.y(t)) == 0
    assert c.infinity.real_places == 1 and c.infinity.nonreal_pairs == 0


def test_hyperbola_component():
    c = build_component(0, B("x*y - 1"))
    assert c.conic_kind == "hyperbola"
    assert c.rational_open_A1 is TriBool.YES
    assert isinstance(c.chart, PuncturedChart)
    t = Fr(3)
    den = c.chart.den(t)
    x, y = c.chart.x_num(t) / den, c.chart.y_num(t) / den
    assert x * y == 1
    assert c.chart.den(c.chart.excluded) == 0
    assert c.infinity.real_places == 2


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


def test_invalid_components():
    with pytest.raises(InvalidComponent):
        build_component(0, B("(x + y)^2"))
    with pytest.raises(InvalidComponent):
        build_component(0, B("7"))


def test_reducible_factor_is_named_as_such():
    with pytest.raises(InvalidComponent, match="reducible or has a repeated factor"):
        build_component(0, B("x*y"))


def test_cubic_attributes_default_unknown():
    c = build_component(0, B("y^2 - x^3"))
    assert c.is_real is TriBool.UNKNOWN
    assert c.bounded_ring_trivial is TriBool.UNKNOWN
    assert not c.infinity.exact


def test_cubic_with_transversal_infinity_is_exact():
    # y^2*x - x^3 + y^3... use a cubic with squarefree leading form
    F = B("y^3 - x^3 + x*y - 1")
    c = build_component(0, F)
    assert c.infinity.exact
    assert c.infinity.real_places == 1 and c.infinity.nonreal_pairs == 1
    assert c.bounded_ring_trivial is TriBool.NO


def test_metadata_fills_unknowns_only():
    c = build_component(0, B("y^2 - x^3"), {"is_real": True, "rational_open_A1": False})
    assert c.is_real is TriBool.YES
    assert c.rational_open_A1 is TriBool.NO
    with pytest.raises(MetadataConflict):
        build_component(0, UNIT_CIRCLE, {"is_real": False})
    with pytest.raises(MetadataConflict):
        build_component(0, UNIT_CIRCLE, {"not_a_field": True})


def test_infinity_summary_for_lines():
    s = infinity_summary(B("x - 1"))
    assert s.real_places == 1 and s.vertical_multiplicity == 1
    s = infinity_summary(B("y - x"))
    assert s.real_places == 1 and s.vertical_multiplicity == 0


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
        assert rec.classification.factors_through == 3


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
