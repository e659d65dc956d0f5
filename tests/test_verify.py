from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from soscurves.certify import full_certify
from soscurves.curve import analyze_curve
from soscurves.points import AlgebraicPoint, RationalPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import (
    CircleFn,
    LineFn,
    SosCertificate,
    float_value,
    restrict_to_chart,
    value_at_point,
)
from soscurves.tribool import TriBool
from soscurves.unipoly import UniPoly
from soscurves.verify import verify_certificate


def test_numeric_agreement_at_algebraic_points():
    # two circles meeting at (1/2, +-sqrt(3)/2): irrational shared points,
    # where the agreement of a certificate marked numeric is checked in floats
    analysis = analyze_curve([B("x^2 + y^2 - 1"), B("x^2 + y^2 - 2*x")])
    F = B("x^2 + y^2 + 1")
    shared = [rec for rec in analysis.points if len(rec.components) == 2]
    assert [rec.id for rec in shared] == ["P1", "P2"]
    assert all(isinstance(rec.point, AlgebraicPoint) for rec in shared)

    cert = replace(full_certify(analysis, F), exact=False)
    report = verify_certificate(analysis, F, cert)
    assert report.ok, report.failures()
    assert {"agreement:P1", "agreement:P2"} <= {c.name for c in report.checks}

    cid = analysis.components[0].label
    f, *rest = cert.columns[cid]
    bumped = {**cert.columns, cid: (f + CircleFn.const(Fr(1, 1000), f.q), *rest)}
    report = verify_certificate(analysis, F, replace(cert, columns=bumped))
    failed = {c.name for c in report.failures()}
    assert {"agreement:P1", "agreement:P2"} <= failed
    assert not report.ok


def test_float_value_is_the_circle_formula():
    analysis = analyze_curve([B("x^2 + y^2 - 2*x - 24"), B("x - y")])
    circle, line = analysis.components
    fn = restrict_to_chart(B("x^3 + x*y^2 - 7*y + 2"), circle.chart)
    xf, yf = 0.3, -1.7
    wf = yf + float(circle.chart.s1) * xf + float(circle.chart.s0)
    assert float_value(fn, circle.chart, xf, yf) == fn.a.eval_float(xf) + fn.b.eval_float(xf) * wf
    p = RationalPoint(Fr(5), Fr(-3))  # on the circle
    assert float_value(fn, circle.chart, 5.0, -3.0) == pytest.approx(float(value_at_point(fn, circle.chart, p)))
    with pytest.raises(ValueError):
        float_value(LineFn.const(1), line.chart, xf, yf)


def test_exact_agreement_at_algebraic_points():
    # four unit circles on the corners of the unit square: target 1 has an
    # exact certificate, and six of the twelve shared points are irrational,
    # so the checker tests agreement there exactly in Q(alpha)
    factors = ["x^2+y^2-1", "(x-1)^2+y^2-1", "x^2+(y-1)^2-1", "(x-1)^2+(y-1)^2-1"]
    analysis = analyze_curve([B(f) for f in factors])
    F = B("1")
    cert = full_certify(analysis, F)
    assert cert.exact
    report = verify_certificate(analysis, F, cert)
    assert report.ok, report.failures()

    algebraic = [rec for rec in analysis.points if isinstance(rec.point, AlgebraicPoint)]
    cid = analysis.components[0].label
    index = analysis.component(cid).index
    touching = {f"agreement:{rec.id}" for rec in algebraic if index in rec.components}
    elsewhere = {f"agreement:{rec.id}" for rec in algebraic} - touching
    assert len(touching) == 4 and len(elsewhere) == 4

    f, *rest = cert.columns[cid]
    bumped = {**cert.columns, cid: (f + CircleFn.const(Fr(1, 1000), f.q), *rest)}
    report = verify_certificate(analysis, F, replace(cert, columns=bumped))
    failed = {c.name for c in report.failures()}
    assert touching <= failed
    assert not elsewhere & failed
    assert {c.name for c in report.checks} >= touching | elsewhere


def test_rational_point_off_a_component_fails_its_agreement_check():
    # a parabola with two lines: moving P2 off the parabola and the line
    # x - 1 is a failed check, not an exception
    analysis = analyze_curve([B("y - x^2"), B("x - 1"), B("x + 2")])
    F = B("x^2 + 1")
    cert = full_certify(analysis, F)
    assert verify_certificate(analysis, F, cert).ok
    moved = [
        replace(rec, point=RationalPoint(rec.point.x + 1, rec.point.y)) if rec.id == "P2" else rec
        for rec in analysis.points
    ]
    report = verify_certificate(replace(analysis, points=moved), F, cert)
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("agreement:P2", "P2 is not on C1, C2")
    ]


def test_agreement_at_a_tangency_fails():
    # y = x^2 touches y = 0 at the origin.  Both summands agree there in
    # value, but (t, -t) is no function on the curve: on the tangency the
    # two restrictions must agree modulo t^2, and t^2 does not divide 2t
    analysis = analyze_curve([B("y - x^2"), B("y")])
    (rec,) = analysis.points
    assert rec.is_real and rec.ompit is TriBool.NO
    t = UniPoly.var()
    cert = SosCertificate(
        {"C1": (LineFn.const(1), LineFn(t)), "C2": (LineFn.const(1), LineFn(-t))}
    )
    report = verify_certificate(analysis, B("1 + x^2"), cert)
    assert [(c.name, c.detail) for c in report.failures()] == [
        (f"agreement:{rec.id}", f"{rec.id} is not an ordinary multiple point")
    ]
    assert not report.ok


def test_agreement_at_a_conjugate_pair():
    # the unit circle and the line x = 2 meet only in the pair (2, +-i*sqrt(3));
    # on the circle w = y and on the line t = y, so 1 + y^2 = 1^2 + w^2 = 1^2 + t^2
    analysis = analyze_curve([B("x^2 + y^2 - 1"), B("x - 2")])
    (pair,) = analysis.points
    assert (pair.id, pair.is_real, pair.point.abscissa) == ("P1", False, 2)
    F = B("1 + y^2")
    q = analysis.component("C1").chart.q

    def checked(line_second):
        cert = SosCertificate(
            columns={
                "C1": (CircleFn.const(1, q), CircleFn(UniPoly.zero(), UniPoly.one(), q)),
                "C2": (LineFn.const(1), line_second),
            }
        )
        return verify_certificate(analysis, F, cert)

    t = LineFn(UniPoly.var())
    report = checked(t)
    assert report.ok, report.failures()
    assert "agreement:P1" in {c.name for c in report.checks}
    report = checked(-t)
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("agreement:P1", "summand 1 disagrees at non-real P1")
    ]


def _drop_column(cert, cid):
    return {k: col for k, col in cert.columns.items() if k != cid}


def _short_column(cert, cid):
    return {**cert.columns, cid: cert.columns[cid][:-1]}


def _foreign_column(cert, cid):
    return {**cert.columns, "C9": (LineFn.zero(),) * len(cert)}


@pytest.mark.parametrize(
    "factors, target",
    [
        (["x", "y"], "x^2 + y^2 + 1"),
        (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1"),
    ],
    ids=["two-lines", "two-circles"],
)
@pytest.mark.parametrize("edit", [_drop_column, _short_column, _foreign_column])
def test_coverage_reads_the_components_of_the_curve(factors, target, edit):
    # the checker takes the components from the analysis: a certificate
    # that leaves one out, is one summand short on one, or covers one the
    # curve does not have fails coverage and is checked no further
    analysis = analyze_curve([B(f) for f in factors])
    F = B(target)
    cert = full_certify(analysis, F)
    assert verify_certificate(analysis, F, cert).ok
    report = verify_certificate(analysis, F, replace(cert, columns=edit(cert, "C2")))
    assert not report.ok
    assert [c.name for c in report.checks] == ["coverage"]


@pytest.mark.parametrize(
    "factors, target",
    [
        (["x"], "x"),
        (["x", "y"], "x*y"),
        (["x^2 + y^2 - 1", "y"], "y*(x^2 + y^2 - 1)"),
    ],
    ids=["line", "two-lines", "circle-and-secant"],
)
def test_a_target_vanishing_on_the_curve_is_the_empty_sum(factors, target):
    analysis = analyze_curve([B(f) for f in factors])
    F = B(target)
    cert = full_certify(analysis, F)
    assert cert.exact and len(cert) == 0
    assert sorted(cert.columns) == [c.label for c in analysis.components]
    report = verify_certificate(analysis, F, cert)
    assert report.ok, report.failures()
