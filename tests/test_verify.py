from dataclasses import replace
from fractions import Fraction as Fr

from soscurves.certify import full_certify
from soscurves.curve import analyze_curve
from soscurves.points import AlgebraicPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import CircleFn
from soscurves.verify import verify_certificate


def test_numeric_agreement_at_algebraic_points():
    # two circles meeting at (1/2, +-sqrt(3)/2): irrational shared points,
    # so the Gram certificate is numeric and agreement is checked in floats
    analysis = analyze_curve([B("x^2 + y^2 - 1"), B("x^2 + y^2 - 2*x")])
    F = B("x^2 + y^2 + 1")
    shared = [rec for rec in analysis.points if len(rec.components) == 2]
    assert [rec.id for rec in shared] == ["P1", "P2"]
    assert all(isinstance(rec.point, AlgebraicPoint) for rec in shared)

    cert = full_certify(analysis, F)
    assert not cert.exact
    report = verify_certificate(analysis, F, cert)
    assert report.ok, report.failures()
    assert {"agreement:P1", "agreement:P2"} <= {c.name for c in report.checks}

    cid = cert.component_ids[0]
    summands = [dict(s) for s in cert.summands]
    f = summands[0][cid]
    summands[0][cid] = f + CircleFn.const(Fr(1, 1000), f.q)
    report = verify_certificate(analysis, F, replace(cert, summands=summands))
    failed = {c.name for c in report.failures()}
    assert {"agreement:P1", "agreement:P2"} <= failed
    assert not report.ok
