import random
from fractions import Fraction as Fr

import pytest

from soscurves.certify import full_certify
from soscurves.configuration import Cycle, extract_C_prime, is_forest
from soscurves.curve import analyze_curve, to_configuration
from soscurves.decide import decide_psd_eq_sos
from soscurves.glue import orthogonal_match
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import IrrationalAttachment
from soscurves.tribool import TriBool
from soscurves.verify import verify_certificate, verify_witness
from soscurves.witness import CycleObstruction, cycle_witness


def certify(factors, target):
    analysis = analyze_curve([B(f) for f in factors])
    F = B(target)
    cert = full_certify(analysis, F)
    return cert, verify_certificate(analysis, F, cert)


@pytest.mark.parametrize(
    "factors, target, exact",
    [
        # one compact component: Gram completion alone
        (["x^2 + y^2 - 1"], "x^2 + 1", True),
        # a star of a parabola and two lines: reflections at the shared points
        (["y - x^2", "x - 1", "x + 2"], "x^2 + 1", True),
        # a circle cut twice by a line: Gram summands aligned at two prescribed points
        (["x^2 + y^2 - 1", "y - x - 1"], "x^2 + 3", True),
        # hyperbola between two lines: no exact two-square split on the hyperbola
        (["x*y - 2", "x - 1", "x - 3"], "x^2 + y^2 + 1", False),
        # two overlapping circles: Gram completion at irrational shared points
        (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1", False),
    ],
)
def test_certificate_verifies(factors, target, exact):
    cert, report = certify(factors, target)
    assert cert.exact is exact
    assert report.ok, report.failures()


def test_irrational_attachment_is_refused():
    with pytest.raises(IrrationalAttachment):
        certify(["x^2 + y^2 - 1", "y - 1/2"], "x^2 + 1")


def test_triangle_cycle_witness_verifies():
    analysis = analyze_curve([B("x"), B("y"), B("1 - x - y")])
    config = to_configuration(analysis)
    verdict = decide_psd_eq_sos(config)
    assert verdict.answer is TriBool.NO
    assert "MT4" in verdict.failed_conditions
    cycle = is_forest(config, extract_C_prime(config).members)
    assert isinstance(cycle, Cycle)
    witness = cycle_witness(analysis, cycle)
    assert isinstance(witness, CycleObstruction)
    assert verify_witness(analysis, witness).ok


def _reflect(u, v):
    nn = sum(a * a for a in u)
    dot = sum(a * b for a, b in zip(u, v))
    return [b - 2 * dot / nn * a for a, b in zip(u, v)]


def test_orthogonal_match_is_exact():
    rng = random.Random(7)

    def vec(n):
        return [Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]

    for n in range(1, 6):
        for _ in range(10):
            # an exact rational rotation: two reflections with random normals
            u1, u2 = vec(n), vec(n)
            if not any(u1) or not any(u2):
                continue
            vs = [vec(n) for _ in range(2 if n > 2 else 1)]
            ws = [_reflect(u2, _reflect(u1, v)) for v in vs]
            b = orthogonal_match(vs, ws)
            for v, w in zip(vs, ws):
                assert [sum(bi[j] * v[j] for j in range(n)) for bi in b] == w
            for i in range(n):
                for j in range(n):
                    col = sum(b[k][i] * b[k][j] for k in range(n))
                    assert col == (1 if i == j else 0)
    assert orthogonal_match([[Fr(3), Fr(4)]], [[Fr(3), Fr(4)]]) == [
        [Fr(1), Fr(0)],
        [Fr(0), Fr(1)],
    ]
