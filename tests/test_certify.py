import random
from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from soscurves import curve, glue, gram
from soscurves.certify import Inconclusive, ValueNormMismatch, compact_complete, full_certify
from soscurves.configuration import Cycle, extract_C_prime, is_forest
from soscurves.curve import analyze_curve, to_configuration
from soscurves.decide import PreconditionViolated, decide_psd_eq_sos
from soscurves.glue import NotPsdOnComponent, forest_assemble, reflect
from soscurves.points import RationalPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import CircleFn, IrrationalAttachment, LineFn, restrict_to_chart
from soscurves.squares import line_fn_sos
from soscurves.tribool import TriBool
from soscurves.unipoly import UniPoly
from soscurves.verify import verify_certificate, verify_witness
from soscurves.witness import (
    CycleObstruction,
    NonrealIntersectionObstruction,
    cycle_witness,
    nonreal_intersection_witness,
)


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
        # two overlapping circles: one Gram problem on their plane ring, whose
        # summands agree at the irrational shared points by construction
        (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1", True),
    ],
)
def test_certificate_verifies(factors, target, exact):
    cert, report = certify(factors, target)
    assert cert.exact is exact
    assert report.ok, report.failures()


def test_negative_target_is_inconclusive():
    # -1 is no sum of squares anywhere: the solver stalls at every gram
    # degree, and the escalation ends with a typed refusal
    analysis = analyze_curve([B("x^2 + y^2 - 1")])
    problem = gram.build_gram_problem(analysis, B("-1"), ("C1",), 1)
    with pytest.raises(gram.NoConvergence) as stall:
        gram.alternating_projections(problem)
    assert stall.value.psd_residual > 0.1
    with pytest.raises(Inconclusive) as refused:
        compact_complete(analysis, B("-1"), ("C1",))
    assert refused.value.degree_cap == 8


def test_prescribed_values_must_match_the_target():
    # the target is 2 at (1, 0), but the prescribed summand values square to 4
    analysis = analyze_curve([B("x^2 + y^2 - 1")])
    pv = gram.PrescribedValue("P", "C1", RationalPoint(Fr(1), Fr(0)), (Fr(2),))
    with pytest.raises(ValueNormMismatch) as raised:
        compact_complete(analysis, B("x^2 + 1"), ("C1",), [pv])
    assert raised.value.point_id == "P"


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


def test_nonreal_intersection_witness_verifies_and_its_mutations_fail():
    # two far circles meet only in the conjugate pair over x = 3/2
    analysis = analyze_curve([B("x^2 + y^2 - 1"), B("(x-3)^2 + y^2 - 1")])
    verdict = decide_psd_eq_sos(to_configuration(analysis))
    assert verdict.answer is TriBool.NO
    witness = nonreal_intersection_witness(analysis)
    assert isinstance(witness, NonrealIntersectionObstruction)
    assert (witness.host, witness.zero_component) == ("C1", "C2")
    assert witness.abscissas == (Fr(3, 2),)
    assert witness.psd_factor == UniPoly([3, -5, 2])  # 2t^2 - 5t + 3
    report = verify_witness(analysis, witness)
    assert report.ok, report.failures()
    assert {c.name for c in report.checks} == {
        "psd-on-range", "pair-on-both:x=3/2", "vanishing-order:x=3/2", "two-components",
    }

    def failed(**changes):
        return {c.name for c in verify_witness(analysis, replace(witness, **changes)).failures()}

    f = witness.psd_factor
    assert failed(psd_factor=-f) == {"psd-on-range"}
    assert failed(psd_factor=f * f) == {"vanishing-order:x=3/2"}
    assert failed(zero_component=witness.host) == {"two-components"}
    assert failed(abscissas=(Fr(5, 2),)) == {"pair-on-both:x=5/2", "vanishing-order:x=5/2"}


@pytest.mark.parametrize(
    "factors, target, param, value",
    [
        (["y", "x - 5"], "(x-1)^2*(x+1)", Fr(-2), Fr(-9)),
        (["x*y - 1", "x - 3"], "(x-1)^2*(x+1)*y^2", Fr(-1, 2), Fr(-9, 4)),
    ],
    ids=["line", "hyperbola"],
)
def test_forest_assemble_names_an_exact_negative_point(factors, target, param, value):
    # the restriction to C1 has a double root, so the negative point is
    # found on a polynomial that is not squarefree
    analysis = analyze_curve([B(f) for f in factors])
    F = B(target)
    with pytest.raises(NotPsdOnComponent) as raised:
        forest_assemble(analysis, F, to_configuration(analysis))
    bad = raised.value
    assert (bad.component, bad.point, bad.value) == ("C1", param, value)
    chart = analysis.component("C1").chart
    den = chart.den(param)
    assert F(chart.x_num(param) / den, chart.y_num(param) / den) == value


@pytest.mark.parametrize(
    "factors, fact",
    [
        (["x", "y", "1 - x - y"], "incidence graph has a cycle"),
        (["x^2 + y^2 - 1"], "C1 has no line chart"),
        (["y - x^2", "y + 1"], "is not real"),
        (["y - x^2", "y"], "is not an ordinary multiple point"),
    ],
    ids=["cycle", "circle", "nonreal-join", "tangency"],
)
def test_forest_assemble_checks_the_facts_its_gluing_uses(factors, fact):
    # forest_assemble does not decide the curve; it refuses any one of the
    # facts the gluing rests on, and names it
    analysis = analyze_curve([B(f) for f in factors])
    with pytest.raises(PreconditionViolated, match=fact):
        forest_assemble(analysis, B("x^2 + 1"), to_configuration(analysis))


def _reflect(u, v):
    nn = sum(a * a for a in u)
    dot = sum(a * b for a, b in zip(u, v))
    return [b - 2 * dot / nn * a for a, b in zip(u, v)]


def test_reflect_is_exact():
    rng = random.Random(7)

    def vec(n):
        return [Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]

    def linear(a, b):
        """The functions a_i + (b_i - a_i) t: values a at t = 0 and b at t = 1."""
        return [LineFn(UniPoly([ai, bi - ai])) for ai, bi in zip(a, b)]

    for n in range(1, 6):
        for _ in range(10):
            # goals from an exact rational rotation: two reflections with random normals
            u1, u2 = vec(n), vec(n)
            if not any(u1) or not any(u2):
                continue
            v = vec(n)
            w = _reflect(u2, _reflect(u1, v))
            out = reflect([LineFn.const(c) for c in v], [a - b for a, b in zip(v, w)])
            assert [f(0) for f in out] == w

            fns = linear(vec(n), vec(n))
            out = reflect(fns, vec(n))
            for t in (Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)):
                assert sum(f(t) ** 2 for f in out) == sum(f(t) ** 2 for f in fns)

            if n > 2:
                # a pair whose inner products agree with those of its goals
                v1, v2 = vec(n), vec(n)
                w1, w2 = (_reflect(u2, _reflect(u1, x)) for x in (v1, v2))
                fns = reflect(linear(v1, v2), [a - b for a, b in zip(v1, w1)])
                fns = reflect(fns, [f(1) - b for f, b in zip(fns, w2)])
                assert [f(0) for f in fns] == w1
                assert [f(1) for f in fns] == w2
    fns = [LineFn.const(3), LineFn.const(4)]
    assert reflect(fns, [Fr(0), Fr(0)]) is fns


def _reflect_by_scale_and_add(fns, u):
    """`reflect` as a chain of `scale`, `+` and `-`: the reference for the integer one."""
    s = None
    for uj, f in zip(u, fns):
        if uj and not f.is_zero:
            s = f.scale(uj) if s is None else s + f.scale(uj)
    if s is None or s.is_zero:
        return fns
    c = 2 / sum(ui * ui for ui in u)
    return [f - s.scale(c * ui) if ui else f for f, ui in zip(fns, u)]


def _random_num(rng, degree):
    return UniPoly([Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)])


def _random_u(rng, n):
    """Entries that are zero a third of the time, so some functions stay put."""
    return [Fr(0) if rng.random() < 1 / 3 else Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]


def test_reflect_matches_scale_and_add_on_line_functions():
    rng = random.Random(17)
    lin = UniPoly.linear_root(Fr(3, 2))
    for _ in range(200):
        fns = []
        for _ in range(rng.randint(1, 7)):
            roll = rng.random()
            if roll < 0.2:
                fns.append(LineFn.zero())
                continue
            num = _random_num(rng, rng.randint(0, 4))
            if roll < 0.4:
                num = num * lin ** rng.randint(1, 2)  # normalised to a lower order
            fns.append(LineFn(num, rng.randint(0, 3), Fr(3, 2)))
        u = _random_u(rng, len(fns))
        assert reflect(fns, u) == _reflect_by_scale_and_add(fns, u)


def test_reflect_matches_scale_and_add_on_circle_functions():
    rng = random.Random(23)
    q = UniPoly([Fr(1), Fr(0), Fr(-1)])
    for _ in range(200):
        fns = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                fns.append(CircleFn.zero(q))
            else:
                a = _random_num(rng, rng.randint(0, 3))
                b = _random_num(rng, rng.randint(0, 2)) if rng.random() < 0.7 else UniPoly.zero()
                fns.append(CircleFn(a, b, q))
        u = _random_u(rng, len(fns))
        assert reflect(fns, u) == _reflect_by_scale_and_add(fns, u)


def test_reflect_refuses_functions_that_cannot_be_combined():
    with pytest.raises(ValueError):
        reflect([LineFn(UniPoly.one(), 1, Fr(1)), LineFn(UniPoly.one(), 1, Fr(2))], [Fr(1), Fr(1)])
    q1, q2 = UniPoly([Fr(1), Fr(0), Fr(-1)]), UniPoly([Fr(2), Fr(0), Fr(-1)])
    with pytest.raises(ValueError):
        reflect([CircleFn.const(1, q1), CircleFn.const(1, q2)], [Fr(1), Fr(1)])


@pytest.mark.parametrize(
    "factors, target",
    [
        (
            ["x*y-(4/3)", "x-(-5/2)", "x-(3)", "x-(-5)", "x-(1)"],
            "(-2*x^0*y^1+1*x^1*y^0)^2+(-2*x^0*y^1+2*x^1*y^0+-1*x^1*y^0)^2+3",
        ),
        (
            ["x*y-(1)", "x-(-1/3)", "x-(-3)", "x-(-2/3)"],
            "(-1*x^0*y^1+1*x^0*y^1)^2+(-2*x^0*y^0+1*x^0*y^1+-1*x^1*y^0)^2+2",
        ),
    ],
    ids=["hyperbola-4-lines", "hyperbola-3-lines"],
)
def test_numeric_hyperbola_star_keeps_its_agreements(factors, target):
    # the hyperbola's restriction is numeric, and at the later attachments the
    # value vectors agree up to float noise: no reflection along that noise
    cert, report = certify(factors, target)
    assert cert.exact is False
    assert report.ok, report.failures()


@pytest.mark.parametrize(
    "factors, target",
    [
        # a parabola hub with four vertical leaves
        (["y - x^2", "x + 2", "x + 1", "x - 1", "x - 2"], "x^2 + y^2 + 1"),
        # a chain of hyperbolas joined by the vertical lines that miss their
        # asymptotes: xy = 1 | x = 2 | (x-1)y = 1 | x = 0 | (x-2)y = 1
        (["x*y - 1", "x - 2", "(x - 1)*y - 1", "x", "(x - 2)*y - 1"], "x^2 + 1"),
    ],
    ids=["parabola-star", "hyperbola-chain"],
)
def test_forest_assemble_reflects_each_joining_component_once(monkeypatch, factors, target):
    analysis = analyze_curve([B(f) for f in factors])
    F = B(target)
    config = to_configuration(analysis)
    inputs = []
    monkeypatch.setattr(glue, "reflect", lambda fns, u: inputs.append(fns) or reflect(fns, u))
    cert = forest_assemble(analysis, F, config)
    monkeypatch.undo()
    assert cert.exact
    assert verify_certificate(analysis, F, cert).ok

    parts = {
        c.label: list(line_fn_sos(restrict_to_chart(F, c.chart)).parts) for c in analysis.components
    }
    first, *joined = (p.split(":")[0] for p in cert.provenance)
    n = len(cert)
    # one reflection per attachment point, of the joining component's own
    # parts padded with zeros: nothing already placed is reflected again
    attachments = sum(1 for rec in analysis.points if rec.is_real)
    assert len(inputs) == len(joined) == attachments == len(factors) - 1
    for cid, fns in zip(joined, inputs):
        assert fns == parts[cid] + [LineFn.zero()] * (len(fns) - len(parts[cid]))
    assert cert.columns[first] == tuple(parts[first] + [LineFn.zero()] * (n - len(parts[first])))

    # perturbing one reflected function breaks the certificate
    last = joined[-1]
    j = next(j for j, fn in enumerate(cert.columns[last]) if not fn.is_zero)
    bad = list(cert.columns[last])
    bad[j] = bad[j] + LineFn.const(Fr(1, 5))
    report = verify_certificate(analysis, F, replace(cert, columns={**cert.columns, last: bad}))
    assert not report.ok


def test_configuration_is_built_once(monkeypatch):
    builds = []
    build = curve.CurveConfiguration

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(curve, "CurveConfiguration", counting)
    analysis = analyze_curve([B("y - x^2"), B("x - 1"), B("x + 2")])
    config = to_configuration(analysis)
    full_certify(analysis, B("x^2 + 1"))
    assert to_configuration(analysis) is config
    assert len(builds) == 1

    analysis = analyze_curve([B("x"), B("y"), B("1 - x - y")])
    config = to_configuration(analysis)
    cycle_witness(analysis, is_forest(config, extract_C_prime(config).members))
    assert len(builds) == 2
