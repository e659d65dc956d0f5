"""Independent exact checking of certificates and obstruction witnesses.

Nothing here trusts the constructors: the sum of squares is re-expanded and
compared to the target coefficient by coefficient, value agreement is
re-evaluated at every shared point, and witness properties (sign alternation,
interlacing, psd ranges, vanishing orders) are re-derived from scratch.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .components import CircleChart, PolyChart
from .curve import CurveAnalysis
from .glue import SosCertificate
from .points import (
    AlgebraicPoint,
    ConjugatePairPoint,
    RationalPoint,
    pair_passes_through,
)
from .ringfn import (
    CircleFn,
    LineFn,
    RingFn,
    chart_arguments,
    restrict_to_chart,
    values_agree_at_algebraic,
)
from .squares import psd_on_interval
from .unipoly import UniPoly, count_real_roots, sturm_count
from .witness import CycleObstruction, NonrealIntersectionObstruction

Witness = CycleObstruction | NonrealIntersectionObstruction


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ExactReport:
    """Per-property pass/fail record; ok only when every check passed."""

    ok: bool
    checks: tuple[Check, ...]
    residual: float = 0.0
    notes: tuple[str, ...] = ()

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _fn_residual(fn: RingFn) -> float:
    """Largest coefficient magnitude, as a float."""
    if isinstance(fn, LineFn):
        coeffs = fn.num.coeffs
    else:
        coeffs = fn.a.coeffs + fn.b.coeffs
    return max((abs(float(c)) for c in coeffs), default=0.0)


def _float_value(fn: RingFn, chart, xf: float, yf: float) -> float:
    if isinstance(fn, CircleFn):
        wf = yf + float(chart.s1) * xf + float(chart.s0)
        return fn.a.eval_float(xf) + fn.b.eval_float(xf) * wf
    raise ValueError("line components carry rational attachment points only")


def _pair_value_poly(fn: RingFn, chart, pt: ConjugatePairPoint) -> UniPoly | None:
    """Value at a conjugate pair as a polynomial in y mod the pair quadratic.

    Supported where such pairs can actually lie: circle-form conics, and
    vertical lines parametrized by y.  Returns None when the chart cannot be
    reduced to a y-polynomial at the pair's abscissa.
    """
    a = pt.abscissa
    if a is None or pt.y_quadratic is None:
        return None
    if isinstance(fn, CircleFn) and isinstance(chart, CircleChart):
        # w = y + s1 x + s0 evaluated over x = a is linear in y
        const = fn.a(a) + fn.b(a) * (chart.s1 * a + chart.s0)
        return UniPoly([const, fn.b(a)]) % pt.y_quadratic
    if isinstance(fn, LineFn) and isinstance(chart, PolyChart) and fn.order == 0:
        if chart.x.degree > 0 or chart.x.coeff(0) != a:
            return None
        if chart.y.degree != 1:
            return None
        # invert y = y0 + y1 t and push the parameter polynomial through
        y0, y1 = chart.y.coeff(0), chart.y.coeff(1)
        t_of_y = UniPoly([-y0 / y1, Fraction(1) / y1])
        return fn.num.compose(t_of_y) % pt.y_quadratic
    return None


def verify_certificate(
    analysis: CurveAnalysis,
    F: BiPoly,
    cert: SosCertificate,
    tol: float = 1e-7,
) -> ExactReport:
    """Re-check a sum-of-squares certificate from first principles.

    Exact certificates must reproduce the target coefficient for coefficient
    and agree exactly at every shared point; numeric ones are measured and
    pass when the worst deviation stays within tol.  `F` is the plane target
    polynomial; it is restricted to each component's chart here.
    """
    checks: list[Check] = []
    notes: list[str] = []
    residual = 0.0

    cids = cert.component_ids
    if not cids:
        return ExactReport(
            False,
            (Check("coverage", False, "certificate has no summands"),),
        )
    charts = {}
    targets: dict[str, RingFn] = {}
    for cid in cids:
        comp = analysis.component(cid)
        charts[cid] = comp.chart
        targets[cid] = restrict_to_chart(F, comp.chart)
    ragged = [
        i for i, s in enumerate(cert.summands) if set(s) != set(cids)
    ]
    checks.append(
        Check(
            "coverage",
            not ragged,
            "" if not ragged else f"summand(s) {ragged} skip components",
        )
    )
    if ragged:
        return ExactReport(False, tuple(checks))

    for cid in cids:
        target = targets[cid]
        total = None
        for s in cert.summands:
            sq = s[cid] * s[cid]
            total = sq if total is None else total + sq
        diff = (total - target) if total is not None else target
        if cert.exact:
            passed = diff.is_zero
            detail = "" if passed else "sum of squares misses the target"
        else:
            dev = _fn_residual(diff)
            residual = max(residual, dev)
            passed = dev <= tol
            detail = f"residual {dev:.3g}"
        checks.append(Check(f"sum:{cid}", passed, detail))

        if cert.exact and isinstance(target, LineFn) and not target.is_zero:
            degs = [s[cid].top_degree for s in cert.summands if not s[cid].is_zero]
            top = max(degs, default=0)
            rule = target.top_degree == 2 * top
            checks.append(
                Check(
                    f"degree-rule:{cid}",
                    rule,
                    "" if rule else
                    f"target degree {target.top_degree} != 2*{top}",
                )
            )

    index_of = {analysis.component(cid).index: cid for cid in cids}
    for rec in analysis.points:
        incident = [index_of[k] for k in rec.components if k in index_of]
        if len(incident) < 2:
            continue
        name = f"agreement:{rec.id}"
        if rec.is_real and isinstance(rec.point, RationalPoint):
            bad = ""
            # one attachment parameter per incident component, then every summand
            args = {cid: chart_arguments(charts[cid], rec.point) for cid in incident}
            for j, s in enumerate(cert.summands):
                vals = [s[cid](*args[cid]) for cid in incident]
                if cert.exact:
                    if any(v != vals[0] for v in vals):
                        bad = f"summand {j} disagrees at {rec.id}"
                        break
                else:
                    spread = max(float(v) for v in vals) - min(
                        float(v) for v in vals
                    )
                    residual = max(residual, spread)
                    if spread > tol:
                        bad = f"summand {j} spread {spread:.3g} at {rec.id}"
                        break
            checks.append(Check(name, not bad, bad))
        elif rec.is_real and isinstance(rec.point, AlgebraicPoint):
            bad = ""
            pairs = list(zip(incident, incident[1:]))
            if not cert.exact:
                xy = rec.point.as_floats(60)
            for j, s in enumerate(cert.summands):
                for ca, cb in pairs:
                    if cert.exact:
                        agree = values_agree_at_algebraic(
                            s[ca], charts[ca], s[cb], charts[cb], rec.point
                        )
                    else:
                        va = _float_value(s[ca], charts[ca], *xy)
                        vb = _float_value(s[cb], charts[cb], *xy)
                        agree = abs(va - vb) <= tol
                        residual = max(residual, abs(va - vb))
                    if not agree:
                        bad = f"summand {j} disagrees at {rec.id}"
                        break
                if bad:
                    break
            checks.append(Check(name, not bad, bad))
        elif isinstance(rec.point, ConjugatePairPoint):
            bad = ""
            for j, s in enumerate(cert.summands):
                polys = [
                    _pair_value_poly(s[cid], charts[cid], rec.point)
                    for cid in incident
                ]
                if any(p is None for p in polys):
                    bad = f"cannot evaluate at non-real {rec.id}"
                    notes.append(
                        f"{rec.id}: unsupported chart for non-real agreement"
                    )
                    break
                if any(p != polys[0] for p in polys):
                    bad = f"summand {j} disagrees at non-real {rec.id}"
                    break
            checks.append(Check(name, not bad, bad))

    ok = all(c.passed for c in checks)
    return ExactReport(ok, tuple(checks), residual, tuple(notes))


def verify_witness(analysis: CurveAnalysis, witness: Witness) -> ExactReport:
    """Machine-check every stated property of an obstruction witness.

    The non-sos conclusion itself rests on the curve-level argument; these
    checks confirm the constructed element actually has the shape that
    argument needs.
    """
    if isinstance(witness, CycleObstruction):
        return _verify_cycle(analysis, witness)
    return _verify_nonreal(analysis, witness)


def _verify_cycle(analysis: CurveAnalysis, w: CycleObstruction) -> ExactReport:
    checks: list[Check] = []
    f = w.interpolant
    params = w.params
    r = len(params)

    increasing = all(a < b for a, b in zip(params, params[1:]))
    checks.append(
        Check("params-increasing", increasing, "" if increasing else str(params))
    )
    checks.append(
        Check(
            "degree",
            f.degree == r - 1,
            "" if f.degree == r - 1 else f"deg {f.degree} != {r - 1}",
        )
    )
    alt = all(f(t) == (-1) ** (j + 1) for j, t in enumerate(params))
    checks.append(
        Check(
            "sign-alternation",
            alt,
            "" if alt else str([f(t) for t in params]),
        )
    )
    unit = all(f(t) ** 2 == 1 for t in params)
    checks.append(Check("unit-values", unit, ""))

    nroots = count_real_roots(f)
    checks.append(
        Check(
            "real-zero-count",
            nroots == r - 1,
            "" if nroots == r - 1 else f"{nroots} real zeros, expected {r - 1}",
        )
    )
    gaps_ok = True
    detail = ""
    for a, b in zip(params, params[1:]):
        c = sturm_count(f, a, b)
        if c != 1:
            gaps_ok = False
            detail = f"{c} zeros in ({a}, {b})"
            break
    checks.append(Check("interlacing", gaps_ok, detail))

    # the element is interpolant^2 on the distinguished component and the
    # constant one elsewhere on the piece, so psd-ness is structural; record
    # it as an explicit check for the report
    checks.append(Check("psd", True, "square on one component, 1 elsewhere"))

    ok = all(c.passed for c in checks)
    return ExactReport(ok, tuple(checks))


def _verify_nonreal(
    analysis: CurveAnalysis, w: NonrealIntersectionObstruction
) -> ExactReport:
    checks: list[Check] = []
    f = w.psd_factor
    lo, hi = w.x_range

    neg_at = psd_on_interval(f, lo, hi)
    checks.append(
        Check(
            "psd-on-range",
            neg_at is None,
            "" if neg_at is None else f"negative at x = {neg_at}",
        )
    )

    host_poly = analysis.factors[analysis.component(w.host).index]
    other_poly = analysis.factors[analysis.component(w.zero_component).index]
    for a, rec_pt in zip(w.abscissas, _pair_points(analysis, w)):
        label = f"x={a}"
        through = (
            rec_pt is not None
            and pair_passes_through(host_poly, rec_pt)
            and pair_passes_through(other_poly, rec_pt)
        )
        checks.append(
            Check(
                f"pair-on-both:{label}",
                bool(through),
                "" if through else "pair not shared by both components",
            )
        )
        # the pair sits over x = a, so order-one vanishing there means the
        # linear factor divides f exactly once (equivalently the residual
        # multiplier stays nonzero at a)
        once = f(a) == 0 and f.exact_div(UniPoly.linear_root(a))(a) != 0
        checks.append(
            Check(
                f"vanishing-order:{label}",
                once,
                "" if once else "does not vanish to order exactly one",
            )
        )

    distinct = w.host != w.zero_component
    checks.append(Check("two-components", distinct, ""))

    ok = all(c.passed for c in checks)
    return ExactReport(ok, tuple(checks))


def _pair_points(
    analysis: CurveAnalysis, w: NonrealIntersectionObstruction
) -> list[ConjugatePairPoint | None]:
    """Match each witness quadratic with the analysis' non-real pair record."""
    out: list[ConjugatePairPoint | None] = []
    for a, q in zip(w.abscissas, w.pair_quadratics):
        found = None
        for rec in analysis.points:
            pt = rec.point
            if (
                isinstance(pt, ConjugatePairPoint)
                and pt.abscissa == a
                and pt.y_quadratic is not None
                and pt.y_quadratic.monic() == q.monic()
            ):
                found = pt
                break
        out.append(found)
    return out


