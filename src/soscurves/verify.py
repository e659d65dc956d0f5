"""Independent exact checking of certificates and obstruction witnesses.

Nothing here trusts the constructors: the components come from the curve
analysis, and a certificate must have one column of summands for each; the
sum of squares is re-expanded and compared to the target coefficient by
coefficient; value agreement is re-evaluated at every shared point across
the columns of the components through it (a rational one is first tested to
lie on each component it is recorded on; a real one must be an ordinary
multiple point, the only kind where agreement in value makes the summands
functions on the curve); and witness properties (sign alternation,
interlacing, psd ranges, vanishing orders) are re-derived from scratch.  The
re-expansion is one pass per component (`ringfn.sum_of_squares`): the
squares are summed on integer numerators and normalised once, which gives
the same exact function as adding the squares one at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bipoly import BiPoly
from .components import CircleChart
from .curve import CurveAnalysis
from .points import (
    ConjugatePairPoint,
    RationalPoint,
    pair_passes_through,
)
from .ringfn import (
    CircleFn,
    LineFn,
    RingFn,
    SosCertificate,
    chart_arguments,
    float_value,
    restrict_to_chart,
    sum_of_squares,
    value_at_algebraic,
)
from .squares import negative_point
from .tribool import TriBool
from .unipoly import UniPoly, count_real_roots, sturm_count
from .witness import CycleObstruction, NonrealIntersectionObstruction

Witness = CycleObstruction | NonrealIntersectionObstruction

_NUMERIC_TOL = 1e-7  # largest deviation a numeric certificate may show


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


def _pair_value_poly(fn: RingFn, chart, pt: ConjugatePairPoint) -> UniPoly | None:
    """Value at a conjugate pair as a polynomial in y mod the pair quadratic.

    Over x = a both chart arguments are linear in y: w = y + s1 a + s0 on a
    circle chart, t = alpha a + beta y on a line chart.  Returns None when
    the pair has no exact data or the function has a pole.
    """
    a = pt.abscissa
    if a is None or pt.y_quadratic is None:
        return None
    if isinstance(fn, CircleFn) and isinstance(chart, CircleChart):
        const = fn.a(a) + fn.b(a) * (chart.s1 * a + chart.s0)
        return UniPoly([const, fn.b(a)]) % pt.y_quadratic
    if isinstance(fn, LineFn) and fn.order == 0:
        t_of_y = UniPoly([chart.alpha * a, chart.beta])
        return fn.num.compose(t_of_y) % pt.y_quadratic
    return None


def verify_certificate(
    analysis: CurveAnalysis,
    F: BiPoly,
    cert: SosCertificate,
) -> ExactReport:
    """Re-check a sum-of-squares certificate from first principles.

    The components are those of the analysis, not of the certificate:
    `coverage` fails unless the certificate has a column for each of them,
    none for anything else, and all of one length.  Empty columns are the
    empty sum, the certificate of a target that vanishes on the curve.
    Exact certificates must reproduce the target coefficient for coefficient
    and agree exactly at every shared point; numeric ones are measured and
    pass when the worst deviation stays within _NUMERIC_TOL.  `F` is the
    plane target polynomial; it is restricted to each component's chart here.
    """
    checks: list[Check] = []
    notes: list[str] = []
    residual = 0.0

    # the curve's components come from the analysis, never the certificate
    charts = {comp.label: comp.chart for comp in analysis.components}
    cols = cert.columns
    lengths = sorted({len(col) for col in cols.values()})
    covered = cols.keys() == charts.keys() and len(lengths) == 1
    detail = f"columns {', '.join(cols)} of lengths {lengths}; the curve has {', '.join(charts)}"
    checks.append(Check("coverage", covered, "" if covered else detail))
    if not covered:
        return ExactReport(False, tuple(checks))

    for cid, chart in charts.items():
        target = restrict_to_chart(F, chart)
        diff = sum_of_squares(cols[cid], target) - target
        if cert.exact:
            passed = diff.is_zero
            detail = "" if passed else "sum of squares misses the target"
        else:
            dev = _fn_residual(diff)
            residual = max(residual, dev)
            passed = dev <= _NUMERIC_TOL
            detail = f"residual {dev:.3g}"
        checks.append(Check(f"sum:{cid}", passed, detail))

        if cert.exact and isinstance(target, LineFn) and not target.is_zero:
            degs = [fn.top_degree for fn in cols[cid] if not fn.is_zero]
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

    for rec in analysis.points:
        incident = [analysis.components[k].label for k in rec.components]
        if len(incident) < 2:
            continue
        name = f"agreement:{rec.id}"
        if rec.is_real:
            if rec.ompit is not TriBool.YES:
                # at a tangency, say, the restrictions must also agree to
                # higher order, which values at the point do not show
                checks.append(Check(name, False, f"{rec.id} is not an ordinary multiple point"))
                continue
            # exact values, in Q[u]/(P') at an algebraic point; floats there if numeric
            p = rec.point
            if isinstance(p, RationalPoint):
                # a chart inverse reads a parameter off any point, so the
                # point must first be seen to lie on each component
                off = [cid for cid in incident if analysis.component(cid).poly(p.x, p.y)]
                if off:
                    checks.append(Check(name, False, f"{rec.id} is not on {', '.join(off)}"))
                    continue
                args = {cid: chart_arguments(charts[cid], p) for cid in incident}
                at = lambda fn, cid: fn(*args[cid])  # noqa: E731
            elif cert.exact:
                at = lambda fn, cid: value_at_algebraic(fn, charts[cid], p)  # noqa: E731
            else:
                xy = p.as_floats()
                at = lambda fn, cid: float_value(fn, charts[cid], *xy)  # noqa: E731
            bad = ""
            for j, fns in enumerate(zip(*(cols[cid] for cid in incident))):
                vals = [at(fn, cid) for fn, cid in zip(fns, incident)]
                if cert.exact:
                    if any(v != vals[0] for v in vals):
                        bad = f"summand {j} disagrees at {rec.id}"
                        break
                else:
                    spread = max(float(v) for v in vals) - min(
                        float(v) for v in vals
                    )
                    residual = max(residual, spread)
                    if spread > _NUMERIC_TOL:
                        bad = f"summand {j} spread {spread:.3g} at {rec.id}"
                        break
            checks.append(Check(name, not bad, bad))
        elif isinstance(rec.point, ConjugatePairPoint):
            bad = ""
            for j, fns in enumerate(zip(*(cols[cid] for cid in incident))):
                polys = [
                    _pair_value_poly(fn, charts[cid], rec.point)
                    for fn, cid in zip(fns, incident)
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

    neg_at = negative_point(f, lo, hi)
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


