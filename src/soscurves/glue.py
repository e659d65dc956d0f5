"""Assembling sums of squares across components glued at single points.

Component-wise decompositions give summand vectors whose values at a shared
point generally disagree; since both value vectors have the same Euclidean
norm (the value of the target there), a single Householder reflection
H = I - 2 u u^T / (u^T u) with u = w - v turns one into the other exactly.
`reflect` applies H to a list of functions as a rank-one update in one
pass: one linear combination s = sum_j u_j f_j, then the two-term
combination f_i - (2 u_i / u^T u) s for each i with u_i != 0.  Each
combination sums the integer numerators of the function type (`lincomb`)
and normalises once, and no k x k matrix is ever formed.

`forest_assemble` walks the joins of `configuration.is_forest` and builds
the certificate column by column, one column of summands per component
(`ringfn.SosCertificate`).  It reflects only the column of the component
that joins: its value vector w at the join point goes to the donor's v,
and sum_j (H p_j)^2 = sum_j p_j^2 on it since H is orthogonal.  The
joining component meets the assembled part at that point alone, so the
columns already placed are only padded with zero functions and keep every
earlier agreement: one reflection per join.  It does not decide the curve
again; it checks the facts the gluing uses (see there).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bipoly import BiPoly
from .components import LineChart
from .configuration import Cycle, CurveConfiguration, is_forest
from .curve import CurveAnalysis
from .decide import PreconditionViolated
from .points import RationalPoint
from .ringfn import (
    IrrationalAttachment,
    LineFn,
    RingFn,
    SosCertificate,
    chart_arguments,
    restrict_to_chart,
)
from .squares import _NUMERIC_TOL, NotPsd, line_fn_sos
from .tribool import TriBool


class ValueMismatch(ArithmeticError):
    """Summand value vectors at a shared point have different norms."""


class NotPsdOnComponent(ValueError):
    """The target is negative somewhere on a component; exact witness inside."""

    def __init__(self, component: str, point: Fraction, value: Fraction):
        self.component = component
        self.point = point
        self.value = value
        super().__init__(
            f"target is negative on {component}: value {value} at parameter {point}"
        )


def reflect(fns: list[RingFn], u: list[Fraction]) -> list[RingFn]:
    """The functions (I - 2 u u^T / u^T u) fns, as a rank-one update.

    With u = U / D over the common denominator D of its entries and
    n = U^T U, entry i becomes fns_i - (2 u_i / u^T u) sum_j u_j fns_j =
    fns_i - 2 U_i s for s = sum_j (U_j / n) fns_j.  That is one linear
    combination for s, then one two-term combination with integer weights
    per entry with u_i != 0; each sums integer numerators and normalises
    once (`lincomb` of the function type).  The entries with u_i = 0 stay as
    they are, and fns comes back unchanged when s is zero (u = 0 included).
    For u = v - w with |v| = |w| this is the reflection that sends the
    value vector v to w.
    """
    D = lcm(*(ui.denominator for ui in u))
    U = [ui.numerator * (D // ui.denominator) for ui in u]
    live = [(x, f) for x, f in zip(U, fns) if x and not f.is_zero]
    if not live:
        return fns
    combine = type(live[0][1]).lincomb
    n = sum(x * x for x in U)
    s = combine([Fraction(x, n) for x, _ in live], [f for _, f in live])
    if s.is_zero:
        return fns
    return [combine((1, -2 * x), (f, s)) if x else f for f, x in zip(fns, U)]


def _pad(fs: list[LineFn], n: int) -> list[LineFn]:
    return list(fs) + [LineFn.zero()] * (n - len(fs))


def forest_assemble(
    analysis: CurveAnalysis, F: BiPoly, config: CurveConfiguration
) -> SosCertificate:
    """Certify F on a curve whose components are all open pieces of a line.

    `config` is the configuration of the analysed curve, or its induced
    sub-configuration on the components to assemble.  Components are
    placed in the order of `Forest.joins`; each one contributes the
    two-square decomposition of its restriction as its column.  At its
    join point the donor has value vector v and the new part w, of equal
    norm; one `reflect` with u = w - v, applied to the new part only,
    sends w to v, and the columns already placed are padded with zero
    functions.  When the certificate is already numeric and every |u_i|
    is within the numeric tolerance, the reflection is skipped (see the
    comment there).

    The caller decides the curve; this checks only the facts the gluing
    rests on, and raises PreconditionViolated naming the one that fails:
    the incidence graph is a forest (so a component meets the part placed
    before it at one point), every component has a `LineChart` (so each
    restriction is a function of one parameter), and every join point is
    real and an ordinary multiple point.  Agreement in value is the ring
    condition only at an ordinary multiple point: at the tangency of
    y = x^2 and y = 0 the two restrictions must also agree to first order,
    which a reflection does not give.  An irrational join point raises
    IrrationalAttachment.
    """
    forest = is_forest(config, config.component_ids())
    if isinstance(forest, Cycle):
        raise PreconditionViolated(f"incidence graph has a cycle: {forest}")
    records = {rec.id: rec for rec in analysis.points}
    for join in forest.joins:
        if not isinstance(analysis.component(join.component).chart, LineChart):
            raise PreconditionViolated(f"{join.component} has no line chart")
        if join.point is None:
            continue
        rec = records[join.point]
        if not rec.is_real:
            raise PreconditionViolated(f"join point {rec.id} is not real")
        if rec.ompit is not TriBool.YES:
            raise PreconditionViolated(
                f"join point {rec.id} is not an ordinary multiple point"
            )
        if not isinstance(rec.point, RationalPoint):
            raise IrrationalAttachment(
                f"attachment point {rec.id} has irrational coordinates"
            )

    funcs: dict[str, list[LineFn]] = {}
    provenance: list[str] = []
    exact = True
    residual = 0.0

    for join in forest.joins:
        cid = join.component
        chart = analysis.component(cid).chart
        try:
            dec = line_fn_sos(restrict_to_chart(F, chart))
        except NotPsd as bad:
            raise NotPsdOnComponent(cid, bad.point, bad.value) from bad
        parts = list(dec.parts)
        exact = exact and dec.exact
        residual = max(residual, dec.residual)

        if not funcs:
            funcs[cid] = parts
            provenance.append(f"{cid}: {len(parts)} squares from the restriction")
        elif join.point is None:
            n_old = len(next(iter(funcs.values())))
            for other in funcs:
                funcs[other] = funcs[other] + [LineFn.zero()] * len(parts)
            funcs[cid] = [LineFn.zero()] * n_old + parts
            provenance.append(f"{cid}: disjoint block of {len(parts)} squares")
        else:
            point = records[join.point].point
            (p_old,) = chart_arguments(analysis.component(join.donor).chart, point)
            (p_new,) = chart_arguments(chart, point)
            old = funcs[join.donor]
            n = max(len(old), len(parts))
            new = _pad(parts, n)
            v = [f(p_old) for f in _pad(old, n)]
            w = [g(p_new) for g in new]
            if exact and sum(a * a for a in v) != sum(b * b for b in w):
                raise ValueMismatch(
                    f"square sums disagree at {join.point}; the target does not "
                    "restrict consistently"
                )
            u = [b - a for a, b in zip(v, w)]
            if not exact and any(u) and all(abs(x) <= _NUMERIC_TOL for x in u):
                # with |v|^2 = |w|^2 + delta the reflection gives
                # H w = v + u delta / |u|^2, which misses v by O(1) when u
                # and delta are float noise
                how = "agreeing within the numeric tolerance"
            else:
                new = reflect(new, u)
                how = "reflected into agreement"
            for other in funcs:
                funcs[other] = _pad(funcs[other], n)
            funcs[cid] = new
            provenance.append(f"{cid}: {len(parts)} squares, {how} at {join.point}")

    return SosCertificate(funcs, exact, residual, provenance)
