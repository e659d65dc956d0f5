"""Assembling sums of squares across components glued at single points.

Component-wise decompositions give summand vectors whose values at a shared
point generally disagree; since both value vectors have the same Euclidean
norm (the value of the target there), a single Householder reflection
H = I - 2 u u^T / (u^T u) with u = v - w turns one into the other exactly.
`reflect` applies H to a list of functions as a rank-one update in one
pass: one linear combination s = sum_j u_j f_j, then the two-term
combination f_i - (2 u_i / u^T u) s for each i with u_i != 0.  Each
combination sums the integer numerators of the function type (`lincomb`)
and normalises once, and no k x k matrix is ever formed.  Processing the
components of a forest in attachment order therefore stitches all the
local decompositions into one certificate over the whole curve.

A reflection that matches one point keeps an earlier match intact when the
pairwise inner products agree: with the earlier value vector already at its
goal w1 and the next pair (v2, w2), u2 = v2 - w2 is orthogonal to w1 exactly
when <v2, w1> = <w2, w1>.  In `forest_assemble` every already-built function
list is reflected together, so the values at earlier shared points move on
both sides alike and stay equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .bipoly import BiPoly
from .components import component_index
from .configuration import Cycle, CurveConfiguration, attachment_order
from .curve import CurveAnalysis
from .decide import PreconditionViolated, decide_unbounded_case
from .points import RationalPoint
from .ringfn import (
    IrrationalAttachment,
    LineFn,
    RingFn,
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


@dataclass
class SosCertificate:
    """A sum-of-squares certificate as per-component summand vectors.

    summands[j] maps component id -> the j-th summand's restriction there;
    every summand covers every component (zero entries included), so each
    one is a genuine function on the glued curve.
    """

    summands: list[dict[str, RingFn]]
    exact: bool = True
    residual: float = 0.0
    provenance: list[str] = field(default_factory=list)

    @property
    def component_ids(self) -> tuple[str, ...]:
        if not self.summands:
            return ()
        return tuple(sorted(self.summands[0], key=component_index))


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
    sub-configuration on the components to assemble; that sub-curve must
    satisfy the unbounded-case conditions on its own.  Components are
    processed in attachment order; each one contributes the two-square
    decomposition of the restriction.  At the single shared point the
    already-built part has value vector v and the new part w, of equal
    norm; one `reflect` with u = v - w, applied to every function list built
    so far, brings the two into agreement there.  When the certificate is
    already numeric and every |u_i| is within the numeric tolerance, the
    reflection is skipped: its normal would be float noise.
    """
    verdict = decide_unbounded_case(config)
    if verdict.answer is not TriBool.YES:
        raise PreconditionViolated(
            f"decision engine answers {verdict.answer.value} "
            f"(failed: {', '.join(verdict.failed_conditions) or 'none'})"
        )
    order = attachment_order(config, config.component_ids())
    if isinstance(order, Cycle):
        raise PreconditionViolated(f"incidence graph has a cycle: {order}")

    funcs: dict[str, list[LineFn]] = {}
    indexes: dict[str, int] = {}
    provenance: list[str] = []
    exact = True
    residual = 0.0

    for cid in order.order:
        comp = analysis.component(cid)
        ci = comp.index
        fn = restrict_to_chart(F, comp.chart)
        try:
            dec = line_fn_sos(fn)
        except NotPsd as bad:
            raise NotPsdOnComponent(cid, bad.point, bad.value) from bad
        parts = list(dec.parts)
        exact = exact and dec.exact
        residual = max(residual, dec.residual)

        shared = [
            rec
            for rec in analysis.points
            if rec.is_real
            and ci in rec.components
            and any(j in rec.components for j in indexes.values())
        ]
        if not funcs:
            funcs[cid] = parts
            provenance.append(f"{cid}: {len(parts)} squares from the restriction")
        elif not shared:
            n_old = len(next(iter(funcs.values())))
            for other in funcs:
                funcs[other] = funcs[other] + [LineFn.zero()] * len(parts)
            funcs[cid] = [LineFn.zero()] * n_old + parts
            provenance.append(f"{cid}: disjoint block of {len(parts)} squares")
        elif len(shared) == 1:
            rec = shared[0]
            if not isinstance(rec.point, RationalPoint):
                raise IrrationalAttachment(
                    f"attachment point {rec.id} has irrational coordinates"
                )
            donor = next(
                d for d, j in indexes.items() if j in rec.components
            )
            (p_old,) = chart_arguments(analysis.components[indexes[donor]].chart, rec.point)
            (p_new,) = chart_arguments(comp.chart, rec.point)
            old = funcs[donor]
            n = max(len(old), len(parts))
            v = [f(p_old) for f in _pad(old, n)]
            w = [g(p_new) for g in _pad(parts, n)]
            if exact and sum(a * a for a in v) != sum(b * b for b in w):
                raise ValueMismatch(
                    f"square sums disagree at {rec.id}; the target does not "
                    "restrict consistently"
                )
            u = [a - b for a, b in zip(v, w)]
            if not exact and any(u) and all(abs(x) <= _NUMERIC_TOL for x in u):
                # numeric values that agree up to float noise: a reflection
                # along that noise would undo the agreement at earlier points
                for other in funcs:
                    funcs[other] = _pad(funcs[other], n)
                how = "agreeing within the numeric tolerance"
            else:
                for other in funcs:
                    funcs[other] = reflect(_pad(funcs[other], n), u)
                how = "reflected into agreement"
            funcs[cid] = _pad(parts, n)
            provenance.append(f"{cid}: {len(parts)} squares, {how} at {rec.id}")
        else:
            raise AssertionError(
                f"{cid} meets the assembled part at {len(shared)} points; "
                "the attachment order should prevent this"
            )
        indexes[cid] = ci

    count = len(next(iter(funcs.values()))) if funcs else 0
    summands = [{cid: funcs[cid][j] for cid in funcs} for j in range(count)]
    return SosCertificate(
        summands=summands, exact=exact, residual=residual, provenance=provenance
    )
