"""Assembling sums of squares across components glued at single points.

Component-wise decompositions give summand vectors whose values at a shared
point generally disagree; since both value vectors have the same Euclidean
norm (the value of the target there), a single Householder reflection
H = I - 2 u u^T / (u^T u) with u = v - w turns one into the other exactly.
`reflect` applies H to a list of functions as a rank-one update: one
combination s = sum_j u_j f_j, then f_i - (2 u_i / u^T u) s for each i with
u_i != 0, so no k x k matrix is ever formed.  Processing the components of
a forest in attachment order therefore stitches all the local
decompositions into one certificate over the whole curve.

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

from .bipoly import BiPoly
from .components import PolyChart, PuncturedChart, component_index
from .configuration import Cycle, CurveConfiguration, attachment_order
from .curve import CurveAnalysis
from .decide import PreconditionViolated, decide_unbounded_case
from .points import RationalPoint
from .ringfn import (
    ChartlessComponent,
    IrrationalAttachment,
    LineFn,
    RingFn,
    param_of_point,
    restrict_to_chart,
)
from .squares import NotPsd, line_fn_sos
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

    With s = sum_j u_j fns_j, entry i becomes fns_i - (2 u_i / u^T u) s; the
    entries with u_i = 0 stay as they are, and fns comes back unchanged when
    s is zero (u = 0 included).  For u = v - w with |v| = |w| this is the
    reflection that sends the value vector v to w.
    """
    s = None
    for uj, f in zip(u, fns):
        if uj and not f.is_zero:
            s = f.scale(uj) if s is None else s + f.scale(uj)
    if s is None or s.is_zero:
        return fns
    c = 2 / sum(ui * ui for ui in u)
    return [f - s.scale(c * ui) if ui else f for f, ui in zip(fns, u)]


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
    so far, brings the two into agreement there.
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
        if not isinstance(comp.chart, (PolyChart, PuncturedChart)):
            raise ChartlessComponent(f"{cid} has no line-type parametrization")
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
            p_old = param_of_point(analysis.components[indexes[donor]].chart, rec.point)
            p_new = param_of_point(comp.chart, rec.point)
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
            for other in funcs:
                funcs[other] = reflect(_pad(funcs[other], n), u)
            funcs[cid] = _pad(parts, n)
            provenance.append(
                f"{cid}: {len(parts)} squares, reflected into agreement at {rec.id}"
            )
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
