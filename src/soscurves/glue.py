"""Assembling sums of squares across components glued at single points.

Component-wise decompositions give summand vectors whose values at a shared
point generally disagree; since both value vectors have the same Euclidean
norm (the value of the target there), a single Householder reflection turns
one into the other exactly.  Processing the components of a forest in
attachment order therefore stitches all the local decompositions into one
certificate over the whole curve.
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


def orthogonal_match(
    current: list[list[Fraction]], goal: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Orthogonal matrix sending each current vector to its goal, built as a
    product of reflections; exists whenever all pairwise inner products agree.

    For a single pair (v, w) of equal norm this is the one reflection
    I - 2 u u^T / (u^T u) with u = v - w, or the identity when v = w.
    """
    k = len(current[0]) if current else 0
    b = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for v0, a in zip(current, goal):
        v = [sum(b[i][j] * v0[j] for j in range(k)) for i in range(k)]
        u = [vi - ai for vi, ai in zip(v, a)]
        nn = sum(ui * ui for ui in u)
        if nn == 0:
            continue
        # replace b by (I - 2 u u^T / nn) b
        ub = [sum(u[l] * b[l][j] for l in range(k)) for j in range(k)]
        for i in range(k):
            ci = 2 * u[i] / nn
            if not ci:
                continue
            bi = b[i]
            for j in range(k):
                bi[j] -= ci * ub[j]
    return b


def apply_matrix(b: list[list[Fraction]], fns: list[RingFn]) -> list[RingFn]:
    """The functions sum_j b[i][j] * fns[j], one per row of b."""
    out = []
    for row in b:
        acc = fns[0].scale(0)
        for c, f in zip(row, fns):
            if c and not f.is_zero:
                acc = acc + f.scale(c)
        out.append(acc)
    return out


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
    decomposition of the restriction, reflected into agreement with the
    already-built part at the single shared point.
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
            b = orthogonal_match([v], [w])
            for other in funcs:
                funcs[other] = apply_matrix(b, _pad(funcs[other], n))
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
