"""End-to-end sum-of-squares certification.

The decision engine says when a certificate must exist; this module builds
one.  Components with trivial bounded-function ring are assembled by exact
two-square gluing; the remaining compact-type components are completed by
one Gram problem on their plane ring (`gram`), whose summands are plane
polynomials and so agree at the shared points among those components by
construction.  Attachment values are prescribed so the two parts agree,
and the completion is then reflected into exact agreement with the glued
part summand by summand.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .components import CircleChart
from .configuration import extract_C_prime, induced_subconfiguration
from .curve import CurveAnalysis, to_configuration
from .decide import PreconditionViolated, decide_psd_eq_sos, explain
from .glue import SosCertificate, forest_assemble, reflect
from .gram import (
    NoConvergence,
    PrescribedValue,
    alternating_projections,
    build_gram_problem,
    extract_summands,
    normal_form,
    subset_modulus,
)
from .points import RationalPoint
from .ringfn import (
    CircleFn,
    IrrationalAttachment,
    LineFn,
    RingFn,
    value_at_point,
)


_GRAM_TOL = 1e-9  # residual that ends the degree escalation with numeric summands
_NUMERIC_ACCEPT = 1e-7  # largest residual a numeric completion may keep


class ValueNormMismatch(ValueError):
    """Prescribed attachment values whose square sum differs from the target
    value at the point; no completion can exist."""

    def __init__(self, point_id: str, expected: Fraction, got: Fraction):
        self.point_id = point_id
        super().__init__(
            f"at {point_id} the target value is {expected} but the prescribed "
            f"summand values have square sum {got}"
        )


class Inconclusive(RuntimeError):
    """The Gram search exhausted its degree budget without a certificate.

    Never evidence of non-existence; the caller reports it as such.
    """

    def __init__(self, degree_cap: int, best_residual: float):
        self.degree_cap = degree_cap
        self.best_residual = best_residual
        super().__init__(
            f"no certificate up to gram degree {degree_cap}; "
            f"best residual {best_residual:.3g}"
        )


@dataclass
class CompactResult:
    summands: list[dict[str, RingFn]]
    exact: bool
    residual: float
    degree: int


def _zero_fn(analysis: CurveAnalysis, cid: str) -> RingFn:
    chart = analysis.component(cid).chart
    if isinstance(chart, CircleChart):
        return CircleFn.zero(chart.q)
    return LineFn.zero()


def _min_gram_degree(analysis: CurveAnalysis, F: BiPoly, subset: tuple[str, ...]) -> int:
    """ceil(deg NF(F) / 2), and at least 1.

    NF(F) is the least-degree representative of F on the subset
    (`gram.normal_form`), so no sum of squares of plane polynomials of a
    lower degree equals F there.
    """
    return max(1, -(-normal_form(F, subset_modulus(analysis, subset)).total_degree // 2))


def compact_complete(
    analysis: CurveAnalysis,
    F: BiPoly,
    subset: tuple[str, ...],
    prescribed: list[PrescribedValue] | tuple[PrescribedValue, ...] = (),
) -> CompactResult:
    """Sum-of-squares completion on compact-type components.

    The summands are plane polynomials found by one Gram problem on the
    plane ring of the subset, restricted to each component.  Prescribed
    attachment data pins the summand value vectors at points the rest of
    the curve has already fixed; the result is rotated so those vectors are
    reproduced entry by entry, not just in norm.  The gram degree starts at
    `_min_gram_degree` and escalates up to a cap set by the degree of F;
    when every degree stalls or stays above the numeric tolerance, it
    raises Inconclusive.
    """
    subset = tuple(subset)
    prescribed = list(prescribed)
    for pv in prescribed:
        expected = F(pv.point.x, pv.point.y)
        if expected != pv.norm_sq:
            raise ValueNormMismatch(pv.point_id, expected, pv.norm_sq)

    d_min = _min_gram_degree(analysis, F, subset)
    cap = 2 * max(F.total_degree, 1) + 6

    best_residual = float("inf")
    best: tuple[list[dict[str, RingFn]], float, int] | None = None
    for degree in range(d_min, cap + 1):
        problem = build_gram_problem(analysis, F, subset, degree, prescribed)
        try:
            sol = alternating_projections(problem)
        except NoConvergence as stall:
            best_residual = min(best_residual, min(stall.residual_tail, default=float("inf")))
            continue
        ext = extract_summands(sol)
        if ext.exact:
            summands = _align(analysis, ext.summands, prescribed, subset)
            return CompactResult(summands, True, 0.0, degree)
        if ext.residual < best_residual:
            best_residual = ext.residual
            best = (ext.summands, ext.residual, degree)
        if ext.residual <= _GRAM_TOL:
            summands, res, deg = best
            summands = _align(analysis, summands, prescribed, subset)
            return CompactResult(summands, False, res, deg)
    if best is not None and best[1] <= _NUMERIC_ACCEPT:
        summands, res, deg = best
        summands = _align(analysis, summands, prescribed, subset)
        return CompactResult(summands, False, res, deg)
    raise Inconclusive(cap, best_residual)


def _align(
    analysis: CurveAnalysis,
    summands: list[dict[str, RingFn]],
    prescribed: list[PrescribedValue],
    subset: tuple[str, ...],
) -> list[dict[str, RingFn]]:
    """Reflect the summands so their values reproduce each prescribed vector.

    One rank-one `reflect` per prescribed point, in order, with u = v - w
    for the point's current value vector v (read off the summands already
    reflected) and its goal w.  A later reflection keeps the earlier points
    matched because the pairwise inner products of the value vectors agree
    with those of the goals.
    """
    if not prescribed:
        return summands
    k = max(
        [len(summands)] + [len(pv.vector) for pv in prescribed]
    )
    while len(summands) < k:
        summands = summands + [{cid: _zero_fn(analysis, cid) for cid in subset}]
    columns = {cid: [s[cid] for s in summands] for cid in subset}
    for pv in prescribed:
        chart = analysis.component(pv.component).chart
        goal = list(pv.vector) + [Fraction(0)] * (k - len(pv.vector))
        u = [
            value_at_point(f, chart, pv.point) - g
            for f, g in zip(columns[pv.component], goal)
        ]
        columns = {cid: reflect(fns, u) for cid, fns in columns.items()}
    return [{cid: columns[cid][i] for cid in subset} for i in range(k)]


def full_certify(analysis: CurveAnalysis, F: BiPoly) -> SosCertificate:
    """Certificate for a target the decision engine promises is a sum of squares.

    The components with trivial bounded-function ring are glued exactly; the
    rest is completed through the Gram solver with the attachment values the
    glued part dictates.
    """
    config = to_configuration(analysis)
    verdict = decide_psd_eq_sos(config)
    if verdict.answer.name != "YES":
        raise PreconditionViolated(
            "certification requires a Yes verdict; got: " + explain(verdict)
        )
    split = extract_C_prime(config)
    cprime = [cid for cid in config.component_ids() if cid in split.members]
    rest = [cid for cid in config.component_ids() if cid not in split.members]

    if not rest:
        return forest_assemble(analysis, F, config)

    if not cprime:
        res = compact_complete(analysis, F, tuple(rest))
        return SosCertificate(
            summands=res.summands,
            exact=res.exact,
            residual=res.residual,
            provenance=[
                f"{'+'.join(rest)}: gram completion at degree {res.degree}"
            ],
        )

    line_cert = forest_assemble(
        analysis, F, induced_subconfiguration(config, tuple(cprime))
    )

    cprime_idx = {analysis.component(cid).index for cid in cprime}
    rest_idx = {analysis.component(cid).index for cid in rest}
    prescribed: list[PrescribedValue] = []
    for rec in analysis.points:
        if not rec.is_real:
            continue
        touches_line = [i for i in rec.components if i in cprime_idx]
        touches_rest = [i for i in rec.components if i in rest_idx]
        if not touches_line or not touches_rest:
            continue
        if not isinstance(rec.point, RationalPoint):
            raise IrrationalAttachment(
                f"attachment point {rec.id} joining the two parts is not rational"
            )
        donor = analysis.components[touches_line[0]]
        vector = tuple(
            value_at_point(s[donor.label], donor.chart, rec.point)
            for s in line_cert.summands
        )
        receiver = analysis.components[touches_rest[0]].label
        prescribed.append(PrescribedValue(rec.id, receiver, rec.point, vector))

    res = compact_complete(analysis, F, tuple(rest), prescribed)

    k = max(len(line_cert.summands), len(res.summands))
    merged: list[dict[str, RingFn]] = []
    for j in range(k):
        entry: dict[str, RingFn] = {}
        for cid in cprime:
            if j < len(line_cert.summands):
                entry[cid] = line_cert.summands[j][cid]
            else:
                entry[cid] = _zero_fn(analysis, cid)
        for cid in rest:
            if j < len(res.summands):
                entry[cid] = res.summands[j][cid]
            else:
                entry[cid] = _zero_fn(analysis, cid)
        merged.append(entry)

    return SosCertificate(
        summands=merged,
        exact=line_cert.exact and res.exact,
        residual=max(line_cert.residual, res.residual),
        provenance=line_cert.provenance
        + [f"{'+'.join(rest)}: gram completion at degree {res.degree}, "
           f"aligned at {len(prescribed)} attachment point(s)"],
    )
