"""Obstruction witnesses: exact psd elements that are not sums of squares.

Two constructions cover the decision engine's definite No verdicts that come
from curve geometry rather than from a single component:

* a cycle in the incidence graph yields an interpolant with alternating
  values +-1 at the attachment parameters of one component, whose square
  extends by the constant 1 to the rest of the connected piece;
* a pair of real conics meeting in a conjugate pair of non-real points
  yields an element vanishing to odd order at the pair on one conic and
  identically on the other.

Both witnesses carry exact data and are re-checkable by verify_witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .components import CircleChart, LineChart, component_index
from .configuration import Cycle, connected_pieces
from .curve import CurveAnalysis, PointRecord, to_configuration
from .points import ConjugatePairPoint, RationalPoint
from .ringfn import IrrationalAttachment, chart_arguments
from .squares import negative_point
from .unipoly import UniPoly


class UnsupportedObstruction(ValueError):
    """No witness of the requested shape exists for this configuration."""


class NoRationalAbscissa(UnsupportedObstruction):
    """The conjugate intersection pair does not sit over a rational x-value."""


@dataclass(frozen=True)
class CycleObstruction:
    """Witness built from a simple cycle of the incidence graph.

    The element restricts to interpolant^2 on the distinguished component
    and to the constant 1 on every other component of the piece.
    """

    distinguished: str
    params: tuple[Fraction, ...]
    point_ids: tuple[str, ...]
    interpolant: UniPoly
    piece: tuple[str, ...]
    cycle: tuple[str, ...]


@dataclass(frozen=True)
class NonrealIntersectionObstruction:
    """Witness built from real conics meeting in non-real conjugate pairs.

    The element is psd_factor(x) on the host component and zero on the other
    one; it vanishes to odd order at each shared conjugate pair, which no sum
    of squares can match.
    """

    host: str
    zero_component: str
    abscissas: tuple[Fraction, ...]
    pair_quadratics: tuple[UniPoly, ...]
    psd_factor: UniPoly
    x_range: tuple[Fraction, Fraction]


ObstructionWitness = CycleObstruction | NonrealIntersectionObstruction


def alternating_interpolant(params: list[Fraction] | tuple[Fraction, ...]) -> UniPoly:
    """The degree r-1 interpolant with values -1, +1, -1, ... at the params."""
    ts = [Fraction(t) for t in params]
    if len(ts) < 2:
        raise ValueError("need at least two parameters")
    if sorted(set(ts)) != ts:
        raise ValueError("parameters must be strictly increasing")
    f = UniPoly.zero()
    for j, tj in enumerate(ts):
        basis = UniPoly.one()
        for k, tk in enumerate(ts):
            if k != j:
                basis = basis * UniPoly.linear_root(tk).scale(Fraction(1, tj - tk))
        f = f + (basis if j % 2 else -basis)
    return f


def cycle_witness(analysis: CurveAnalysis, cycle: Cycle) -> CycleObstruction:
    """Build the alternating-interpolant witness for a simple incidence cycle.

    The distinguished component is the first cycle member (by id) with a
    line-type chart whose attachment points all have rational parameters.
    """
    config = to_configuration(analysis)
    comp_ids = set(config.component_ids())
    cycle_comps = sorted(
        (n for n in cycle.nodes if n in comp_ids), key=component_index
    )
    if not cycle_comps:
        raise ValueError("cycle contains no components")
    failures: list[str] = []
    for cid in cycle_comps:
        comp = analysis.component(cid)
        if not isinstance(comp.chart, LineChart):
            failures.append(f"{cid}: no line-type chart")
            continue
        others = tuple(c for c in config.component_ids() if c != cid)
        rest_cycle = set(cycle_comps) - {cid}
        piece = next(
            (p for p in connected_pieces(config, others) if rest_cycle & set(p)),
            None,
        )
        if piece is None:
            failures.append(f"{cid}: cycle fell apart after removal")
            continue
        piece_indexes = {analysis.component(p).index for p in piece}
        attach: list[tuple[str, Fraction]] = []
        ok = True
        for rec in analysis.points:
            if comp.index not in rec.components:
                continue
            if not (set(rec.components) & piece_indexes):
                continue
            if not rec.is_real:
                failures.append(f"{cid}: non-real attachment {rec.id}")
                ok = False
                break
            if not isinstance(rec.point, RationalPoint):
                failures.append(f"{cid}: attachment {rec.id} has irrational coordinates")
                ok = False
                break
            attach.append((rec.id, *chart_arguments(comp.chart, rec.point)))
        if not ok:
            continue
        if len(attach) < 2:
            failures.append(f"{cid}: fewer than two attachment points")
            continue
        attach.sort(key=lambda item: item[1])
        params = tuple(t for _, t in attach)
        if len(set(params)) != len(params):
            failures.append(f"{cid}: attachment parameters collide")
            continue
        return CycleObstruction(
            distinguished=cid,
            params=params,
            point_ids=tuple(pid for pid, _ in attach),
            interpolant=alternating_interpolant(params),
            piece=piece,
            cycle=tuple(cycle.nodes),
        )
    raise IrrationalAttachment(
        "no cycle component admits the construction: " + "; ".join(failures)
    )


def nonreal_intersection_witness(
    analysis: CurveAnalysis, record: PointRecord | None = None
) -> NonrealIntersectionObstruction:
    """Build the odd-vanishing witness at a conjugate intersection pair."""
    if record is None:
        record = next(
            (r for r in analysis.points if not r.is_real and r.is_intersection), None
        )
        if record is None:
            raise UnsupportedObstruction("the curve has no non-real intersections")
    if len(record.components) != 2:
        raise UnsupportedObstruction("need a pair meeting exactly two components")
    i, j = record.components

    shared = [r for r in analysis.points if set(r.components) >= {i, j}]
    if any(r.is_real for r in shared):
        raise UnsupportedObstruction(
            "the components also meet in real points; the construction needs "
            "a purely non-real intersection"
        )
    abscissas: list[Fraction] = []
    quadratics: list[UniPoly] = []
    for r in shared:
        pt = r.point
        if (
            not isinstance(pt, ConjugatePairPoint)
            or pt.abscissa is None
            or pt.y_quadratic is None
        ):
            raise NoRationalAbscissa(
                f"intersection {r.id} lacks exact rational-abscissa data"
            )
        abscissas.append(pt.abscissa)
        quadratics.append(pt.y_quadratic)
    if len(set(abscissas)) != len(abscissas):
        raise UnsupportedObstruction(
            "two conjugate pairs share an x-value; vanishing orders would be even"
        )

    for host_index, zero_index in ((i, j), (j, i)):
        host = analysis.components[host_index]
        chart = host.chart
        if not isinstance(chart, CircleChart):
            continue
        span = chart.x_range()
        if span is None or not isinstance(span[0], Fraction):
            continue
        lo, hi = span
        vanish = UniPoly.one()
        for a in abscissas:
            vanish = vanish * UniPoly.linear_root(a)
        for m in _multiplier_candidates(lo, hi):
            if any(m(a) == 0 for a in abscissas):
                continue
            f = vanish * m
            if negative_point(f, lo, hi) is not None:
                continue
            f, content = f.primitive_integer()
            if content < 0:
                f = -f
            return NonrealIntersectionObstruction(
                host=host.label,
                zero_component=analysis.components[zero_index].label,
                abscissas=tuple(abscissas),
                pair_quadratics=tuple(quadratics),
                psd_factor=f,
                x_range=(lo, hi),
            )
    raise UnsupportedObstruction(
        "no psd multiplier of degree at most two fits either component"
    )


def _multiplier_candidates(lo: Fraction, hi: Fraction) -> list[UniPoly]:
    x_lo = UniPoly.linear_root(lo)
    x_hi = UniPoly.linear_root(hi)
    return [
        UniPoly.one(),
        x_hi,
        -x_hi,
        x_lo,
        -x_lo,
        x_lo * x_hi,
        -(x_lo * x_hi),
        x_hi * x_hi,
        x_lo * x_lo,
    ]
