"""Whole-curve analysis: components, exact intersection points, singularities.

The input is a list of pairwise coprime squarefree factors (assumed
irreducible over the rationals; reducible input yields answers about the
curve as factored, not as it truly decomposes).  The analysis resolves every
pairwise intersection exactly, locates self-singularities of the factors,
merges coincident points across pairs, and classifies each real point by the
ordinary-double-point test on the product polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .bipoly import BiPoly, have_common_factor, split_binary_quadratic, QuadraticSplitKind
from .components import (
    CircleChart,
    Component,
    PolyChart,
    PuncturedChart,
    _conic_kernel,
    build_component,
    component_index,
)
from .configuration import ConfigComponent, ConfigPoint, CurveConfiguration, OwnSingularity
from .polyparse import format_bipoly, format_unipoly
from .ringfn import param_of_point
from .intersect import (
    PairIntersection,
    SharedComponent,
    choose_shear,
    fast_intersection,
    sheared_intersection,
)
from .points import (
    ConjugatePairPoint,
    RationalPoint,
    RealPoint,
    curve_sign_at,
    lies_on,
    order_real_points,
    pair_passes_through,
    same_conjugate_pair,
    same_point,
)
from .tribool import TriBool


class PointClass(Enum):
    NON_SINGULAR = "non_singular"
    ORDINARY_DOUBLE_POINT = "ordinary_double_point"
    NOT_OMPIT = "not_ompit"


@dataclass(frozen=True)
class PointClassification:
    kind: PointClass
    factors_through: int
    tangents: tuple[BiPoly, BiPoly] | None = None
    detail: str = ""


def classify_point(factors: list[BiPoly], p: RealPoint) -> PointClassification:
    """Ordinary-multiple-point test at a real point of the product curve.

    In the plane an ordinary multiple point with independent tangents is the
    same thing as an ordinary double point, so any point on more than two
    factors fails outright.  Rational points go through the literal
    order-one/order-two expansion; points with algebraic coordinates are
    decided by exact sign computations of the same quantities.
    """
    through = [F for F in factors if lies_on(F, p)]
    k = len(through)
    if k == 0:
        raise ValueError("the point does not lie on the curve")
    if k > 2:
        return PointClassification(
            PointClass.NOT_OMPIT, k, detail="more than two branches through the point"
        )
    if isinstance(p, RationalPoint):
        return _classify_rational(through, p)
    if k == 2:
        F, G = through
        jac = F.partial_x() * G.partial_y() - F.partial_y() * G.partial_x()
        if curve_sign_at(jac, p) != 0:
            return PointClassification(
                PointClass.ORDINARY_DOUBLE_POINT, 2, detail="transversal crossing"
            )
        return PointClassification(PointClass.NOT_OMPIT, 2, detail="tangential contact")
    (F,) = through
    if curve_sign_at(F.partial_x(), p) != 0 or curve_sign_at(F.partial_y(), p) != 0:
        return PointClassification(PointClass.NON_SINGULAR, 1)
    fxx, fxy, fyy = F.partial_x().partial_x(), F.partial_x().partial_y(), F.partial_y().partial_y()
    disc = fxy * fxy - fxx * fyy
    if curve_sign_at(disc, p) > 0:
        return PointClassification(
            PointClass.ORDINARY_DOUBLE_POINT, 1, detail="two real branches"
        )
    return PointClassification(PointClass.NOT_OMPIT, 1, detail="degenerate tangent cone")


def _classify_rational(through: list[BiPoly], p: RationalPoint) -> PointClassification:
    k = len(through)
    prod = BiPoly.const(1)
    for F in through:
        prod = prod * F
    local = prod.translate(p.x, p.y)
    if not local.homogeneous_part(1).is_zero():
        return PointClassification(PointClass.NON_SINGULAR, k)
    split = split_binary_quadratic(local.homogeneous_part(2))
    if split.kind is QuadraticSplitKind.TWO_DISTINCT_REAL:
        return PointClassification(
            PointClass.ORDINARY_DOUBLE_POINT,
            k,
            tangents=split.factors,
            detail="ordinary double point",
        )
    reason = {
        QuadraticSplitKind.ZERO: "order-two part vanishes",
        QuadraticSplitKind.PERFECT_SQUARE: "repeated tangent",
        QuadraticSplitKind.IRREDUCIBLE_OVER_REALS: "isolated real branch (conjugate tangents)",
    }[split.kind]
    return PointClassification(PointClass.NOT_OMPIT, k, detail=reason)


@dataclass
class PointRecord:
    id: str
    point: RealPoint | ConjugatePairPoint
    components: tuple[int, ...]
    is_real: bool
    ompit: TriBool | None
    singular_on: tuple[int, ...] = ()
    classification: PointClassification | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def is_intersection(self) -> bool:
        return len(self.components) >= 2


@dataclass
class CurveAnalysis:
    factors: list[BiPoly]
    components: list[Component]
    points: list[PointRecord]
    shear: Fraction | None
    # built by the first `to_configuration` call; an analysis is never
    # changed after `analyze_curve` returns it
    _configuration: CurveConfiguration | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def component(self, cid: str) -> Component:
        """The component with id `cid`."""
        return self.components[component_index(cid)]


def analyze_curve(
    factors: list[BiPoly], metadata: dict[int, dict] | None = None
) -> CurveAnalysis:
    if not factors:
        raise ValueError("need at least one component")
    metadata = metadata or {}
    components = [build_component(i, F, metadata.get(i)) for i, F in enumerate(factors)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if have_common_factor(factors[i], factors[j]):
                raise SharedComponent(
                    f"components {components[i].label} and {components[j].label} share a factor"
                )

    tasks = _intersection_tasks(factors, components)
    resolved: list[tuple[tuple[int, ...], PairIntersection, bool]] = []
    pending: list[tuple[tuple[int, ...], BiPoly, BiPoly, bool]] = []
    for owners, F, G, is_sing in tasks:
        got = fast_intersection(F, G)
        if got is None:
            pending.append((owners, F, G, is_sing))
        else:
            resolved.append((owners, got, is_sing))
    shear = None
    if pending:
        shear, sheared = choose_shear([(F, G) for _, F, G, _ in pending])
        for (owners, _, _, is_sing), pair in zip(pending, sheared):
            resolved.append((owners, sheared_intersection(pair), is_sing))

    records = _merge_points(factors, components, resolved)
    for record in records:
        if record.is_real:
            cls = classify_point([factors[k] for k in record.components], record.point)
            record.classification = cls
            record.ompit = (
                TriBool.YES
                if cls.kind in (PointClass.ORDINARY_DOUBLE_POINT, PointClass.NON_SINGULAR)
                else TriBool.NO
            )
    return CurveAnalysis(factors=factors, components=components, points=records, shear=shear)


def to_configuration(analysis: CurveAnalysis) -> CurveConfiguration:
    """Project the geometric analysis onto the abstract configuration model.

    Components keep only their attribute flags and a parametrization
    descriptor; intersection points keep incidence, realness and the
    ordinary-multiple-point flag.  Points lying on a single component surface
    as that component's own singularities instead.  The configuration is
    built once per analysis and returned again on later calls.
    """
    if analysis._configuration is not None:
        return analysis._configuration
    comps = []
    for comp in analysis.components:
        own = tuple(
            OwnSingularity(
                rec.id, rec.ompit if rec.ompit is not None else TriBool.UNKNOWN
            )
            for rec in analysis.points
            if comp.index in rec.singular_on
        )
        comps.append(
            ConfigComponent(
                id=comp.label,
                label=format_bipoly(comp.poly),
                is_real=comp.is_real,
                has_real_points=comp.has_real_points,
                bounded_ring_trivial=comp.bounded_ring_trivial,
                rational_open_A1=comp.rational_open_A1,
                own_singularities=own,
                parametrization=_chart_descriptor(comp.chart),
            )
        )
    pts = []
    for rec in analysis.points:
        if len(rec.components) < 2:
            continue
        params: dict[str, Fraction] = {}
        if isinstance(rec.point, RationalPoint):
            for k in rec.components:
                comp = analysis.components[k]
                if isinstance(comp.chart, (PolyChart, PuncturedChart)):
                    try:
                        params[comp.label] = param_of_point(comp.chart, rec.point)
                    except ValueError:
                        pass
        pts.append(
            ConfigPoint(
                id=rec.id,
                realness=TriBool.of(rec.is_real),
                components=tuple(analysis.components[k].label for k in rec.components),
                ompit=rec.ompit if rec.ompit is not None else TriBool.UNKNOWN,
                params=params or None,
            )
        )
    config = CurveConfiguration(tuple(comps), tuple(pts))
    analysis._configuration = config
    return config


def _chart_descriptor(chart) -> dict | None:
    if chart is None:
        return None
    if isinstance(chart, PolyChart):
        return {
            "kind": "affine-line" if chart.kind == "line" else "polynomial",
            "x": format_unipoly(chart.x),
            "y": format_unipoly(chart.y),
        }
    if isinstance(chart, PuncturedChart):
        return {
            "kind": "punctured-line",
            "x_num": format_unipoly(chart.x_num),
            "y_num": format_unipoly(chart.y_num),
            "den": format_unipoly(chart.den),
            "excluded": [str(chart.excluded)],
        }
    if isinstance(chart, CircleChart):
        return {
            "kind": "circle-normal-form",
            "q": format_unipoly(chart.q, "x"),
            "s1": str(chart.s1),
            "s0": str(chart.s0),
            "scale": str(chart.scale),
        }
    raise TypeError(f"unknown chart type {type(chart).__name__}")


def _intersection_tasks(factors: list[BiPoly], components: list[Component]):
    """All engine runs: every component pair, plus critical loci for
    self-singularity detection on factors of degree three and higher."""
    tasks = []
    n = len(factors)
    for i in range(n):
        for j in range(i + 1, n):
            tasks.append(((i, j), factors[i], factors[j], False))
    for i, F in enumerate(factors):
        if F.total_degree < 3:
            continue
        fx = F.partial_x()
        if fx.is_zero() or fx.total_degree == 0:
            continue
        tasks.append(((i,), F, fx, True))
    return tasks


def _merge_points(factors, components, resolved) -> list[PointRecord]:
    real_entries: list[dict] = []
    nonreal_entries: list[dict] = []

    def add_real(p: RealPoint, owners: set[int], singular: set[int]) -> None:
        for entry in real_entries:
            if same_point(entry["point"], p):
                entry["components"] |= owners
                entry["singular"] |= singular
                return
        real_entries.append({"point": p, "components": set(owners), "singular": set(singular)})

    for owners, result, is_sing in resolved:
        if is_sing:
            (i,) = owners
            fy = factors[i].partial_y()
            for p in result.real_points:
                if curve_sign_at(fy, p) == 0:
                    add_real(p, {i}, {i})
            continue
        for p in result.real_points:
            add_real(p, set(owners), set())
        for pair_pt in result.nonreal_pairs:
            merged = False
            for entry in nonreal_entries:
                if same_conjugate_pair(entry["point"], pair_pt):
                    entry["components"] |= set(owners)
                    merged = True
                    break
            if not merged:
                nonreal_entries.append({"point": pair_pt, "components": set(owners)})

    # degree-two factors can hide one singular point: the crossing of two
    # conjugate complex lines is real even though the component is not
    for i, comp in enumerate(components):
        if comp.conic_kind == "conjugate-lines" and comp.has_real_points is TriBool.YES:
            k1, k2, k3 = _conic_kernel(factors[i])
            add_real(RationalPoint(k1 / k3, k2 / k3), {i}, {i})

    # extend incidence across all components
    for entry in real_entries:
        for k, F in enumerate(factors):
            if k not in entry["components"] and lies_on(F, entry["point"]):
                entry["components"].add(k)
    for entry in nonreal_entries:
        for k, F in enumerate(factors):
            if k in entry["components"]:
                continue
            hit = pair_passes_through(F, entry["point"])
            if hit:
                entry["components"].add(k)

    ordered_real = order_real_points([entry["point"] for entry in real_entries])
    by_identity = {id(entry["point"]): entry for entry in real_entries}
    records: list[PointRecord] = []
    for p in ordered_real:
        entry = by_identity[id(p)]
        records.append(
            PointRecord(
                id="",
                point=p,
                components=tuple(sorted(entry["components"])),
                is_real=True,
                ompit=None,
                singular_on=tuple(sorted(entry["singular"])),
            )
        )
    nonreal_entries.sort(
        key=lambda e: (
            e["point"].abscissa is None,
            e["point"].abscissa or Fraction(0),
            tuple(e["point"].y_quadratic.coeffs) if e["point"].y_quadratic else (),
        )
    )
    for entry in nonreal_entries:
        records.append(
            PointRecord(
                id="",
                point=entry["point"],
                components=tuple(sorted(entry["components"])),
                is_real=False,
                ompit=None,
            )
        )
    for n, record in enumerate(records, start=1):
        record.id = f"P{n}"
    return records
