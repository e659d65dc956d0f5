"""Whole-curve analysis: components, exact intersection points, singularities.

The input is a list of squarefree factors (assumed irreducible over the
rationals; reducible input yields answers about the curve as factored, not as
it truly decomposes).  The analysis resolves every pairwise intersection
exactly, locates self-singularities of the factors, merges coincident points
across pairs, and classifies each real point by the ordinary-double-point
test on the product polynomial.

Each fact is derived once, and only what the decision reads is derived.  Two
factors that share a component are caught by their own elimination
(`intersect.SharedComponent`), which `analyze_curve` re-raises naming the two
components.  A point record lists the factors through the point, and
`classify_point` reads the kind of the point (non-singular, ordinary double
point, or not an ordinary multiple point) off the sign of the discriminant
of the product's order-two part, built from exactly those factors'
derivatives; the tangent lines themselves are never formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .bipoly import BiPoly
from .components import Component, _conic_kernel, build_component, component_index
from .configuration import ConfigComponent, ConfigPoint, CurveConfiguration, OwnSingularity
from .polyparse import format_bipoly
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
    detail: str = ""


def classify_point(through: list[BiPoly], p: RealPoint) -> PointClassification:
    """Ordinary-multiple-point test at a real point of the product curve.

    `through` lists the factors that pass through p.  In the plane an
    ordinary multiple point whose tangent lines are independent is the same
    thing as an ordinary double point, so a point on more than two factors
    fails outright.  Otherwise the order-two part of the product at p is the
    binary form (F_xx/2, F_xy, F_yy/2) for one factor singular at p, and the
    product of the gradients, (F_x G_x, F_x G_y + F_y G_x, F_y G_y), for two
    factors.  The sign of its discriminant at p decides the kind: F_xy^2 -
    F_xx F_yy for one factor, and for two the square of the Jacobian F_x G_y
    - F_y G_x.  Every sign is exact (`curve_sign_at`), at rational and
    algebraic points alike.
    """
    k = len(through)
    if k == 0:
        raise ValueError("the point does not lie on the curve")
    if k > 2:
        return PointClassification(
            PointClass.NOT_OMPIT, detail="more than two branches through the point"
        )
    F = through[0]
    fx, fy = F.partial_x(), F.partial_y()
    if k == 1:
        if curve_sign_at(fx, p) != 0 or curve_sign_at(fy, p) != 0:
            return PointClassification(PointClass.NON_SINGULAR)
        fxx, fxy, fyy = fx.partial_x(), fx.partial_y(), fy.partial_y()
        disc = curve_sign_at(fxy * fxy - fxx * fyy, p)
        outer = (fxx, fyy)
    else:
        gx, gy = through[1].partial_x(), through[1].partial_y()
        disc = abs(curve_sign_at(fx * gy - fy * gx, p))
        outer = (fx * gx, fy * gy)
    if disc > 0:
        return PointClassification(
            PointClass.ORDINARY_DOUBLE_POINT, detail="ordinary double point"
        )
    if disc < 0:
        reason = "isolated real branch (conjugate tangents)"
    elif all(curve_sign_at(q, p) == 0 for q in outer):
        reason = "order-two part vanishes"  # the middle coefficient squared is 4ac = 0
    else:
        reason = "repeated tangent"
    return PointClassification(PointClass.NOT_OMPIT, detail=reason)


@dataclass
class PointRecord:
    id: str
    point: RealPoint | ConjugatePairPoint
    components: tuple[int, ...]
    is_real: bool
    ompit: TriBool | None
    singular_on: tuple[int, ...] = ()
    classification: PointClassification | None = None

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


def analyze_curve(factors: list[BiPoly]) -> CurveAnalysis:
    if not factors:
        raise ValueError("need at least one component")
    components = [build_component(i, F) for i, F in enumerate(factors)]

    tasks = _intersection_tasks(factors, components)
    resolved: list[tuple[tuple[int, ...], PairIntersection, bool]] = []
    pending: list[tuple[tuple[int, ...], BiPoly, BiPoly, bool]] = []
    for owners, F, G, is_sing in tasks:
        try:
            got = fast_intersection(F, G)
        except SharedComponent:
            i, j = owners  # F and F_x are coprime, because build_component checked F
            raise SharedComponent(
                f"components {components[i].label} and {components[j].label} share a factor"
            ) from None
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

    Components keep only their attribute flags and own singularities;
    intersection points keep incidence, realness and the
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
            )
        )
    pts = tuple(
        ConfigPoint(
            id=rec.id,
            realness=TriBool.of(rec.is_real),
            components=tuple(analysis.components[k].label for k in rec.components),
            ompit=rec.ompit if rec.ompit is not None else TriBool.UNKNOWN,
        )
        for rec in analysis.points
        if len(rec.components) >= 2
    )
    config = CurveConfiguration(tuple(comps), pts)
    analysis._configuration = config
    return config


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
    counted: list[tuple[tuple[int, ...], list[ConjugatePairPoint]]] = []

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
        counted.append((owners, [pt for pt in result.nonreal_pairs if pt.abscissa is None]))
        for pair_pt in result.nonreal_pairs:
            if pair_pt.abscissa is None:
                continue
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
            add_real(RationalPoint(Fraction(k1, k3), Fraction(k2, k3)), {i}, {i})

    # Every pair is intersected and real points merge by exact equality, so a
    # real entry already lists every factor through it.  A non-real pair found
    # through the shear carries no data to merge on, so the pairs that do
    # carry data are tested against every factor, and a sheared pair adds
    # only as many count-only points as it has beyond those already on both.
    for entry in nonreal_entries:
        for k, F in enumerate(factors):
            if k in entry["components"]:
                continue
            hit = pair_passes_through(F, entry["point"])
            if hit:
                entry["components"].add(k)
    for owners, points in counted:
        known = sum(1 for entry in nonreal_entries if entry["components"] >= set(owners))
        nonreal_entries.extend({"point": pt, "components": set(owners)} for pt in points[known:])

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
