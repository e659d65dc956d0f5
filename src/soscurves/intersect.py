"""Certified intersection of two coprime plane curves.

Two routes produce the same kind of answer.  The fast route eliminates y,
demands that every root of the (squarefree) resultant be rational, and reads
points off by substitution.  When irrational or non-real x-values appear, the
engine shears the frame (u = x + lam*y) so that distinct intersection points
receive distinct u-values; real points over irrational u get exact box
representations through subresultants.

A shear parameter is valid for a pair when neither leading form vanishes in
the shear direction; it is collision-free when distinct complex intersection
points map to distinct u.  Collision-free parameters are found deterministically:
among enough integer candidates, the ones maximizing the squarefree resultant
degree are exactly the collision-free ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bipoly import BiPoly, resultant_y
from .points import AlgebraicPoint, ConjugatePairPoint, RationalPoint, RealPoint
from .unipoly import RootBox, UniPoly, box_sign, gcd, isolate_real_roots, squarefree_part


class SharedComponent(ValueError):
    """The two inputs have a common factor, so their intersection is not finite."""


@dataclass
class PairIntersection:
    real_points: list[RealPoint] = field(default_factory=list)
    nonreal_pairs: list[ConjugatePairPoint] = field(default_factory=list)
    total_closed_points: int = 0  # distinct complex intersection points
    used_shear: bool = False


def fast_intersection(F: BiPoly, G: BiPoly) -> PairIntersection | None:
    """Substitution route; returns None when exact shearing is required."""
    if F.deg_y == 0 and G.deg_y == 0:
        # two curves of vertical lines; coprime means no shared x-root
        return PairIntersection()
    if F.deg_y == 0:
        return _fast_vertical(F, G)
    if G.deg_y == 0:
        return _fast_vertical(G, F)

    R = resultant_y(F, G)
    if R.is_zero():
        raise SharedComponent("resultant vanished identically")
    rad = squarefree_part(R)
    if rad.degree == 0:
        return PairIntersection()
    boxes = isolate_real_roots(rad)
    xs = [b.exact_value for b in boxes]
    if any(x is None for x in xs) or len(xs) < rad.degree:
        return None
    out = PairIntersection()
    for xi in xs:
        if not _collect_over_abscissa(F, G, xi, out):
            return None
    return out


def _fast_vertical(V: BiPoly, G: BiPoly) -> PairIntersection | None:
    """V is constant in y (a union of vertical lines); G is anything else."""
    px = V.specialize_y(0)
    if px.degree < 1:
        return PairIntersection()
    boxes = isolate_real_roots(px)
    xs = [b.exact_value for b in boxes]
    if any(x is None for x in xs) or len(xs) < squarefree_part(px).degree:
        return None
    out = PairIntersection()
    for xi in xs:
        if not _collect_over_abscissa(V, G, xi, out):
            return None
    return out


def _collect_over_abscissa(F: BiPoly, G: BiPoly, xi: Fraction, out: PairIntersection) -> bool:
    """Add all intersection points over x = xi; False when data turns irrational."""
    fy = F.specialize_x(xi)
    gy = G.specialize_x(xi)
    if fy.is_zero():
        common = gy  # the vertical line x = xi lies inside F
    elif gy.is_zero():
        common = fy
    else:
        common = gcd(fy, gy)
    if common.degree <= 0:
        return True
    sq = squarefree_part(common)
    yboxes = isolate_real_roots(sq)
    if any(b.exact_value is None for b in yboxes):
        return False
    reals = [b.exact_value for b in yboxes]
    for y0 in reals:
        out.real_points.append(RationalPoint(xi, y0))
    out.total_closed_points += sq.degree
    leftover = sq
    for y0 in reals:
        leftover = leftover.exact_div(UniPoly.linear_root(y0))
    pairs = (sq.degree - len(reals)) // 2
    if pairs == 1:
        out.nonreal_pairs.append(ConjugatePairPoint(abscissa=xi, y_quadratic=leftover.monic()))
    else:
        for _ in range(pairs):
            out.nonreal_pairs.append(
                ConjugatePairPoint(abscissa=xi, note="one of several conjugate pairs over this x")
            )
    return True


# -- shear selection ---------------------------------------------------------


def shear_bad_bound(F: BiPoly, G: BiPoly) -> int:
    """Upper bound on the number of integer shear values that are invalid or
    merge two distinct intersection points."""
    n = F.total_degree * G.total_degree
    return n * (n - 1) // 2 + F.total_degree + G.total_degree


def shear_score(F: BiPoly, G: BiPoly, lam: Fraction) -> int | None:
    """Squarefree degree of the sheared resultant; None when lam is invalid.

    For a valid lam the score equals the number of distinct complex
    intersection points counted through u = x + lam*y, so maximizing it over
    a large enough pool certifies a collision-free choice.
    """
    Fs, Gs = _shear(F, lam), _shear(G, lam)
    if not _leading_is_constant(Fs) or not _leading_is_constant(Gs):
        return None
    W = resultant_y(Fs, Gs)
    if W.is_zero():
        raise SharedComponent("resultant vanished identically")
    return squarefree_part(W).degree


def choose_shear(pairs: list[tuple[BiPoly, BiPoly]]) -> Fraction:
    """One shear parameter valid and collision-free for every listed pair."""
    if not pairs:
        return Fraction(1)
    pool = sum(shear_bad_bound(F, G) for F, G in pairs) + 1
    best_lam, best_score = None, -1
    for k in range(1, pool + 1):
        lam = Fraction(k)
        total = 0
        for F, G in pairs:
            s = shear_score(F, G, lam)
            if s is None:
                total = -1
                break
            total += s
        if total > best_score:
            best_lam, best_score = lam, total
    assert best_lam is not None
    return best_lam


def _shear(F: BiPoly, lam: Fraction) -> BiPoly:
    return F.compose_linear(1, -lam, 0, 1)


def _leading_is_constant(Fs: BiPoly) -> bool:
    ypolys = Fs.as_y_polynomial()
    return len(ypolys) - 1 == Fs.total_degree and ypolys[-1].degree == 0


# -- sheared route -----------------------------------------------------------


def sheared_intersection(F: BiPoly, G: BiPoly, lam: Fraction) -> PairIntersection:
    """Resolve a pair in the frame u = x + lam*y.

    Requires lam valid and collision-free for this pair (see choose_shear);
    every intersection point then sits over its own u-root, real points over
    real roots, and coordinates come out of the subresultant ladder.
    """
    Fs, Gs = _shear(F, lam), _shear(G, lam)
    if not (_leading_is_constant(Fs) and _leading_is_constant(Gs)):
        raise ValueError("shear parameter is not valid for this pair")
    W = resultant_y(Fs, Gs)
    if W.is_zero():
        raise SharedComponent("resultant vanished identically")
    rad = squarefree_part(W)
    out = PairIntersection(used_shear=True)
    out.total_closed_points = rad.degree
    if rad.degree == 0:
        return out
    boxes = isolate_real_roots(rad)
    ladder = _subresultant_ladder(Fs, Gs)
    for box in boxes:
        if box.exact_value is not None:
            out.real_points.append(_rational_from_frame(Fs, Gs, box.exact_value, lam))
        else:
            out.real_points.append(_boxed_from_frame(ladder, box, lam))
    pairs = (rad.degree - len(boxes)) // 2
    for _ in range(pairs):
        out.nonreal_pairs.append(ConjugatePairPoint(note="found through a sheared frame"))
    return out


def _rational_from_frame(Fs: BiPoly, Gs: BiPoly, u0: Fraction, lam: Fraction) -> RationalPoint:
    fy = Fs.specialize_x(u0)
    gy = Gs.specialize_x(u0)
    g = gcd(fy, gy)
    k = g.degree
    if k < 1:
        raise AssertionError("u-root without a common point")
    y0 = -g.coeff(k - 1) / k
    if g != UniPoly.linear_root(y0) ** k:
        raise AssertionError("shear was not collision-free")
    return RationalPoint(u0 - lam * y0, y0)


def _boxed_from_frame(ladder: list[list[UniPoly]], box: RootBox, lam: Fraction) -> AlgebraicPoint:
    for k, member in enumerate(ladder, start=1):
        lead = member[k]
        if box_sign(lead, box) != 0:
            # member = c*(y - y0)^k over this root, so read y0 off the top two coefficients
            C = lead.scale(k)
            B = member[k - 1].scale(-1)
            A = UniPoly.var() * C - B.scale(lam)
            return AlgebraicPoint(u=box, lam=lam, A=A, B=B, C=C)
    raise AssertionError("subresultant ladder exhausted")


def _subresultant_ladder(Fs: BiPoly, Gs: BiPoly) -> list[list[UniPoly]]:
    """Subresultants S_1, S_2, ... as coefficient lists over the u-line.

    Index k holds exactly k+1 coefficient entries (degrees 0..k in y).  The
    list ends with the lower-degree input itself, the top rung used when the
    whole specialized polynomial is a power of one linear factor.
    """
    fy = Fs.as_y_polynomial()
    gy = Gs.as_y_polynomial()
    if len(fy) < len(gy):
        fy, gy = gy, fy
    m, n = len(fy) - 1, len(gy) - 1
    ladder = []
    for j in range(1, n):
        ladder.append(_detpol_subresultant(fy, gy, j))
    ladder.append(gy)
    return ladder


def _detpol_subresultant(fy: list[UniPoly], gy: list[UniPoly], j: int) -> list[UniPoly]:
    from .bipoly import _det_bareiss

    m, n = len(fy) - 1, len(gy) - 1
    rows: list[list[UniPoly]] = []
    width = m + n - j
    for e in range(n - j - 1, -1, -1):
        rows.append(_coeff_row(fy, e, width))
    for e in range(m - j - 1, -1, -1):
        rows.append(_coeff_row(gy, e, width))
    r = len(rows)
    out: list[UniPoly] = []
    for k in range(j + 1):
        cols = list(range(r - 1)) + [width - 1 - k]
        minor = [[row[c] for c in cols] for row in rows]
        out.append(_det_bareiss(minor))
    return out


def _coeff_row(poly: list[UniPoly], shift: int, width: int) -> list[UniPoly]:
    """Coefficient vector of y^shift * poly, columns by descending y-degree."""
    row = [UniPoly.zero()] * width
    for i, c in enumerate(poly):
        deg = i + shift
        row[width - 1 - deg] = c
    return row
