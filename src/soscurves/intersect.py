"""Certified intersection of two coprime plane curves.

Two routes produce the same kind of answer: the distinct real intersection
points and the conjugate pairs of non-real ones.  The fast route eliminates
y, demands that every root of the resultant be rational, and reads points
off by substitution.  It isolates the roots of the resultant, and of each
fibre's gcd, as they are and reads the radical off the boxes, so each
polynomial gets one remainder sequence.  When irrational or non-real
x-values appear, the engine shears the frame (u = x + lam*y) so that
distinct intersection points receive distinct u-values; real points over
irrational u get exact box representations through subresultants.

A shear parameter is valid for a pair when neither leading form vanishes in
the shear direction; it is collision-free when distinct complex intersection
points map to distinct u.  Candidates lam = 1, 2, ... are tried in turn and
the first one that passes a certified separation test for every pair is kept:
over each root of the sheared resultant the fibre gcd is read off the
subresultant ladder, and the test checks exactly, in Q[u], that it is a power
of one linear factor (Gonzalez-Vega and El Kahoui, J. Complexity 1996;
Bouzidi, Lazard, Pouget and Rouillier, JSC 2015).

The test that accepts lam hands the pair's squarefree sheared resultant and
ladder (a `ShearedPair`) to `sheared_intersection`, which reads every point
off the ladder, so each pair is eliminated once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .bipoly import BiPoly, _detpol_subresultant, resultant_y
from .points import AlgebraicPoint, ConjugatePairPoint, RationalPoint, RealPoint
from .unipoly import BoxedValue, RootBox, UniPoly, gcd, isolate_real_roots, squarefree_part


class SharedComponent(ValueError):
    """The two inputs have a common factor, so their intersection is not finite."""


@dataclass
class PairIntersection:
    real_points: list[RealPoint] = field(default_factory=list)
    nonreal_pairs: list[ConjugatePairPoint] = field(default_factory=list)


def fast_intersection(F: BiPoly, G: BiPoly) -> PairIntersection | None:
    """Substitution route; returns None when exact shearing is required.

    Raises SharedComponent when the two curves share a factor: a zero
    resultant, a vertical line on both, or a fibre on which both vanish.
    """
    if F.deg_y == 0 and G.deg_y == 0:  # two curves of vertical lines
        if gcd(F.specialize_y(0), G.specialize_y(0)).degree > 0:
            raise SharedComponent("both curves contain a vertical line")
        return PairIntersection()
    if F.deg_y == 0 or G.deg_y == 0:  # vertical lines: their x-values directly
        R = (F if F.deg_y == 0 else G).specialize_y(0)
    else:
        R = resultant_y(F, G)
        if R.is_zero():
            raise SharedComponent("resultant vanished identically")
    if R.degree == 0:
        return PairIntersection()
    boxes = isolate_real_roots(R)
    xs = [b.exact_value for b in boxes]
    # every root rational: as many real roots as the radical's degree
    if not boxes or None in xs or len(xs) < boxes[0].poly.degree:
        return None
    out = PairIntersection()
    for xi in xs:
        if not _collect_over_abscissa(F, G, xi, out):
            return None
    return out


def _collect_over_abscissa(F: BiPoly, G: BiPoly, xi: Fraction, out: PairIntersection) -> bool:
    """Add all intersection points over x = xi; False when data turns irrational."""
    fy = F.specialize_x(xi)
    gy = G.specialize_x(xi)
    if fy.is_zero() and gy.is_zero():
        raise SharedComponent(f"both curves contain the line x = {xi}")
    if fy.is_zero():
        common = gy  # the vertical line x = xi lies inside F
    elif gy.is_zero():
        common = fy
    else:
        common = gcd(fy, gy)
    if common.degree <= 0:
        return True
    yboxes = isolate_real_roots(common)
    if any(b.exact_value is None for b in yboxes):
        return False
    reals = [b.exact_value for b in yboxes]
    for y0 in reals:
        out.real_points.append(RationalPoint(xi, y0))
    # the radical of common, read off a box when it has a real root
    leftover = yboxes[0].poly if yboxes else squarefree_part(common)
    for y0 in reals:
        leftover = leftover.exact_div(UniPoly.linear_root(y0))
    pairs = leftover.degree // 2
    if pairs == 1:
        out.nonreal_pairs.append(ConjugatePairPoint(abscissa=xi, y_quadratic=leftover.monic()))
    else:
        for _ in range(pairs):
            out.nonreal_pairs.append(ConjugatePairPoint(abscissa=xi))
    return True


# -- shear selection ---------------------------------------------------------


def shear_bad_bound(F: BiPoly, G: BiPoly) -> int:
    """Upper bound on the number of integer shear values that are invalid or
    merge two distinct intersection points."""
    n = F.total_degree * G.total_degree
    return n * (n - 1) // 2 + F.total_degree + G.total_degree


@dataclass(frozen=True)
class ShearedPair:
    """A pair eliminated in the frame u = x + lam*y: the squarefree sheared
    resultant and the subresultant ladder (see _subresultant_ladder)."""

    lam: Fraction
    radical: UniPoly
    ladder: list[list[UniPoly]]


def shear_score(F: BiPoly, G: BiPoly, lam: Fraction) -> ShearedPair | None:
    """The pair's elimination when lam is valid and collision-free, else None.

    Over the roots of the squarefree resultant W(u) where the first k - 1
    principal subresultant coefficients vanish and s_k does not, the fibre
    gcd of the sheared pair is the k-th subresultant S_k(u, y).  The fibre
    holds a single point exactly when S_k = s_k * (y - y0)^k there, which is
    checked modulo the squarefree factor of those roots.  This is the
    generic-position test of Gonzalez-Vega and El Kahoui (J. Complexity 1996)
    as used by Bouzidi, Lazard, Pouget and Rouillier (JSC 2015).  The result
    feeds sheared_intersection.  The name is kept from the scoring search
    this test replaced, because the benchmark trace (perfbench/bench_trace.py)
    wraps it by name and counts its calls per pair.
    """
    Fs, Gs = _shear(F, lam), _shear(G, lam)
    if not (_leading_is_constant(Fs) and _leading_is_constant(Gs)):
        return None
    W = resultant_y(Fs, Gs)
    if W.is_zero():
        raise SharedComponent("resultant vanished identically")
    radical = squarefree_part(W)
    ladder = _subresultant_ladder(Fs, Gs)
    gamma = radical
    for k, rung in enumerate(ladder, start=1):
        if gamma.degree == 0:
            break
        rest = gcd(gamma, rung[k])
        if not _single_root_fibres(rung, k, gamma.exact_div(rest)):
            return None
        gamma = rest
    return ShearedPair(lam, radical, ladder)


def _single_root_fibres(rung: list[UniPoly], k: int, phi: UniPoly) -> bool:
    """Whether rung = s*(y - y0)^k over every root of phi, y0 = -rung[k-1]/(k*s).

    Comparing coefficients of y^(k-j) gives k^j * s^(j-1) * rung[k-j] =
    C(k, j) * rung[k-1]^j for j = 2..k, each taken modulo phi.
    """
    s, t = rung[k] % phi, rung[k - 1] % phi
    s_pow, t_pow = UniPoly.one(), t
    for j in range(2, k + 1):
        s_pow = (s_pow * s) % phi
        t_pow = (t_pow * t) % phi
        if ((rung[k - j] * s_pow).scale(k**j) - t_pow.scale(comb(k, j))) % phi:
            return False
    return True


def choose_shear(pairs: list[tuple[BiPoly, BiPoly]]) -> tuple[Fraction, list[ShearedPair]]:
    """The least positive integer shear valid and collision-free for every
    pair, with each pair's elimination under it (in the order of `pairs`).

    shear_bad_bound caps the integers that fail some pair, so one of the
    first sum-plus-one candidates passes.
    """
    if not pairs:
        return Fraction(1), []
    pool = sum(shear_bad_bound(F, G) for F, G in pairs) + 1
    for k in range(1, pool + 1):
        lam = Fraction(k)
        sheared = []
        for F, G in pairs:
            pair = shear_score(F, G, lam)
            if pair is None:
                break
            sheared.append(pair)
        else:
            return lam, sheared
    raise AssertionError("no separating shear within the bad-value bound")


def _shear(F: BiPoly, lam: Fraction) -> BiPoly:
    return F.compose_linear(1, -lam, 0, 1)


def _leading_is_constant(Fs: BiPoly) -> bool:
    ypolys = Fs.as_y_polynomial()
    return len(ypolys) - 1 == Fs.total_degree and ypolys[-1].degree == 0


# -- sheared route -----------------------------------------------------------


def sheared_intersection(pair: ShearedPair) -> PairIntersection:
    """Resolve a pair from the elimination its accepted shear returned.

    shear_score certified that every intersection point sits over its own
    root of the radical, real points over real roots, and that there the
    first rung with a nonzero leading coefficient is a power of one linear
    factor in y; each point is read off that rung.
    """
    rad = pair.radical
    out = PairIntersection()
    boxes = isolate_real_roots(rad)
    inverses: dict[int, BoxedValue] = {}
    for box in boxes:
        out.real_points.append(_point_from_ladder(pair.ladder, box, pair.lam, inverses))
    pairs = (rad.degree - len(boxes)) // 2
    for _ in range(pairs):
        out.nonreal_pairs.append(ConjugatePairPoint())
    return out


def _point_from_ladder(
    ladder: list[list[UniPoly]], box: RootBox, lam: Fraction, inverses: dict[int, BoxedValue]
) -> RealPoint:
    """The point over the root in box.  inverses caches -1/(k*lead) per rung
    k, modulo the factor of the radical that holds every root read off it."""
    for k, rung in enumerate(ladder, start=1):
        lead = BoxedValue(rung[k], box)
        if lead.sign() != 0:
            # rung = lead*(y - y0)^k over this root, so y0 = -rung[k-1]/(k*lead)
            # off the top two coefficients, and x = u - lam*y0
            u0 = box.exact_value
            if u0 is not None:
                y0 = -rung[k - 1](u0) / (k * rung[k](u0))
                return RationalPoint(u0 - lam * y0, y0)
            if k not in inverses:
                inverses[k] = (lead * -k).inverse()
            inv = inverses[k]  # its representative and modulus serve every root of the rung
            y = BoxedValue(rung[k - 1] * inv.poly, box, inv.modulus)
            x = BoxedValue(UniPoly.var() - y.poly.scale(lam), box, inv.modulus)
            return AlgebraicPoint(u=box, lam=lam, x=x, y=y)
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
    ladder = []
    for j in range(1, len(gy) - 1):
        ladder.append(_detpol_subresultant(fy, gy, j))
    ladder.append(gy)
    return ladder
