"""Sum-of-squares decompositions of univariate polynomials.

Positivity is decided once per restriction.  A function on a line is
num / (t - pole)^order.  For an even order, num is split once by Yun's
algorithm as c * square^2 * rootless with monic factors, rootless being the
product of the factors that occur to an odd power; num is psd exactly when
c > 0 and rootless has no real root, and that same split is then decomposed.
Otherwise `negative_point` finds a rational point where the function is
negative: p keeps one sign between consecutive distinct real roots, and the
endpoints of the disjoint isolating boxes sample every such interval, so no
refinement is needed.

The exact decomposition is one fold over square-lists, tuples of
polynomials whose squares sum to a factor of p.  It starts from (square,),
multiplies in the lists of the squarefree rootless part r and then the
rational squares of the constant c (`rational_square_list`), and keeps the
nonzero products.  Two lists of two entries multiply through the
Brahmagupta identity and stay two; any other pair takes the outer product.
The lists of r come from one of three places.  A monic quadratic
r = t^2 + u t + v, like the last quadratic factor left of a longer r, needs
no floats: r = (t + u/2)^2 + gap with gap = v - u^2/4 > 0, so its list is
(t + u/2) followed by the rational squares of gap.  A longer r is split as
A^2 + B^2 by pairing complex roots so that the paired factor has
Gaussian-rational coefficients, or failing that into rational quadratic
factors.  numpy's roots serve rootless parts of degree 4 and more only.
Every exact result is re-verified by expanding the squares once; nothing is
trusted from floating point.  When no exact decomposition is found the
numeric path pairs all upper-half-plane roots and reports the coefficient
residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numbers import limit_denominators, rational_square_list
from .ringfn import LineFn
from .unipoly import UniPoly, count_real_roots, isolate_real_roots, yun_decomposition

_DENOMINATOR_LADDER = (16, 1024, 10**6, 10**9, 10**12)
_MAX_PAIRING_DEGREE = 24
_NUMERIC_TOL = 1e-9  # largest coefficient residual of a numeric decomposition


class NotPsd(ValueError):
    """The polynomial takes a negative value; carries an exact witness."""

    def __init__(self, point: Fraction, value: Fraction):
        self.point = point
        self.value = value
        super().__init__(f"negative value {value} at t = {point}")


class NumericFailure(ArithmeticError):
    """The numeric decomposition missed the requested tolerance."""


@dataclass(frozen=True)
class SumOfSquares:
    """Parts whose squares sum to the input; exact or within `residual`."""

    parts: tuple
    exact: bool
    residual: float = 0.0


def negative_point(
    p: UniPoly, lo: Fraction | None = None, hi: Fraction | None = None
) -> Fraction | None:
    """A rational point where p < 0, inside [lo, hi] when both are given.

    None when there is no such point.  p keeps one sign on each open
    interval between consecutive distinct real roots, and before the first
    and after the last.  The isolating boxes are disjoint, each holds one
    root, and no endpoint is a root, so the high end of each box samples the
    interval after its root and the first box's low end the one before;
    without real roots, 0 samples the whole line.  On [lo, hi] the samples
    are lo, hi and the box endpoints strictly between them: a piece where p
    keeps one sign either ends at lo or hi in a point that is no root, or
    lies between consecutive roots r < r' in [lo, hi] and holds the high
    end of r's box.  No box needs refining.
    """
    if p.is_zero():
        return None
    ends = [e for box in isolate_real_roots(p) for e in (box.low, box.high)]
    if lo is None or hi is None:
        samples = ends or [Fraction(0)]
    elif lo > hi:
        raise ValueError("need lo <= hi")
    else:
        samples = [lo, *(e for e in ends if lo < e < hi), hi]
    return next((t for t in samples if p.sign_at(t) < 0), None)


def _split_psd(p: UniPoly) -> tuple[Fraction, UniPoly, UniPoly]:
    """p = c * square^2 * rootless with monic factors, c the leading coeff.

    rootless is the product of the factors that occur to an odd power; it
    has no real root exactly when p keeps one sign.
    """
    c = p.leading()
    square, rootless = UniPoly.one(), UniPoly.one()
    for factor, mult in yun_decomposition(p):
        square = square * factor ** (mult // 2)
        if mult % 2:
            rootless = rootless * factor
    assert (square * square * rootless).scale(c) == p
    return c, square, rootless


def _roots_upper_half(r: UniPoly) -> list[complex] | None:
    coeffs = [float(r.coeff(i)) for i in range(r.degree, -1, -1)]
    roots = np.roots(coeffs)
    upper = [complex(z) for z in roots if z.imag > 0]
    if len(upper) != r.degree // 2:
        return None
    return upper


def _poly_from_roots(roots: list[complex]) -> list[complex]:
    coeffs = [1.0 + 0.0j]
    for z in roots:
        nxt = [0.0 + 0.0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= z * c
        coeffs = nxt
    return coeffs


def _gaussian_pairing(r: UniPoly, upper: list[complex]) -> tuple[UniPoly, UniPoly] | None:
    """r = A^2 + B^2 with rational A, B through complex root pairing.

    A monic rootless r factors over the complex numbers as M * conj(M) for
    2^(deg/2) choices of M; exactly the choices with Gaussian-rational
    coefficients (when any exist) survive the exact re-verification.
    """
    if r.degree > _MAX_PAIRING_DEGREE:
        return None
    m = len(upper)
    for mask in range(2 ** max(m - 1, 0)):
        chosen = [
            upper[j] if (mask >> j) & 1 else upper[j].conjugate() for j in range(m)
        ]
        coeffs = _poly_from_roots(chosen)
        # one tuple of coefficients per rung of the ladder
        re = zip(*(limit_denominators(c.real, _DENOMINATOR_LADDER) for c in coeffs))
        im = zip(*(limit_denominators(c.imag, _DENOMINATOR_LADDER) for c in coeffs))
        for a, b in zip(map(UniPoly, re), map(UniPoly, im)):
            if a * a + b * b == r:
                return a, b
    return None


def _completed_square(q: UniPoly) -> tuple[UniPoly, ...]:
    """A square-list of the monic rootless quadratic q = t^2 + u t + v.

    q = (t + u/2)^2 + gap with gap = v - u^2/4 > 0, so the list is t + u/2
    followed by a rational square-list of gap: the single constant
    sqrt(gap) exactly when gap is a rational square.
    """
    u, v = q.coeff(1), q.coeff(0)
    gap = v - u * u / 4
    return (
        UniPoly([u / 2, Fraction(1)]),
        *(UniPoly.const(e) for e in rational_square_list(gap) if e),
    )


def _quadratic_square_lists(
    r: UniPoly, upper: list[complex]
) -> list[tuple[UniPoly, ...]] | None:
    """Square-lists of exact rational quadratic factors covering all of monic r.

    Factors are recovered from the roots through the denominator ladder
    until a quadratic is left, which is the last factor exactly.
    """
    remaining = r
    lists: list[tuple[UniPoly, ...]] = []
    for z in upper:
        if remaining.degree <= 2:
            break
        found = None
        us = limit_denominators(-2.0 * z.real, _DENOMINATOR_LADDER)
        vs = limit_denominators(abs(z) ** 2, _DENOMINATOR_LADDER)
        for u, v in zip(us, vs):
            quad = UniPoly([v, u, Fraction(1)])
            quo, rem = divmod(remaining, quad)
            if rem.is_zero():
                found = (quad, quo)
                break
        if found is None:
            continue
        quad, remaining = found
        lists.append(_completed_square(quad))
    if remaining.degree == 2:
        lists.append(_completed_square(remaining))
    elif remaining.degree != 0:
        return None
    return lists


def _square_list_product(fs: tuple, gs: tuple) -> tuple:
    """A square-list for the product of two square-list values.

    Two two-term lists combine through the Brahmagupta identity and stay
    two; any other pair takes the outer product, which keeps a one-term
    list's length.
    """
    if len(fs) == 2 and len(gs) == 2:
        (a, b), (c, d) = fs, gs
        return (a * c - b * d, a * d + b * c)
    return tuple(f * g for f in fs for g in gs)


def _signed(parts: tuple[UniPoly, ...]) -> tuple[UniPoly, ...]:
    """Normalize each (nonzero) part to a positive leading coefficient."""
    return tuple(-f if f.leading() < 0 else f for f in parts)


def _numeric_two_squares(
    p: UniPoly, c: Fraction, square: UniPoly, upper: list[complex]
) -> SumOfSquares:
    scale = math.sqrt(float(c))
    coeffs = _poly_from_roots(upper)
    a = UniPoly([Fraction(v.real) for v in coeffs])
    b = UniPoly([Fraction(v.imag) for v in coeffs])
    f1 = (square * a).scale(Fraction(scale))
    f2 = (square * b).scale(Fraction(scale))
    gap = f1 * f1 + f2 * f2 - p
    residual = max((abs(float(v)) for v in gap.coeffs), default=0.0)
    if residual > _NUMERIC_TOL:
        raise NumericFailure(
            f"numeric decomposition residual {residual:.3g} exceeds {_NUMERIC_TOL:.3g}"
        )
    return SumOfSquares(_signed((f1, f2)), exact=False, residual=residual)


def _check_squares(parts: tuple[UniPoly, ...], p: UniPoly) -> None:
    """The re-verification of an exact decomposition: the squares expand to p."""
    if UniPoly.dot(parts, parts) != p:
        raise ArithmeticError("exact square decomposition does not expand to the input")


def uni_sos_two_squares(
    p: UniPoly, c: Fraction, square: UniPoly, rootless: UniPoly
) -> SumOfSquares:
    """Decompose psd p = c * square^2 * rootless as a sum of (preferably two) squares.

    The split is `_split_psd(p)`, already known psd: c > 0 and rootless
    without real roots.  The square-lists of rootless (its completed square
    when it is quadratic, else the complex root pairing or, failing that,
    its rational quadratic factors) and then of c are multiplied into
    (square,) one at a time; the parts are the nonzero products.  When
    rootless has neither a pairing nor quadratic factors over the
    rationals, the numeric answer is the last resort.
    """
    if rootless.degree == 0:
        lists = []
    elif rootless.degree == 2:
        lists = [_completed_square(rootless)]
    else:
        upper = _roots_upper_half(rootless)
        if upper is None:
            raise NumericFailure("complex roots did not split into conjugate pairs")
        pairing = _gaussian_pairing(rootless, upper)
        lists = [pairing] if pairing is not None else _quadratic_square_lists(rootless, upper)
        if lists is None:
            return _numeric_two_squares(p, c, square, upper)
    acc: tuple[UniPoly, ...] = (square,)
    for entry in [*lists, tuple(map(UniPoly.const, rational_square_list(c)))]:
        acc = _square_list_product(acc, entry)
    parts = tuple(f for f in acc if not f.is_zero())
    _check_squares(parts, p)
    return SumOfSquares(_signed(parts), exact=True)


def line_fn_sos(fn: LineFn) -> SumOfSquares:
    """Sum-of-squares decomposition on a (possibly punctured) line component.

    Raises NotPsd at a rational parameter other than the pole where the
    function is negative.  An odd pole order is never psd, since the normal
    form keeps num(pole) != 0 and the function changes sign there.
    """
    if fn.is_zero:
        return SumOfSquares((), exact=True)
    if fn.order % 2 == 0:
        c, square, rootless = _split_psd(fn.num)
        if c > 0 and count_real_roots(rootless) == 0:
            inner = uni_sos_two_squares(fn.num, c, square, rootless)
            half = fn.order // 2
            parts = tuple(LineFn(g, half, fn.pole_at) for g in inner.parts)
            return SumOfSquares(parts, inner.exact, inner.residual)
    # off the pole, num * (t - pole)^(2 - order mod 2) has the function's
    # sign, and the pole is a root of it, so never the witness
    lin = UniPoly.linear_root(fn.pole_at)
    w = negative_point(fn.num * lin ** (2 - fn.order % 2))
    assert w is not None, "a function that is not psd has a negative point"
    raise NotPsd(w, fn(w))
