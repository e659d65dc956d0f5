"""Sum-of-squares decompositions of univariate polynomials.

The exact path writes a psd polynomial p = c * s^2 * r (Yun decomposition),
splits the squarefree rootless part r as A^2 + B^2 by pairing complex roots
so that the paired factor has Gaussian-rational coefficients, and combines
with a two-square splitting of the constant via the Brahmagupta identity.
Every exact result is re-verified by expanding the squares; nothing is
trusted from floating point.  When no exact decomposition is found the
numeric path pairs all upper-half-plane roots and reports the coefficient
residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numbers import _two_squares, rational_square_list
from .ringfn import LineFn
from .unipoly import (
    UniPoly,
    cauchy_bound,
    isolate_real_roots,
    sturm_count,
    yun_decomposition,
)

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

    @property
    def pair(self) -> tuple:
        if len(self.parts) != 2:
            raise ValueError(f"{len(self.parts)} parts, not a two-square form")
        return self.parts


def uni_psd_witness(p: UniPoly) -> Fraction | None:
    """A rational point where p is negative, or None when p is psd."""
    if p.is_zero():
        return None
    if p.degree == 0:
        return Fraction(0) if p.coeff(0) < 0 else None
    bound = cauchy_bound(p) + 1
    if p.degree % 2 == 1 or p.leading() < 0:
        for t0 in (-bound, bound):
            if p(t0) < 0:
                return t0
        raise AssertionError("sign analysis outside the root bound went wrong")
    odd_part = UniPoly.one()
    for factor, mult in yun_decomposition(p):
        if mult % 2:
            odd_part = odd_part * factor
    if odd_part.degree <= 0:
        return None
    boxes = isolate_real_roots(odd_part)
    if not boxes:
        return None
    for k in range(len(boxes) - 1):
        a, b = boxes[k], boxes[k + 1]
        guard = 0
        while a.high >= b.low:
            a, b = a.refined(2), b.refined(2)
            guard += 1
            if guard > 500:
                raise AssertionError("failed to separate adjacent root boxes")
        lo, hi = a.high, b.low
        samples = p.degree + 3
        for j in range(1, samples):
            t0 = lo + (hi - lo) * Fraction(j, samples)
            if p(t0) < 0:
                return t0
    return None


def _two_square_fractions(c: Fraction) -> tuple[Fraction, Fraction] | None:
    """c = a^2 + b^2 over the rationals, if an integral witness exists."""
    if c < 0:
        return None
    ab = _two_squares(c.numerator * c.denominator)
    if ab is None:
        return None
    a, b = sorted(ab + [0, 0], reverse=True)[:2]
    return Fraction(a, c.denominator), Fraction(b, c.denominator)


def _split_psd(p: UniPoly) -> tuple[Fraction, UniPoly, UniPoly]:
    """p = c * square^2 * rootless with monic factors, c the leading coeff."""
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


def _rationalize(values: list[float], denominator: int) -> UniPoly:
    return UniPoly([Fraction(v).limit_denominator(denominator) for v in values])


def _gaussian_pairing(r: UniPoly) -> tuple[UniPoly, UniPoly] | None:
    """r = A^2 + B^2 with rational A, B through complex root pairing.

    A monic rootless r factors over the complex numbers as M * conj(M) for
    2^(deg/2) choices of M; exactly the choices with Gaussian-rational
    coefficients (when any exist) survive the exact re-verification.
    """
    if r.degree > _MAX_PAIRING_DEGREE:
        return None
    upper = _roots_upper_half(r)
    if upper is None:
        return None
    m = len(upper)
    for mask in range(2 ** max(m - 1, 0)):
        chosen = [
            upper[j] if (mask >> j) & 1 else upper[j].conjugate() for j in range(m)
        ]
        coeffs = _poly_from_roots(chosen)
        re = [c.real for c in coeffs]
        im = [c.imag for c in coeffs]
        for denom in _DENOMINATOR_LADDER:
            a = _rationalize(re, denom)
            b = _rationalize(im, denom)
            if a * a + b * b == r:
                return a, b
    return None


def _quadratic_square_lists(r: UniPoly) -> list[tuple[UniPoly, ...]] | None:
    """Square-lists of exact rational quadratic factors covering all of r."""
    upper = _roots_upper_half(r)
    if upper is None:
        return None
    remaining = r
    lists: list[tuple[UniPoly, ...]] = []
    for z in upper:
        if remaining.degree < 2:
            break
        found = None
        for denom in _DENOMINATOR_LADDER:
            u = Fraction(-2.0 * z.real).limit_denominator(denom)
            v = Fraction(abs(z) ** 2).limit_denominator(denom)
            quad = UniPoly([v, u, Fraction(1)])
            quo, rem = divmod(remaining, quad)
            if rem.is_zero():
                found = (quad, quo, u, v)
                break
        if found is None:
            continue
        quad, remaining, u, v = found
        # t^2 + u t + v = (t + u/2)^2 + (v - u^2/4), the gap being positive
        gap = v - u * u / 4
        parts = [UniPoly([u / 2, Fraction(1)])]
        parts.extend(UniPoly.const(e) for e in rational_square_list(gap) if e)
        lists.append(tuple(parts))
    if remaining.degree != 0:
        return None
    return lists


def _square_list_product(fs: tuple, gs: tuple) -> tuple:
    """A square-list for the product of two square-list values.

    Two-term lists combine through the Brahmagupta identity and stay short;
    anything longer falls back to the outer product.
    """
    if len(fs) <= 2 and len(gs) <= 2:
        a = fs[0] if len(fs) > 0 else UniPoly.zero()
        b = fs[1] if len(fs) > 1 else UniPoly.zero()
        c = gs[0] if len(gs) > 0 else UniPoly.zero()
        d = gs[1] if len(gs) > 1 else UniPoly.zero()
        return (a * c - b * d, a * d + b * c)
    return tuple(f * g for f in fs for g in gs)


def _signed(parts: tuple[UniPoly, ...]) -> tuple[UniPoly, ...]:
    """Normalize each part to a positive leading coefficient, nonzero first."""
    fixed = tuple(-f if (not f.is_zero() and f.leading() < 0) else f for f in parts)
    if len(fixed) == 2 and fixed[0].is_zero() and not fixed[1].is_zero():
        fixed = (fixed[1], fixed[0])
    return fixed


def _constant_square_list(c: Fraction) -> tuple[UniPoly, ...]:
    two = _two_square_fractions(c)
    if two is not None:
        return (UniPoly.const(two[0]), UniPoly.const(two[1]))
    return tuple(UniPoly.const(e) for e in rational_square_list(c) if e)


def _numeric_two_squares(p: UniPoly) -> SumOfSquares:
    c, square, rootless = _split_psd(p)
    scale = math.sqrt(float(c))
    if rootless.degree == 0:
        f1 = square.scale(Fraction(scale))
        parts = (f1, UniPoly.zero())
    else:
        upper = _roots_upper_half(rootless)
        if upper is None:
            raise NumericFailure("complex roots did not split into conjugate pairs")
        coeffs = _poly_from_roots(upper)
        a = UniPoly([Fraction(v.real) for v in coeffs])
        b = UniPoly([Fraction(v.imag) for v in coeffs])
        f1 = (square * a).scale(Fraction(scale))
        f2 = (square * b).scale(Fraction(scale))
        parts = (f1, f2)
    gap = f1 * f1 - p
    for part in parts[1:]:
        gap = gap + part * part
    residual = max((abs(float(v)) for v in gap.coeffs), default=0.0)
    if residual > _NUMERIC_TOL:
        raise NumericFailure(
            f"numeric decomposition residual {residual:.3g} exceeds {_NUMERIC_TOL:.3g}"
        )
    return SumOfSquares(_signed(parts), exact=False, residual=residual)


def uni_sos_two_squares(p: UniPoly) -> SumOfSquares:
    """Decompose a psd polynomial as a sum of (preferably two) squares.

    Raises NotPsd with an exact negative-value witness otherwise.  Returns
    two exact squares whenever the complex root pairing yields them, a
    longer exact list when only rational quadratic factors are available,
    and falls back to the numeric answer as a last resort.
    """
    witness = uni_psd_witness(p)
    if witness is not None:
        raise NotPsd(witness, p(witness))
    if p.is_zero():
        return SumOfSquares((), exact=True)

    c, square, rootless = _split_psd(p)
    if rootless.degree == 0:
        parts = tuple(square * e for e in _constant_square_list(c))
        return SumOfSquares(_signed(parts), exact=True)

    pairing = _gaussian_pairing(rootless)
    if pairing is not None:
        a, b = pairing
        two = _two_square_fractions(c)
        if two is not None:
            alpha, beta = two
            f1 = square * (a.scale(alpha) - b.scale(beta))
            f2 = square * (a.scale(beta) + b.scale(alpha))
            parts = (f1, f2)
        else:
            parts = tuple(
                square * g * UniPoly.const(e)
                for e in rational_square_list(c)
                if e
                for g in (a, b)
            )
        total = UniPoly.zero()
        for f in parts:
            total = total + f * f
        assert total == p
        return SumOfSquares(_signed(parts), exact=True)

    lists = _quadratic_square_lists(rootless)
    if lists is not None:
        acc: tuple[UniPoly, ...] = (square,)
        for entry in lists:
            acc = _square_list_product(acc, entry)
        acc = _square_list_product(acc, _constant_square_list(c))
        parts = tuple(f for f in acc if not f.is_zero())
        total = UniPoly.zero()
        for f in parts:
            total = total + f * f
        assert total == p
        return SumOfSquares(_signed(parts), exact=True)

    return _numeric_two_squares(p)


def psd_on_interval(p: UniPoly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """A rational point of [lo, hi] where p is negative, None when p >= 0 there."""
    if p.is_zero():
        return None
    if lo > hi:
        raise ValueError("need lo <= hi")
    for e in (lo, hi):
        if p(e) < 0:
            return e
    if lo == hi:
        return None
    odd_part = UniPoly.one()
    for factor, mult in yun_decomposition(p):
        if mult % 2:
            odd_part = odd_part * factor
    for e in (lo, hi):
        lin = UniPoly.linear_root(e)
        while odd_part.degree > 0 and odd_part(e) == 0:
            odd_part = odd_part.exact_div(lin)
    if odd_part.degree > 0 and sturm_count(odd_part, lo, hi) > 0:
        # a sign change inside; walk the isolating boxes for a witness
        for box in isolate_real_roots(odd_part):
            guard = 0
            while not (lo < box.low and box.high < hi) and guard < 400:
                if box.high < lo or box.low > hi:
                    break
                box = box.refined(2)
                guard += 1
            if not (lo < box.low and box.high < hi):
                continue
            for _ in range(400):
                if p(box.low) < 0:
                    return box.low
                if p(box.high) < 0:
                    return box.high
                box = box.refined(1)
        raise AssertionError("interior sign change lost while refining boxes")
    # no interior sign change: the sign at almost every sample is the sign
    # everywhere, so scan enough samples to dodge the even-order roots
    samples = p.degree + 3
    for j in range(1, samples):
        t0 = lo + (hi - lo) * Fraction(j, samples)
        if p(t0) < 0:
            return t0
    return None


def line_fn_psd_witness(fn: LineFn) -> Fraction | None:
    """A rational parameter where the function is negative, None when psd."""
    if fn.is_zero:
        return None
    if fn.order % 2 == 0:
        w = uni_psd_witness(fn.num)
        if w is None:
            return None
        if fn.order == 0 or w != fn.pole_at:
            return w
        # numerator negative exactly at the pole: slide off it
        target = fn.num(fn.pole_at)
        assert target < 0
        delta = Fraction(1)
        for _ in range(400):
            for t0 in (fn.pole_at + delta, fn.pole_at - delta):
                if fn.num(t0) < 0:
                    return t0
            delta /= 2
        raise AssertionError("could not move the witness off the pole")
    # odd pole order: the function changes sign across the pole
    side = -1 if fn.num(fn.pole_at) > 0 else 1
    delta = Fraction(1)
    for _ in range(400):
        t0 = fn.pole_at + side * delta
        if fn(t0) < 0:
            return t0
        delta /= 2
    raise AssertionError("sign change across an odd-order pole not found")


def line_fn_sos(fn: LineFn) -> SumOfSquares:
    """Sum-of-squares decomposition on a (possibly punctured) line component."""
    witness = line_fn_psd_witness(fn)
    if witness is not None:
        raise NotPsd(witness, fn(witness))
    if fn.is_zero:
        return SumOfSquares((), exact=True)
    inner = uni_sos_two_squares(fn.num)
    half = fn.order // 2
    parts = tuple(LineFn(g, half, fn.pole_at) for g in inner.parts)
    return SumOfSquares(parts, inner.exact, inner.residual)
