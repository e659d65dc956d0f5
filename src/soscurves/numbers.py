"""Exact decompositions of nonnegative rationals into sums of rational squares."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np


def exact_isqrt(n: int) -> int | None:
    if n < 0:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    a = exact_isqrt(q.numerator)
    b = exact_isqrt(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def limit_denominators(x, ladder: tuple[int, ...] | list[int]) -> list[Fraction]:
    """[Fraction(x).limit_denominator(d) for d in ladder] from one expansion.

    x is anything with `as_integer_ratio` (a float, int or Fraction).  The
    continued fraction of x is expanded once, in integers, as far as the
    largest rung needs; each rung then picks between its last convergent
    p1/q1 and the semiconvergent next to it by cross-multiplying, with
    CPython's tie rule (the convergent wins a tie).
    """
    num, den = x.as_integer_ratio()
    best: dict[int, Fraction] = {}
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    for bound in sorted(set(ladder)):
        if den <= bound:
            best[bound] = Fraction(num, den)
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        ps, qs = p0 + k * p1, q0 + k * q1
        # |p1/q1 - x| <= |ps/qs - x|, both distances over the common den
        if abs(p1 * den - num * q1) * qs <= abs(ps * den - num * qs) * q1:
            best[bound] = Fraction(p1, q1)
        else:
            best[bound] = Fraction(ps, qs)
    return [best[bound] for bound in ladder]


_BLOCK = 4096  # candidates screened per numpy step
_SCREEN_LIMIT = 1 << 62  # below this, every screened value fits int64 exactly


def _two_squares(n: int) -> list[int] | None:
    """n = a**2 + b**2 with a >= b >= 0: the first a, scanning down, that works.

    The scan runs a = isqrt(n), isqrt(n) - 1, ... down to the least a with
    2a**2 >= n (that a is isqrt(n // 2) or one more), and returns [a, b] for
    the first a at which n - a**2 = b**2; a square n gives [isqrt(n)] and 0
    gives [0].  None means no a in that range works.

    For n < 2**62 a range of at least `_BLOCK` candidates is screened in
    int64 blocks of `_BLOCK`, in the same descending order: with
    r = n - a**2 and s = rint(sqrt(float(r))), the first a with s*s == r is
    confirmed with `exact_isqrt` and returned (an a that failed the check
    would be skipped, never returned).  The screen is exact:
    a < 2**31, so r lies in [0, 2**62); for r = k**2 the float error of sqrt
    is at most about k * 2**-52 < 1e-6, so rint gives k; and s <= 2**31, so
    s*s < 2**63 does not overflow.  Hence the screen never misses a square
    and never accepts a non-square, and the result equals the plain scan's.
    Larger n, and shorter ranges, where numpy's per-call cost outweighs the
    block, take the plain scan.
    """
    if n == 0:
        return [0]
    s = exact_isqrt(n)
    if s is not None:
        return [s]
    hi = isqrt(n)
    bot = isqrt(n // 2)
    if 2 * bot * bot < n:
        bot += 1
    if n < _SCREEN_LIMIT and hi - bot + 1 >= _BLOCK:
        return _two_squares_in_blocks(n, hi, bot)
    for a in range(hi, bot - 1, -1):
        r = exact_isqrt(n - a * a)
        if r is not None:
            return [a, r]
    return None


def _two_squares_in_blocks(n: int, hi: int, bot: int) -> list[int] | None:
    for top in range(hi, bot - 1, -_BLOCK):
        a = np.arange(top, max(top - _BLOCK, bot - 1), -1, dtype=np.int64)
        r = n - a * a
        s = np.rint(np.sqrt(r.astype(np.float64))).astype(np.int64)
        for i in np.flatnonzero(s * s == r):
            ai = int(a[i])
            b = exact_isqrt(n - ai * ai)
            if b is not None:
                return [ai, b]
    return None


def _three_squares(n: int) -> list[int] | None:
    if n == 0:
        return [0]
    two = _two_squares(n)
    if two is not None:
        return two
    a = isqrt(n)
    tries = 0
    while a >= 0 and tries < 4000:
        rest = n - a * a
        two = _two_squares(rest)
        if two is not None:
            return [a] + two
        a -= 1
        tries += 1
    return None


def int_square_list(n: int) -> list[int]:
    """Nonnegative n as a sum of at most four integer squares."""
    if n < 0:
        raise ValueError("need a nonnegative integer")
    if n == 0:
        return []
    e = 0
    while n % 4 == 0:
        n //= 4
        e += 1
    scale = 1 << e
    if n % 8 == 7:
        # peel one square; n - 1 is 6 mod 8, hence a sum of three squares
        rest = _three_squares(n - 1)
        if rest is None:
            raise ArithmeticError("square decomposition search exhausted")
        parts = [1] + rest
    else:
        parts = _three_squares(n)
        if parts is None:
            raise ArithmeticError("square decomposition search exhausted")
    return [p * scale for p in parts if p]


def rational_square_list(c: Fraction) -> list[Fraction]:
    """Nonnegative rational c as a sum of at most four rational squares."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("need a nonnegative rational")
    if c == 0:
        return []
    s = sqrt_fraction(c)
    if s is not None:
        return [s]
    ints = int_square_list(c.numerator * c.denominator)
    return [Fraction(v, c.denominator) for v in ints]
