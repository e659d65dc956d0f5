"""Exact decompositions of nonnegative rationals into sums of rational squares."""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


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


def _two_squares(n: int) -> list[int] | None:
    """n = a**2 + b**2 with a >= b >= 0, by scanning the short admissible range."""
    if n == 0:
        return [0]
    s = exact_isqrt(n)
    if s is not None:
        return [s]
    a = isqrt(n)
    lo = isqrt(n // 2)
    while a * a * 2 >= n:
        r = exact_isqrt(n - a * a)
        if r is not None:
            return [a, r]
        a -= 1
        if a < lo:
            break
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
