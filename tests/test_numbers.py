import random
import struct
from fractions import Fraction as Fr

import pytest

from soscurves.numbers import (
    exact_isqrt,
    int_square_list,
    limit_denominators,
    rational_square_list,
    sqrt_fraction,
)


def test_exact_isqrt():
    assert exact_isqrt(49) == 7
    assert exact_isqrt(50) is None
    assert exact_isqrt(0) == 0
    assert exact_isqrt(-4) is None


def test_sqrt_fraction():
    assert sqrt_fraction(Fr(9, 4)) == Fr(3, 2)
    assert sqrt_fraction(Fr(2)) is None
    assert sqrt_fraction(Fr(0)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 28, 60, 112, 2023, 9999, 123456])
def test_int_square_list_reconstructs(n):
    parts = int_square_list(n)
    assert len(parts) <= 4
    assert sum(p * p for p in parts) == n
    assert all(p > 0 for p in parts)


def test_int_square_list_needs_four_sometimes():
    # numbers of the shape 4^a * (8b + 7) cannot be written with three squares
    parts = int_square_list(7)
    assert len(parts) == 4
    parts = int_square_list(28)
    assert sum(p * p for p in parts) == 28


def test_rational_square_list_random():
    rng = random.Random(5)
    for _ in range(60):
        q = Fr(rng.randint(0, 400), rng.randint(1, 40))
        parts = rational_square_list(q)
        assert len(parts) <= 4
        assert sum(p * p for p in parts) == q


def test_rational_square_list_rejects_negative():
    with pytest.raises(ValueError):
        rational_square_list(Fr(-1, 2))


# every rung the library rounds with, plus small odd, repeated and unsorted ones
LADDER = (1, 2, 3, 4, 5, 7, 8, 16, 64, 1024, 10**6, 10**9, 10**12, 4, 1)


def _ladder_floats(rng, count):
    xs = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**-1074 * 3, 1 / 3, -2 / 3]
    xs += [k + 0.5 for k in range(-6, 6)]  # halves: ties at d = 1
    xs += [float(k) for k in range(-5, 6)]  # integers
    xs += [k / 2**e for k in range(-9, 10, 2) for e in range(1, 11)]  # dyadics
    while len(xs) < count:
        kind = rng.randrange(4)
        if kind == 0:
            xs.append(rng.uniform(-10, 10))
        elif kind == 1:
            x = struct.unpack("d", struct.pack("Q", rng.getrandbits(64)))[0]
            if x == x and abs(x) != float("inf"):
                xs.append(x)
        elif kind == 2:
            xs.append(rng.gauss(0, 1) * 10.0 ** rng.randint(-12, 12))
        else:
            xs.append(rng.randint(-2000, 2000) / rng.choice([3, 6, 7, 9, 11, 1000, 1023]))
    return xs


def test_limit_denominators_matches_limit_denominator():
    rng = random.Random(97)
    for x in _ladder_floats(rng, 10_000):
        expected = [Fr(x).limit_denominator(d) for d in LADDER]
        assert limit_denominators(x, LADDER) == expected, x


def test_limit_denominators_takes_exact_numbers():
    q = Fr(355, 113)
    assert limit_denominators(q, (1, 7, 100, 113)) == [
        q.limit_denominator(d) for d in (1, 7, 100, 113)
    ]
    assert limit_denominators(3, (1, 2)) == [Fr(3), Fr(3)]
    assert limit_denominators(0.5, ()) == []
