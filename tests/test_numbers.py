import random
import struct
from fractions import Fraction as Fr
from math import isqrt

import pytest

from soscurves.numbers import (
    _two_squares,
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


def _seeded_ints(seed, top_bits, count):
    rng = random.Random(seed)
    return [rng.getrandbits(rng.randint(20, top_bits)) for _ in range(count)]


@pytest.mark.parametrize(
    "n", [1, 2, 3, 7, 15, 28, 60, 112, 2023, 9999, 123456, 2**48 - 1, 4**22 * 7]
    + _seeded_ints(11, 48, 24)
)
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
    for bits in [9] * 60 + [24] * 10 + [48] * 10:
        den = rng.randint(1, 1 << (bits // 2))
        q = Fr(rng.randint(0, 1 << (bits // 2)), den)
        parts = rational_square_list(q)
        assert len(parts) <= 4
        assert sum(p * p for p in parts) == q


def test_rational_square_list_rejects_negative():
    with pytest.raises(ValueError):
        rational_square_list(Fr(-1, 2))


def _plain_two_squares(n):
    """The reference: the first a, from isqrt(n) down while 2a^2 >= n, with n - a^2 square."""
    if n == 0:
        return [0]
    a = isqrt(n)
    if a * a == n:
        return [a]
    while 2 * a * a >= n:
        b = isqrt(n - a * a)
        if b * b == n - a * a:
            return [a, b]
        a -= 1
    return None


def _candidates(n):
    """Length of the scanned range: isqrt(n) down to the least a with 2a^2 >= n."""
    bot = isqrt(n // 2)
    if 2 * bot * bot < n:
        bot += 1
    return isqrt(n) - bot + 1


def test_two_squares_matches_plain_scan_on_small_and_seeded_n():
    rng = random.Random(16)
    ns = list(range(0, 3000)) + [k * k for k in (1, 2, 3, 4097, 2**18 + 3, 2**31 - 1)]
    ns += [rng.getrandbits(rng.randint(20, 36)) for _ in range(60)]
    ns += [a * a + b * b for a, b in ((rng.getrandbits(18), rng.getrandbits(18)) for _ in range(30))]
    for n in ns:
        assert _two_squares(n) == _plain_two_squares(n), n


@pytest.mark.parametrize("length", [4095, 4096, 4097, 8192, 8193])
def test_two_squares_matches_plain_scan_on_block_sized_ranges(length):
    # n spread over a window, each with exactly `length` candidates
    m = int(length / (1 - 0.5**0.5))
    ns = [n for n in range((m - 8) ** 2, (m + 8) ** 2, 37) if _candidates(n) == length]
    assert len(ns) > 20
    for n in ns[:: len(ns) // 12] + ns[-3:]:
        assert _two_squares(n) == _plain_two_squares(n), n


@pytest.mark.parametrize(
    "n, length, hit",
    [
        (195465992, 4095, 4094),  # last candidate of a range one short of a block
        (195584644, 4096, 4095),  # last candidate of exactly one block
        (782417682, 8193, 8192),  # a third block holding one candidate
        (580606721, 7057, 4095),  # last candidate of the first block
        (580660481, 7057, 4096),  # first candidate of the second block
        (580687364, 7058, 4097),
        (676331492, 7617, 6000),
    ],
)
def test_two_squares_first_hit_at_block_edges(n, length, hit):
    expected = _plain_two_squares(n)
    assert _candidates(n) == length and isqrt(n) - expected[0] == hit
    assert _two_squares(n) == expected


def test_two_squares_near_and_above_the_int64_screen():
    # each n has its first hit within a few candidates of isqrt(n)
    top = 2**31 - 1
    below = [top * top + 65535**2, top * top + 7**2, (top - 3) ** 2 + 131071**2]
    above = [2**62 + 5**2, 2**62 + 2**32 + 1, (2**32 - 5) ** 2 + 9**2, 2**80 + 2**38]
    assert max(below) < 2**62 <= min(above)
    for n in below + above:
        assert _two_squares(n) == _plain_two_squares(n), n


@pytest.mark.parametrize(
    "n, a, b",
    [
        (4033076998932296753, 1997470937, 207814472),
        (2903115510698567081, 1694144275, 181633384),
    ],
)
def test_two_squares_hit_beyond_float_precision(n, a, b):
    # n is a prime 1 mod 4, so a^2 + b^2 is its only representation and the
    # plain scan's first hit; b^2 > 2^54 is not a float, and the hit lies
    # millions of candidates below isqrt(n), too far for the plain reference
    assert n < 2**62 and b > 2**27 and a * a + b * b == n
    assert pow(3, n - 1, n) == 1
    assert _two_squares(n) == [a, b]


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
