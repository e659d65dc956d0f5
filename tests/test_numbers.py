import random
from fractions import Fraction as Fr

import pytest

from soscurves.numbers import (
    exact_isqrt,
    int_square_list,
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
