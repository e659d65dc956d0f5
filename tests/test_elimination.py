"""Differential checks of elimination and root counting against sympy."""
import math
import random
from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import BiPoly, resultant_y
from soscurves.unipoly import UniPoly, isolate_real_roots, squarefree_part

sp = pytest.importorskip("sympy")

X, Y = sp.symbols("x y")
CASES = 20


def _rational(c: Fr):
    return sp.Rational(c.numerator, c.denominator)


def _sympy_bi(F: BiPoly):
    return sum((_rational(c) * X**i * Y**j for (i, j), c in F.terms.items()), sp.Integer(0))


def _sympy_uni(p: UniPoly):
    return sp.Poly([_rational(c) for c in reversed(p.coeffs)], X, domain="QQ")


def _from_sympy(p) -> UniPoly:
    return UniPoly(Fr(int(c.p), int(c.q)) for c in reversed(sp.Poly(p, X, domain="QQ").all_coeffs()))


def _random_bi(rng: random.Random, degree: int) -> BiPoly:
    terms = {(i, j): Fr(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(degree + 1) for j in range(degree + 1 - i)}
    terms[(0, degree)] = Fr(rng.choice([-2, -1, 1, 3]))
    return BiPoly(terms)


def _random_uni(rng: random.Random) -> UniPoly:
    """A product of small random factors, some of them repeated."""
    p = UniPoly.const(Fr(rng.randint(1, 5), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 4)):
        factor = UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.choice([1, 2])])
        p = p * factor ** rng.randint(1, 3)
    return p


@pytest.mark.parametrize("seed", range(CASES))
def test_resultant_y_matches_sympy(seed):
    rng = random.Random(seed)
    F, G = _random_bi(rng, rng.randint(1, 3)), _random_bi(rng, rng.randint(1, 3))
    m, n = F.deg_y, G.deg_y
    # Res(F, G) = (-1)^(mn) Res(G, F).  sympy is asked with the higher degree
    # first: with the lower one first, sympy 1.14's resultant drops that sign
    # (its own Sylvester determinant keeps it, and agrees with resultant_y).
    if m >= n:
        expected = sp.resultant(_sympy_bi(F), _sympy_bi(G), Y)
    else:
        expected = (-1) ** (m * n) * sp.resultant(_sympy_bi(G), _sympy_bi(F), Y)
    assert resultant_y(F, G) == _from_sympy(sp.expand(expected))


@pytest.mark.parametrize("seed", range(CASES))
def test_squarefree_part_matches_sympy(seed):
    p = _random_uni(random.Random(1000 + seed))
    expected = sp.sqf_part(_sympy_uni(p)).monic()
    assert squarefree_part(p) == _from_sympy(expected.as_expr())


@pytest.mark.parametrize("seed", range(CASES))
def test_real_root_count_matches_sympy(seed):
    p = _random_uni(random.Random(2000 + seed))
    assert len(isolate_real_roots(p)) == _sympy_uni(p).count_roots()


def _random_rational_rooted(rng: random.Random) -> UniPoly:
    """Rational roots with non-unit denominators under large non-monic leads,
    times a factor that may add irrational or no real roots."""
    p = UniPoly.const(Fr(rng.randint(1, 9), rng.randint(1, 9)))
    for _ in range(rng.randint(1, 3)):
        lead = rng.choice([1, 7, 12, 360, 1009, 99991])
        p = p * UniPoly([rng.randint(-2000, 2000), lead]) ** rng.randint(1, 2)
    other = UniPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 3))] + [rng.choice([3, 250, 4096])])
    return p * other


@pytest.mark.parametrize("seed", range(CASES))
def test_rational_roots_match_sympy(seed):
    p = _random_rational_rooted(random.Random(3000 + seed))
    _, factors = sp.factor_list(_sympy_uni(p).as_expr(), X)
    expected = set()
    for f, _ in factors:
        f = sp.Poly(f, X)
        if f.degree() == 1:
            c1, c0 = f.all_coeffs()
            root = -sp.Rational(c0) / sp.Rational(c1)
            expected.add(Fr(int(root.p), int(root.q)))
    found = {box.exact_value for box in isolate_real_roots(p) if box.exact_value is not None}
    assert found == expected


def _random_quadratic(rng: random.Random, square: bool) -> UniPoly:
    """a t^2 + b t + c with two real roots: rational ones, or a discriminant
    that is no square."""
    lead = rng.choice([1, 2, 9, 360, 1009])
    if square:
        r1 = Fr(rng.randint(-500, 500), rng.randint(1, 40))
        r2 = r1 + Fr(rng.randint(1, 500), rng.randint(1, 40))
        return UniPoly([r1 * r2, -(r1 + r2), 1]).scale(Fr(lead, rng.randint(1, 7)))
    while True:
        b, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        disc = b * b - 4 * lead * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            return UniPoly([Fr(c, 3), Fr(b, 3), Fr(lead, 3)])


@pytest.mark.parametrize("seed", range(CASES))
def test_quadratic_rational_roots_match_sympy(seed):
    rng = random.Random(4000 + seed)
    for square in (True, False, seed % 2 == 0):
        q = _random_quadratic(rng, square)
        expected = {Fr(int(r.p), int(r.q)) for r in sp.roots(_sympy_uni(q), filter="Q")}
        assert len(expected) == (2 if square else 0)
        boxes = isolate_real_roots(q)
        assert len(boxes) == 2
        assert {box.exact_value for box in boxes} - {None} == expected
        for box in boxes:
            if box.exact_value is not None:
                assert box.low < box.exact_value < box.high
