import random
from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import (
    BiPoly,
    DegenerateInput,
    NotBinaryQuadratic,
    QuadraticSplitKind,
    have_common_factor,
    resultant_y,
    split_binary_quadratic,
)
from soscurves.intersect import _subresultant_ladder
from soscurves.polyparse import parse_bipoly as B
from soscurves.polyparse import parse_unipoly as P
from soscurves.unipoly import UniPoly, isolate_real_roots


UNIT_CIRCLE = B("x^2 + y^2 - 1")


def test_arithmetic_and_evaluation():
    F = B("x^2 - 2*x*y + y^2")
    assert F == B("(x - y)^2")
    assert F(Fr(3), Fr(1)) == 4
    assert F.partial_x() == B("2x - 2y")
    assert F.total_degree == 2 and F.deg_x == 2 and F.deg_y == 2


def test_translate_moves_point_to_origin():
    F = UNIT_CIRCLE
    moved = F.translate(1, 0)  # now passes through the origin
    assert moved(0, 0) == 0
    assert moved == B("x^2 + 2x + y^2")


def test_compose_linear_shear():
    F = UNIT_CIRCLE.compose_linear(1, -1, 0, 1)  # x -> x - y
    assert F == B("x^2 - 2*x*y + 2*y^2 - 1")


def test_homogeneous_parts():
    F = B("x^3 + x*y - 2*y + 5")
    assert F.leading_form() == B("x^3")
    assert F.homogeneous_part(1) == B("-2y")
    assert F.homogeneous_part(0) == B("5")


def test_specialize_and_substitute():
    F = UNIT_CIRCLE
    assert F.specialize_x(Fr(1, 2)) == P("t^2 - 3/4")
    # parametrize the circle rationally and check the pullback vanishes
    num_x = P("1 - t^2")
    num_y = P("2t")
    den = P("1 + t^2")
    pulled = F.compose_rational(num_x, num_y, den)
    assert pulled.is_zero()


def test_resultant_frozen_circle_pairs():
    far = B("(x - 3)^2 + y^2 - 1")
    assert resultant_y(UNIT_CIRCLE, far) == P("36t^2 - 108t + 81")
    near = B("(x - 1)^2 + y^2 - 1")
    assert resultant_y(UNIT_CIRCLE, near) == P("4t^2 - 4t + 1")


def test_resultant_line_circle():
    assert resultant_y(UNIT_CIRCLE, B("x - y")) == P("2t^2 - 1")
    assert resultant_y(UNIT_CIRCLE, B("y - x^2 - 1")) == P("t^4 + 3t^2")


def test_resultant_vanishes_iff_common_component():
    F = UNIT_CIRCLE * B("x - y")
    assert resultant_y(F, B("x - y")).is_zero()
    assert have_common_factor(F, B("x - y"))
    assert not have_common_factor(UNIT_CIRCLE, B("(x-3)^2 + y^2 - 1"))


def test_common_factor_through_contents():
    # shared vertical line lives in the y-content of both inputs
    F = B("x - 2") * B("y - 1")
    G = B("x - 2") * UNIT_CIRCLE
    assert have_common_factor(F, G)


def test_resultant_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        resultant_y(B("x^2 - 1"), UNIT_CIRCLE)


def test_resultant_vs_root_elimination():
    # parabola against horizontal lines: eliminating y must leave exactly the
    # x-values where the curves meet, i.e. the roots of F(x, b)
    rng = random.Random(11)
    from soscurves.unipoly import boxes_equal

    for _ in range(10):
        a, b = Fr(rng.randint(-3, 3)), Fr(rng.randint(-3, 3))
        F = B("y - x^2").translate(a, 0)
        G = B("y") - BiPoly.const(b)
        R = resultant_y(F, G)
        got = isolate_real_roots(R)
        expected = isolate_real_roots(F.specialize_y(b))
        assert len(got) == len(expected)
        for u, v in zip(got, expected):
            assert boxes_equal(u, v)


def test_subresultant_chain_line_circle():
    sheared_circle = UNIT_CIRCLE.compose_linear(1, -1, 0, 1)
    sheared_line = B("x - y").compose_linear(1, -1, 0, 1)
    s0, s1 = _subresultant_ladder(sheared_circle, sheared_line)[0]
    # single intersection root over u0: y = -s0/s1 evaluated there
    assert s1 == P("-2") and s0 == P("t")


def test_split_binary_quadratics():
    out = split_binary_quadratic(B("x^2 + y^2"))
    assert out.kind is QuadraticSplitKind.IRREDUCIBLE_OVER_REALS

    out = split_binary_quadratic(B("x^2 - y^2"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors == (B("x - y"), B("x + y"))

    out = split_binary_quadratic(B("x^2 - 2*y^2"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors is None  # real but irrational slopes

    out = split_binary_quadratic(B("x^2 + 2*x*y + y^2"))
    assert out.kind is QuadraticSplitKind.PERFECT_SQUARE
    assert out.repeated_factor == B("x + y")

    out = split_binary_quadratic(B("x*y"))
    assert out.kind is QuadraticSplitKind.TWO_DISTINCT_REAL
    assert out.factors == (B("y"), B("x"))

    assert split_binary_quadratic(BiPoly.zero()).kind is QuadraticSplitKind.ZERO

    with pytest.raises(NotBinaryQuadratic):
        split_binary_quadratic(B("x^2 + y"))


def test_monomial_content():
    F = B("x^2*y + x*y^2")
    assert F.monomial_content() == (1, 1)
    assert F.shift_down(1, 1) == B("x + y")


# -- integer core against a Fraction reference --------------------------------
#
# The reference is a plain {(i, j): Fraction} dict with no zero values, and
# univariate results are Fraction coefficient lists with no trailing zeros.
# BiPoly must return the same rational polynomials and values.


def _clean(d):
    return {k: Fr(c) for k, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return _clean(out)


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return _clean(out)


def ref_pow(a, n):
    out = {(0, 0): Fr(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_scale(a, c):
    return _clean({k: v * c for k, v in a.items()})


def ref_call(a, x, y):
    return sum((c * x**i * y**j for (i, j), c in a.items()), Fr(0))


def ref_linear_compose(a, fx, fy):
    """a(fx, fy) for bivariate dicts fx, fy."""
    out = {}
    for (i, j), c in a.items():
        out = ref_add(out, ref_scale(ref_mul(ref_pow(fx, i), ref_pow(fy, j)), c))
    return out


def ul_trim(cs):
    cs = [Fr(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ul_add(a, b):
    n = max(len(a), len(b))
    return ul_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def ul_mul(a, b):
    out = [Fr(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ul_trim(out)


def ul_pow(a, n):
    out = [Fr(1)]
    for _ in range(n):
        out = ul_mul(out, a)
    return out


def ref_univariate(a, fx, fy, fz=None, d=0):
    """sum c fx^i fy^j (fz^(d-i-j) when fz is given) on coefficient lists."""
    out = []
    for (i, j), c in a.items():
        term = ul_mul(ul_pow(fx, i), ul_pow(fy, j))
        if fz is not None:
            term = ul_mul(term, ul_pow(fz, d - i - j))
        out = ul_add(out, [c * v for v in term])
    return out


def _rational(rng):
    """Mixed denominators: units, small, and up to 10**6; sometimes zero."""
    r = rng.random()
    if r < 0.1:
        return Fr(0)
    if r < 0.3:
        return Fr(rng.randint(-9, 9))
    if r < 0.7:
        return Fr(rng.randint(-20, 20), rng.choice([2, 3, 4, 6, 7, 12]))
    return Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _random_terms(rng, max_deg=4, max_terms=7):
    if rng.random() < 0.05:
        return {}
    return {
        (rng.randint(0, max_deg), rng.randint(0, max_deg)): _rational(rng)
        for _ in range(rng.randint(1, max_terms))
    }


def _uni(rng, degree):
    return UniPoly([_rational(rng) for _ in range(degree + 1)])


def test_operations_match_fraction_reference():
    rng = random.Random(1507)
    for _ in range(120):
        a, b = _random_terms(rng), _random_terms(rng)
        ra, rb = _clean(a), _clean(b)
        A, Bp = BiPoly(a), BiPoly(b)
        assert A.terms == ra and all(type(c) is Fr for c in A.terms.values())
        assert (A + Bp).terms == ref_add(ra, rb)
        assert (A - Bp).terms == ref_add(ra, ref_scale(rb, -1))
        assert (-A).terms == ref_scale(ra, -1)
        assert (A * Bp).terms == ref_mul(ra, rb)
        c = _rational(rng)
        assert A.scale(c).terms == ref_scale(ra, c)
        k = rng.randint(-5, 5)
        assert A.scale(k).terms == ref_scale(ra, k)
        n = rng.randint(0, 3)
        assert (A**n).terms == ref_pow(ra, n)
        assert A.partial_x().terms == _clean({(i - 1, j): c * i for (i, j), c in ra.items() if i})
        assert A.partial_y().terms == _clean({(i, j - 1): c * j for (i, j), c in ra.items() if j})
        d = rng.randint(0, 6)
        assert A.homogeneous_part(d).terms == {k: c for k, c in ra.items() if sum(k) == d}
        assert A.swap_vars().terms == {(j, i): c for (i, j), c in ra.items()}
        if ra:
            i0, j0 = A.monomial_content()
            assert (i0, j0) == (min(i for i, _ in ra), min(j for _, j in ra))
            assert A.shift_down(i0, j0).terms == {(i - i0, j - j0): c for (i, j), c in ra.items()}
            assert (A.total_degree, A.deg_x, A.deg_y) == (
                max(i + j for i, j in ra), max(i for i, _ in ra), max(j for _, j in ra)
            )
        for x, y in ((Fr(3, 7), Fr(-5, 2)), (Fr(0), Fr(1)), (_rational(rng), _rational(rng)), (2, -3)):
            assert A(x, y) == ref_call(ra, Fr(x), Fr(y)) and type(A(x, y)) is Fr
        x0, y0 = _rational(rng), _rational(rng)
        shifted = ref_linear_compose(ra, {(1, 0): Fr(1), (0, 0): x0}, {(0, 1): Fr(1), (0, 0): y0})
        assert A.translate(x0, y0).terms == shifted
        p, q, r, s = (_rational(rng) for _ in range(4))
        composed = ref_linear_compose(ra, _clean({(1, 0): p, (0, 1): q}), _clean({(1, 0): r, (0, 1): s}))
        assert A.compose_linear(p, q, r, s).terms == composed


def test_conversions_match_fraction_reference():
    rng = random.Random(1508)
    for _ in range(120):
        a = _random_terms(rng)
        ra = _clean(a)
        A = BiPoly(a)
        rows = [] if not ra else [[Fr(0)] * 5 for _ in range(max(j for _, j in ra) + 1)]
        for (i, j), c in ra.items():
            rows[j][i] = c
        assert [list(p.coeffs) for p in A.as_y_polynomial()] == [ul_trim(row) for row in rows]
        for t in (Fr(3, 7), Fr(-1), Fr(0), _rational(rng)):
            by_x = [sum((c * t**i for (i, j), c in ra.items() if j == k), Fr(0)) for k in range(5)]
            by_y = [sum((c * t**j for (i, j), c in ra.items() if i == k), Fr(0)) for k in range(5)]
            assert list(A.specialize_x(t).coeffs) == ul_trim(by_x)
            assert list(A.specialize_y(t).coeffs) == ul_trim(by_y)
        X, Y, Z = (_uni(rng, rng.randint(0, 3)) for _ in range(3))
        xs, ys, zs = (list(P.coeffs) for P in (X, Y, Z))
        assert list(A.substitute(X, Y).coeffs) == ref_univariate(ra, xs, ys)
        d = max((i + j for i, j in ra), default=-1)
        assert list(A.compose_rational(X, Y, Z).coeffs) == ref_univariate(ra, xs, ys, zs, d)
        U = _uni(rng, rng.randint(0, 5))
        assert BiPoly.from_unipoly_in_x(U).terms == _clean({(i, 0): c for i, c in enumerate(U.coeffs)})
    # edges of the Horner passes: total degree up to 8, y-rows left empty, a
    # zero argument or linear form, and a constant C other than 1
    zero = UniPoly.zero()
    for _ in range(60):
        a = {}
        for _ in range(rng.randint(1, 9)):
            j = rng.choice((0, 1, 3, 6))
            a[(rng.randint(0, 8 - j), j)] = _rational(rng)
        ra = _clean(a)
        A = BiPoly(a)
        d = max((i + j for i, j in ra), default=-1)
        X, Y = (_uni(rng, rng.randint(0, 2)) for _ in range(2))
        Z = UniPoly.const(rng.choice((Fr(-2), Fr(3, 5), Fr(7))))
        for P, Q in ((X, Y), (zero, Y), (X, zero), (zero, zero)):
            ps, qs, zs = list(P.coeffs), list(Q.coeffs), list(Z.coeffs)
            assert list(A.substitute(P, Q).coeffs) == ref_univariate(ra, ps, qs)
            assert list(A.compose_rational(P, Q, Z).coeffs) == ref_univariate(ra, ps, qs, zs, d)
        p, q, r, s = (_rational(rng) for _ in range(4))
        for form in ((p, q, r, s), (0, 0, r, s), (p, q, 0, 0), (p, 0, 0, s)):
            fx, fy = _clean({(1, 0): form[0], (0, 1): form[1]}), _clean({(1, 0): form[2], (0, 1): form[3]})
            assert A.compose_linear(*form).terms == ref_linear_compose(ra, fx, fy)


def test_canonical_form():
    half = BiPoly({(1, 0): Fr(2, 4)})
    assert half == BiPoly({(1, 0): Fr(1, 2)}) and hash(half) == hash(BiPoly({(1, 0): Fr(1, 2)}))
    assert (half._num, half._den) == ({(1, 0): 1}, 2)
    assert BiPoly({(0, 0): 0, (2, 1): Fr(0)}) == BiPoly.zero()
    assert (BiPoly.zero()._num, BiPoly.zero()._den) == ({}, 1)
    assert ((half - half)._num, (half - half)._den) == ({}, 1)
    # 3/4 x + 1/2 y over 4, and its double over 2: the gcd is taken out
    F = BiPoly({(1, 0): Fr(3, 4), (0, 1): Fr(1, 2)})
    assert (F._num, F._den) == ({(1, 0): 3, (0, 1): 2}, 4)
    assert (F.scale(2)._num, F.scale(2)._den) == ({(1, 0): 3, (0, 1): 2}, 2)
    assert F.scale(Fr(4, 3)) == BiPoly({(1, 0): 1, (0, 1): Fr(2, 3)})
    assert F.terms == {(1, 0): Fr(3, 4), (0, 1): Fr(1, 2)}
    assert all(type(c) is Fr for c in F.terms.values())
    assert type(F.coeff(1, 0)) is Fr and F.coeff(1, 0) == Fr(3, 4)
    assert type(F.coeff(5, 5)) is Fr and F.coeff(5, 5) == 0
    # .terms is a copy, so the polynomial cannot be changed through it
    F.terms[(1, 0)] = Fr(9)
    assert F.coeff(1, 0) == Fr(3, 4)
    with pytest.raises(AttributeError):
        F.terms = {}
    assert BiPoly({(1, 1): 2}) != BiPoly({(1, 1): Fr(1, 2)})
    assert BiPoly({(1, 0): 1}) != BiPoly({(1, 0): Fr(1, 2)})  # equal numerators
    assert hash(BiPoly({(0, 0): Fr(6, 3)})) == hash(BiPoly.const(2))


def test_pow_matches_repeated_products_with_fewest_squarings(monkeypatch):
    p = BiPoly({(2, 0): Fr(1, 3), (1, 1): Fr(-2), (0, 0): Fr(5, 7)})
    mul = BiPoly.__mul__
    expected = BiPoly.const(1)
    for n in range(10):
        calls = []
        monkeypatch.setattr(BiPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        got = p**n
        monkeypatch.setattr(BiPoly, "__mul__", mul)
        assert got == expected
        # square per bit below the top one, multiply per set bit below the top one
        assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)
        expected = expected * p
    with pytest.raises(ValueError):
        p**-1


# -- fraction-free Sylvester determinants against the UniPoly Bareiss ----------


def ref_det_bareiss(mat):
    """Bareiss elimination with one exact `UniPoly` division per entry update."""
    n = len(mat)
    if n == 0:
        return UniPoly.one()
    m = [row[:] for row in mat]
    sign = 1
    prev = UniPoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return UniPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = UniPoly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1].scale(-1) if sign < 0 else m[n - 1][n - 1]


def _random_entry(rng, zero_share):
    if rng.random() < zero_share:
        return UniPoly.zero()
    return UniPoly([Fr(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) for _ in range(rng.randint(1, 4))])


def test_det_bareiss_matches_unipoly_elimination():
    from soscurves.bipoly import _det_bareiss

    rng = random.Random(2040)
    for k in range(400):
        n = rng.randint(0, 7)
        # dense, sparse (zero pivots and row swaps), and upper-left zero blocks
        mat = [[_random_entry(rng, (0.0, 0.5, 0.8)[k % 3]) for _ in range(n)] for _ in range(n)]
        if n >= 2 and k % 5 == 0:
            mat[rng.randrange(n)] = list(mat[rng.randrange(n)])  # a repeated row: det 0
        if n >= 3 and k % 7 == 0:
            for i in range(n - 1):
                mat[i][0] = UniPoly.zero()  # the first pivot comes from the last row
        assert _det_bareiss(mat) == ref_det_bareiss(mat)
    # a zero column stops the elimination early
    z = UniPoly.zero()
    assert _det_bareiss([[z, P("t")], [z, P("1/2")]]).is_zero()


def test_resultants_match_the_unipoly_bareiss(monkeypatch):
    from soscurves import bipoly

    rng = random.Random(2041)
    pairs = []
    for _ in range(30):
        F = B(f"y^2 + ({rng.randint(-3, 3)}/{rng.randint(1, 4)})*x*y + x^2 - {rng.randint(1, 5)}")
        G = B(f"y^{rng.randint(1, 3)} - ({rng.randint(-4, 4)}/{rng.randint(1, 3)})*x^{rng.randint(1, 3)} + {rng.randint(-2, 2)}")
        pairs.append((F, G))
    got = [resultant_y(F, G) for F, G in pairs]
    monkeypatch.setattr(bipoly, "_det_bareiss", ref_det_bareiss)
    assert got == [resultant_y(F, G) for F, G in pairs]
