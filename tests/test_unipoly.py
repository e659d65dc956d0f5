import math
import random
from fractions import Fraction as Fr

import pytest

from soscurves.unipoly import (
    EndpointIsRoot,
    NotSquarefree,
    RootBox,
    UniPoly,
    ZeroPolynomial,
    _isolate_squarefree,
    _rational_root_in,
    box_compare,
    box_sign,
    boxes_equal,
    cauchy_bound,
    count_real_roots,
    gcd,
    isolate_real_roots,
    sturm_chain,
    sturm_count,
    squarefree_part,
    yun_decomposition,
)
from soscurves.polyparse import parse_unipoly as P


def test_basic_arithmetic():
    p = P("t^2 - 1")
    q = P("t + 1")
    assert p % q == UniPoly.zero()
    assert p.exact_div(q) == P("t - 1")
    assert (p * q).degree == 3
    assert p(Fr(3)) == 8
    assert p.derivative() == P("2t")


def test_divmod_matches_reconstruction():
    rng = random.Random(7)
    for _ in range(40):
        a = UniPoly([Fr(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        b = UniPoly([Fr(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_is_monic_common_divisor():
    a = P("t^2 - 1") * P("t - 3")
    b = P("t^2 - 1") * P("t + 5")
    g = gcd(a, b)
    assert g == P("t^2 - 1")
    assert (a % g).is_zero() and (b % g).is_zero()


def test_yun_splits_multiplicities():
    p = P("t - 1") * P("t - 1") * P("t + 2")
    parts = yun_decomposition(p)
    assert parts == [(P("t + 2").monic(), 1), (P("t - 1").monic(), 2)] or parts == [
        (P("t + 2"), 1),
        (P("t - 1"), 2),
    ]
    rebuilt = UniPoly.one()
    for q, m in parts:
        rebuilt = rebuilt * q**m
    assert rebuilt == p.monic()


def test_sturm_counts_frozen():
    cubic = P("t^3 - t")
    assert sturm_count(cubic, Fr(-2), Fr(2)) == 3
    assert sturm_count(cubic, Fr(-1, 2), Fr(2)) == 2
    assert sturm_count(P("t^4 + 4"), Fr(-10), Fr(10)) == 0


def test_sturm_rejects_bad_inputs():
    with pytest.raises(EndpointIsRoot):
        sturm_count(P("t^3 - t"), Fr(0), Fr(2))
    with pytest.raises(NotSquarefree):
        sturm_count(P("t^2 - 2t + 1"), Fr(-1), Fr(2))


def test_sturm_chain_endpoints():
    chain = sturm_chain(P("t^3 - t"))
    assert chain[0] == P("t^3 - t")
    assert chain[-1].degree == 0


def test_isolation_separates_and_identifies_rational_roots():
    p = P("t^3 - t")  # roots -1, 0, 1
    boxes = isolate_real_roots(p)
    assert [b.exact_value for b in boxes] == [Fr(-1), Fr(0), Fr(1)]
    assert all(b.multiplicity == 1 for b in boxes)


def test_isolation_double_root():
    boxes = isolate_real_roots(P("4t^2 - 4t + 1"))
    assert len(boxes) == 1
    assert boxes[0].exact_value == Fr(1, 2)
    assert boxes[0].multiplicity == 2


def test_isolation_irrational_roots_disjoint():
    boxes = isolate_real_roots(P("t^2 - 2"))
    assert len(boxes) == 2
    neg, pos = boxes
    assert neg.high <= pos.low
    assert neg.exact_value is None and pos.exact_value is None
    tight = pos.refined(30)
    assert tight.low ** 2 <= 2 <= tight.high ** 2
    assert tight.width() < Fr(1, 10**6)


def test_isolation_mixed_multiplicities():
    p = P("t - 2") ** 3 * P("t^2 - 3")
    boxes = isolate_real_roots(p)
    assert len(boxes) == 3
    mults = sorted(b.multiplicity for b in boxes)
    assert mults == [1, 1, 3]
    rational = [b for b in boxes if b.exact_value is not None]
    assert rational and rational[0].exact_value == Fr(2)


def test_count_real_roots_random_products():
    rng = random.Random(31)
    for _ in range(25):
        roots = sorted(set(Fr(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))))
        p = UniPoly.one()
        for r in roots:
            p = p * UniPoly.linear_root(r)
        # multiply in a positive-definite factor; the real count must not change
        p = p * P("t^2 + 1")
        assert count_real_roots(p) == len(roots)
        found = isolate_real_roots(p)
        assert [b.exact_value for b in found] == roots


def test_count_real_roots_matches_isolation():
    rng = random.Random(41)
    irreducible = [P("t^2 - 2"), P("t^2 + 1"), P("t^2 + t + 1"), P("t^3 - 3*t + 1"), P("t^4 + 1")]
    for _ in range(150):
        p = UniPoly.const(Fr(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                f = UniPoly.linear_root(Fr(rng.randint(-5, 5), rng.randint(1, 3)))
            else:
                f = rng.choice(irreducible)
            p = p * f ** rng.randint(1, 3)  # repeated roots a good share of the time
        assert count_real_roots(p) == len(isolate_real_roots(p)), p
    for _ in range(60):
        cs = _random_coeffs(rng, rng.randint(0, 6))
        p = UniPoly(cs)
        assert count_real_roots(p) == len(isolate_real_roots(p)), p
    for c in (Fr(5), Fr(-1, 3)):
        assert count_real_roots(UniPoly.const(c)) == 0
    with pytest.raises(ZeroPolynomial):
        count_real_roots(UniPoly.zero())


def test_lincomb_matches_repeated_scale_and_add():
    rng = random.Random(43)
    for _ in range(150):
        polys = [UniPoly(_random_coeffs(rng)) for _ in range(rng.randint(0, 5))]
        coeffs = [
            rng.choice([0, 1, -2, Fr(0), Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))])
            for _ in polys
        ]
        ref = UniPoly.zero()
        for c, p in zip(coeffs, polys):
            ref = ref + p.scale(c)
        out = UniPoly.lincomb(coeffs, polys)
        assert out == ref
        assert list(out.coeffs) == list(ref.coeffs)
    p = P("t^2 - 3*t + 1/2")
    assert UniPoly.lincomb((1, -1), (p, p)).is_zero()


def test_box_sign_at_algebraic_point():
    pos = [b for b in isolate_real_roots(P("t^2 - 2")) if b.low >= 0][0]
    assert box_sign(P("t^2 - 2"), pos) == 0
    assert box_sign(P("t - 3"), pos) == -1
    assert box_sign(P("t - 1"), pos) == 1
    assert box_sign(P("t^2 - 2") * P("t - 9"), pos) == 0


def test_boxes_equal_across_defining_polynomials():
    a = [b for b in isolate_real_roots(P("t^2 - 2")) if b.low >= 0][0]
    b = [c for c in isolate_real_roots(P("t^4 - t^2 - 2")) if c.as_float() > 0][0]
    assert boxes_equal(a, b)
    half = [c for c in isolate_real_roots(P("2t^2 - 1")) if c.low >= 0][0]
    assert not boxes_equal(a, half)
    c = Fr(3, 2)
    rational = RootBox(c - 1, c + 1, 1, c, UniPoly.linear_root(c))
    assert boxes_equal(rational, RootBox(c - 1, c + 1, 1, c, UniPoly.linear_root(c)))
    assert not boxes_equal(rational, a)


def test_box_compare_orders_mixed_values():
    sqrt2 = [b for b in isolate_real_roots(P("t^2 - 2")) if b.low >= 0][0]
    one = RootBox(Fr(0), Fr(2), 1, Fr(1), UniPoly.linear_root(1))
    two = RootBox(Fr(1), Fr(3), 1, Fr(2), UniPoly.linear_root(2))
    assert box_compare(one, sqrt2) < 0
    assert box_compare(two, sqrt2) > 0
    assert box_compare(sqrt2, sqrt2) == 0


def test_cauchy_bound_contains_roots():
    p = P("t^3 - 10t + 1")
    bound = cauchy_bound(p)
    for box in isolate_real_roots(p):
        assert -bound <= box.low and box.high <= bound


def test_refined_boxes_keep_their_root():
    (box,) = isolate_real_roots(P("t^3 - 2"))
    tight = box.refined(30)
    assert tight.width() <= box.width() / 2**30
    assert tight.low ** 3 <= 2 <= tight.high ** 3


# -- integer core against a Fraction reference --------------------------------
#
# The reference below is plain Euclid over fractions.Fraction on coefficient
# lists (index i holds the coefficient of t**i, no trailing zeros).  UniPoly
# must return the same rational objects: same quotients, remainders, monic
# gcds, Sturm chains and values.


def _trim(cs):
    cs = [Fr(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fr(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_divmod(a, b):
    rem, dn = list(a), len(b) - 1
    q = [Fr(0)] * max(0, len(a) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        f = rem[i] / b[-1]
        q[i - dn] = f
        for j, c in enumerate(b):
            rem[i - dn + j] -= f * c
    return _trim(q), _trim(rem[:dn])


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_derivative(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def ref_primitive_integer(a):
    if not a:
        return [], Fr(1)
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [Fr(v, g) for v in ints], Fr(g, den)


def ref_eval(a, t):
    acc = Fr(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def ref_sturm_chain(p):
    chain = [p]
    d = ref_derivative(p)
    if not d:
        return chain
    chain.append(d)
    while True:
        r = ref_divmod(chain[-2], chain[-1])[1]
        if not r:
            return chain
        prim, c = ref_primitive_integer(r)
        chain.append([-v for v in prim] if c > 0 else prim)


def ref_box_sign(g, lo, hi):
    """Sign of g on [lo, hi] by Fraction interval Horner, or None if 0 is enclosed."""
    alo = ahi = Fr(0)
    for c in reversed(g):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return 1 if alo > 0 else -1 if ahi < 0 else None


def _sgn(v):
    return (v > 0) - (v < 0)


def _random_coeffs(rng, degree=None):
    """Coefficients of degree 0-12 with denominators up to 10**6; sometimes zero."""
    if degree is None:
        if rng.random() < 0.05:
            return []
        degree = rng.randint(0, 12)
    big = rng.random() < 0.5
    cs = []
    for _ in range(degree + 1):
        if rng.random() < 0.2:
            cs.append(Fr(0))
        elif big:
            cs.append(Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
        else:
            cs.append(Fr(rng.randint(-9, 9), rng.randint(1, 4)))
    while cs[-1] == 0:
        cs[-1] = Fr(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
    return cs


def _points(rng):
    return [Fr(0), Fr(1), Fr(-1)] + [Fr(rng.randint(-10**4, 10**4), rng.randint(1, 10**4)) for _ in range(4)]


def test_ring_operations_match_fraction_reference():
    rng = random.Random(2024)
    for _ in range(150):
        a, b = _random_coeffs(rng), _random_coeffs(rng)
        pa, pb = UniPoly(a), UniPoly(b)
        assert list(pa.coeffs) == _trim(a)
        assert all(type(c) is Fr for c in pa.coeffs)
        assert list((pa + pb).coeffs) == ref_add(a, b)
        assert list((pa - pb).coeffs) == ref_add(a, [-c for c in b])
        assert list((-pa).coeffs) == _trim([-c for c in a])
        assert list((pa * pb).coeffs) == ref_mul(a, b)
        c = Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert list(pa.scale(c).coeffs) == _trim([c * v for v in a])
        assert list(pa.monic().coeffs) == ref_monic(_trim(a))
        assert list(pa.derivative().coeffs) == ref_derivative(_trim(a))
        prim, content = pa.primitive_integer()
        ref_prim, ref_content = ref_primitive_integer(_trim(a))
        assert (list(prim.coeffs), content) == (ref_prim, ref_content)
        for t in _points(rng):
            assert pa(t) == ref_eval(a, t)
            assert type(pa(t)) is Fr


def test_divmod_matches_fraction_reference():
    rng = random.Random(2025)
    for _ in range(150):
        a = _random_coeffs(rng)
        b = _random_coeffs(rng, rng.randint(0, 8))
        q, r = UniPoly(a).divmod(UniPoly(b))
        ref_q, ref_r = ref_divmod(_trim(a), b)
        assert (list(q.coeffs), list(r.coeffs)) == (ref_q, ref_r)
        assert q * UniPoly(b) + r == UniPoly(a)
        assert r.is_zero() or r.degree < len(b) - 1


def _gcd_pairs(rng, count):
    """Random pairs, half of them with a planted common factor."""
    for k in range(count):
        a, b = _random_coeffs(rng, rng.randint(0, 7)), _random_coeffs(rng, rng.randint(0, 7))
        if k % 2:
            common = _random_coeffs(rng, rng.randint(1, 5))
            a, b = ref_mul(a, common), ref_mul(b, common)
        yield a, b


def test_gcd_matches_fraction_reference():
    rng = random.Random(2026)
    for a, b in _gcd_pairs(rng, 80):
        assert list(gcd(UniPoly(a), UniPoly(b)).coeffs) == ref_gcd(a, b)
    assert gcd(UniPoly.zero(), UniPoly.zero()).is_zero()
    assert gcd(UniPoly.zero(), P("2t - 4")) == P("t - 2")
    assert gcd(P("-3t + 1"), UniPoly.zero()) == P("t - 1/3")


def test_gcd_matches_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    rng = random.Random(2027)
    for a, b in _gcd_pairs(rng, 30):
        if not a or not b:
            continue
        sa = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(a)], x, domain="QQ")
        sb = sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(b)], x, domain="QQ")
        expected = [Fr(int(c.p), int(c.q)) for c in reversed(sa.gcd(sb).monic().all_coeffs())]
        assert list(gcd(UniPoly(a), UniPoly(b)).coeffs) == expected


def test_sturm_chain_matches_fraction_reference():
    rng = random.Random(2028)
    for _ in range(60):
        p = _random_coeffs(rng, rng.randint(0, 10))
        chain = sturm_chain(UniPoly(p))
        assert [list(q.coeffs) for q in chain] == ref_sturm_chain(p)


def test_sign_at_is_the_sign_of_the_value():
    rng = random.Random(2029)
    for _ in range(100):
        a = _random_coeffs(rng)
        pa = UniPoly(a)
        for t in _points(rng) + [rng.randint(-50, 50)]:
            assert pa.sign_at(t) == _sgn(pa(t))
    # exact roots give sign 0
    assert P("4t^2 - 4t + 1").sign_at(Fr(1, 2)) == 0
    assert UniPoly.zero().sign_at(Fr(3, 7)) == 0


def test_box_sign_matches_fraction_reference():
    rng = random.Random(2030)
    # an exact rational root
    (half,) = [b for b in isolate_real_roots(P("2t - 1") * P("t^2 + 1"))]
    for _ in range(40):
        g = _random_coeffs(rng)
        assert box_sign(UniPoly(g), half) == _sgn(ref_eval(g, Fr(1, 2)))
    # boxed irrational roots
    for k in (3, 4, 5, 7):
        for box in isolate_real_roots(P(f"t^3 - {k}t + 1")):
            assert box.exact_value is None
            assert box_sign(P(f"t^3 - {k}t + 1") * UniPoly(_random_coeffs(rng, 2)), box) == 0
            for _ in range(10):
                g = _random_coeffs(rng, rng.randint(1, 6))
                if len(ref_gcd(g, box.poly.coeffs)) > 1:
                    continue
                b, expected = box, None
                while expected is None:
                    expected = ref_box_sign(g, b.low, b.high)
                    b = b.refined()
                assert box_sign(UniPoly(g), box) == expected


def test_canonical_form():
    a = UniPoly([Fr(1, 2), 1])
    b = UniPoly([Fr(2, 4), Fr(3, 3)])
    assert a == b and hash(a) == hash(b)
    assert a.coeffs == (Fr(1, 2), Fr(1)) and all(type(c) is Fr for c in a.coeffs)
    assert UniPoly([0, 0]) == UniPoly.zero() and UniPoly([0, 0]).coeffs == ()
    assert hash(UniPoly([Fr(0)])) == hash(UniPoly.zero())
    assert UniPoly([3, Fr(6, 4)]) == UniPoly([Fr(6), 3]).scale(Fr(1, 2))
    assert UniPoly([1, -1]) != UniPoly([1, 1])
    assert UniPoly((1, 2)).coeff(5) == 0 and UniPoly((1, 2)).leading() == 2


def ref_rational_root_in(q, lo, hi, a):
    """The Fraction bisection: halve [lo, hi] below width 1/a, then test k/a."""
    slo = _sgn(ref_eval(list(q.coeffs), lo))
    while a * (hi - lo) >= 1:
        mid = (lo + hi) / 2
        sm = _sgn(ref_eval(list(q.coeffs), mid))
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    v = Fr(math.floor(a * lo) + 1, a)
    return v if v < hi and ref_eval(list(q.coeffs), v) == 0 else None


def _root_in(q, lo, hi):
    box = RootBox(Fr(lo), Fr(hi), 1, None, q)
    return _rational_root_in(q, box, q.primitive_integer()[0].leading().numerator)


def test_rational_root_in_midpoint_and_mixed_denominators():
    # a midpoint is the root: 1/2 at the first step, 3/8 at the third
    assert _root_in(P("2t - 1"), 0, 1) == Fr(1, 2)
    assert _root_in(P("8t - 3"), 0, 1) == Fr(3, 8)
    # endpoint denominators 3 and 7 (common 21), and 3 and 4 (common 12)
    assert _root_in(P("2t - 1"), Fr(1, 3), Fr(5, 7)) == Fr(1, 2)
    assert _root_in(P("5t - 2"), Fr(-1, 3), Fr(3, 4)) == Fr(2, 5)
    # a negative box: k = floor(a * low) + 1 rounds towards minus infinity
    assert _root_in(P("3t + 2"), -1, Fr(-1, 2)) == Fr(-2, 3)
    assert _root_in(P("7t + 3") * P("t^2 + 1"), Fr(-5, 6), Fr(-1, 9)) == Fr(-3, 7)
    # irrational roots give None
    assert _root_in(P("t^2 - 2"), 1, Fr(3, 2)) is None
    assert _root_in(P("3t^2 - 2"), Fr(1, 2), Fr(6, 7)) is None


def test_rational_root_in_matches_fraction_reference():
    rng = random.Random(2031)
    for _ in range(60):
        q = UniPoly.one()
        for _ in range(rng.randint(1, 3)):
            q = q * UniPoly([rng.randint(-30, 30), rng.randint(1, 12)])
        q = q * P(f"t^2 - {rng.choice([2, 3, 5, 7])}")
        q = squarefree_part(q)
        lead = q.primitive_integer()[0].leading().numerator
        for box in _isolate_squarefree(q):
            for _ in range(rng.randint(0, 3)):
                box = box.refined()
            assert box.exact_value is not None or _rational_root_in(q, box, lead) == ref_rational_root_in(
                q, box.low, box.high, lead
            )


def test_boxes_equal_builds_one_sturm_chain(monkeypatch):
    import soscurves.unipoly as up

    built = []
    chain = up.sturm_chain
    monkeypatch.setattr(up, "sturm_chain", lambda p: built.append(p) or chain(p))
    a = isolate_real_roots(P("t^3 - 2"))[0]
    b = isolate_real_roots(P("t^3 - 2") * P("t^2 - 3"))[1]
    assert a.exact_value is None and b.low < a.high and a.low < b.high
    built.clear()
    assert boxes_equal(a, b)
    assert built == [P("t^3 - 2")]
    # isolation builds one chain per Yun factor it counts in, not one per box
    built.clear()
    boxes = isolate_real_roots(P("t^2 - 2") ** 2 * P("t^2 - 5") * P("t^2 - 7") ** 3)
    assert [bx.multiplicity for bx in boxes] == [3, 1, 2, 2, 1, 3]
    assert len(built) == 1 + 2  # the radical's, then the two earlier Yun factors


def test_pow_matches_repeated_products_with_fewest_squarings(monkeypatch):
    p = UniPoly([Fr(1, 3), Fr(-2), Fr(5, 7)])
    mul = UniPoly.__mul__
    expected = UniPoly.one()
    for n in range(10):
        calls = []
        monkeypatch.setattr(UniPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        got = p**n
        monkeypatch.setattr(UniPoly, "__mul__", mul)
        assert got == expected
        # square per bit below the top one, multiply per set bit below the top one
        assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)
        expected = expected * p
    with pytest.raises(ValueError):
        p**-1
