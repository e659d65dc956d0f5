import math
import random
from fractions import Fraction as Fr

import pytest

from soscurves.unipoly import (
    BoxedValue,
    EndpointIsRoot,
    NotSquarefree,
    RootBox,
    UniPoly,
    ZeroPolynomial,
    _rational_root_in,
    _triple,
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
    assert all(b.poly == p for b in boxes)


def test_isolation_double_root():
    boxes = isolate_real_roots(P("4t^2 - 4t + 1"))
    assert len(boxes) == 1
    assert boxes[0].exact_value == Fr(1, 2)
    assert boxes[0].poly == P("t - 1/2")  # the monic radical


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
    assert all(b.poly == P("(t - 2) * (t^2 - 3)") for b in boxes)
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
    b = [c for c in isolate_real_roots(P("t^4 - t^2 - 2")) if c.low + c.high > 0][0]
    assert boxes_equal(a, b)
    half = [c for c in isolate_real_roots(P("2t^2 - 1")) if c.low >= 0][0]
    assert not boxes_equal(a, half)
    c = Fr(3, 2)
    rational = RootBox(c - 1, c + 1, c, UniPoly.linear_root(c))
    assert boxes_equal(rational, RootBox(c - 1, c + 1, c, UniPoly.linear_root(c)))
    assert not boxes_equal(rational, a)


def test_box_compare_orders_mixed_values():
    sqrt2 = [b for b in isolate_real_roots(P("t^2 - 2")) if b.low >= 0][0]
    one = RootBox(Fr(0), Fr(2), Fr(1), UniPoly.linear_root(1))
    two = RootBox(Fr(1), Fr(3), Fr(2), UniPoly.linear_root(2))
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
    return _rational_root_in(q, *_triple(Fr(lo), Fr(hi)), q.primitive_integer()[0].leading().numerator)


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
        for box in ref_isolate_squarefree(q):
            for _ in range(rng.randint(0, 3)):
                box = box.refined()
            assert box.exact_value is not None or _root_in(q, box.low, box.high) == ref_rational_root_in(
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
    # isolating a polynomial with repeated roots builds its one chain, not
    # one per box or per squarefree factor
    built.clear()
    p = P("t^2 - 2") ** 2 * P("t^2 - 5") * P("t^2 - 7") ** 3
    boxes = isolate_real_roots(p)
    assert len(boxes) == 6 and all(bx.poly == P("(t^2 - 2) * (t^2 - 5) * (t^2 - 7)") for bx in boxes)
    assert built == [p]


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


def test_isolating_a_squarefree_polynomial_builds_one_sturm_chain(monkeypatch):
    import soscurves.unipoly as up

    built = []
    chain = up.sturm_chain
    monkeypatch.setattr(up, "sturm_chain", lambda p: built.append(p) or chain(p))
    p = P("t^2 - 2") * P("t^3 - 3t + 1") * P("2t - 1")
    boxes = isolate_real_roots(p)
    assert len(boxes) == 6 and all(bx.poly == p.monic() for bx in boxes)
    # one remainder sequence: the squarefree test and the isolation chain share it
    assert built == [p]
    # disjoint boxes are different numbers without a gcd or a chain
    built.clear()
    assert not boxes_equal(boxes[0], boxes[-1]) and not boxes_equal(boxes[-1], boxes[0])
    assert built == []


# -- integer-endpoint isolation against the Fraction bisection ----------------
#
# The references below are the Fraction-endpoint bisection, refinement, sign
# and comparison routines that the integer-triple ones replaced: recursive
# bisection on Fraction midpoints, one `sign_at` per chain member, and the
# Fraction interval-Horner enclosure (`ref_box_sign`).  Both must give equal
# boxes (bounds, exact value, polynomial), signs and orders.


def ref_variations(signs):
    out, prev = 0, 0
    for v in signs:
        if v == 0:
            continue
        if prev and v != prev:
            out += 1
        prev = v
    return out


def ref_chain_count(chain, lo, hi):
    return ref_variations([q.sign_at(lo) for q in chain]) - ref_variations([q.sign_at(hi) for q in chain])


def ref_isolate_squarefree(p):
    if p.degree <= 0:
        return []
    bound = cauchy_bound(p)
    lo, hi = -bound, bound
    while p.sign_at(lo) == 0:
        lo -= 1
    while p.sign_at(hi) == 0:
        hi += 1
    chain = sturm_chain(p)

    def var_at(v):
        return ref_variations([q.sign_at(v) for q in chain])

    out = []

    def rec(a, b, va, vb):
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append(RootBox(a, b, None, p))
            return
        mid = (a + b) / 2
        if p.sign_at(mid) == 0:
            eps = b - a
            for _ in range(20000):
                eps /= 2
                l2, h2 = mid - eps, mid + eps
                if p.sign_at(l2) != 0 and p.sign_at(h2) != 0 and var_at(l2) - var_at(h2) == 1:
                    break
            out.append(RootBox(l2, h2, mid, p))
            rec(a, l2, va, var_at(l2))
            rec(h2, b, var_at(h2), vb)
            return
        vm = var_at(mid)
        rec(a, mid, va, vm)
        rec(mid, b, vm, vb)

    rec(lo, hi, var_at(lo), var_at(hi))
    out.sort(key=lambda bx: (bx.low, bx.high))
    return out


def ref_isolate_real_roots(p):
    """Boxes of the radical, the product of the Yun factors, with rational
    roots recognised."""
    radical = UniPoly.one()
    for q, _ in yun_decomposition(p):
        radical = radical * q
    radical = radical.monic()
    lead = radical.primitive_integer()[0].leading().numerator
    out = []
    for box in ref_isolate_squarefree(radical):
        exact = box.exact_value
        if exact is None:
            exact = ref_rational_root_in(radical, box.low, box.high, lead)
        out.append(RootBox(box.low, box.high, exact, radical))
    return out


def ref_refined(box, times=1):
    lo, hi, v = box.low, box.high, box.exact_value
    if v is not None:
        for _ in range(times):
            lo, hi = (lo + v) / 2, (hi + v) / 2
        return RootBox(lo, hi, v, box.poly)
    slo = box.poly.sign_at(lo)
    for _ in range(times):
        mid = (lo + hi) / 2
        sm = box.poly.sign_at(mid)
        if sm == 0:
            eps = (hi - lo) / 4
            return RootBox(mid - eps, mid + eps, mid, box.poly)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return RootBox(lo, hi, None, box.poly)


def ref_box_sign_at(g, box):
    if box.exact_value is not None:
        return g.sign_at(box.exact_value)
    if g.is_zero():
        return 0
    h = gcd(g, box.poly)
    if h.degree > 0 and ref_chain_count(sturm_chain(h), box.low, box.high) > 0:
        return 0
    b = box
    for _ in range(20000):
        s = ref_box_sign(list(g.coeffs), b.low, b.high)
        if s:
            return s
        b = ref_refined(b)
    raise RuntimeError("sign refinement did not converge")


def ref_boxes_equal(a, b):
    if a.exact_value is not None and b.exact_value is not None:
        return a.exact_value == b.exact_value
    if a.exact_value is not None:
        return ref_box_sign_at(UniPoly.linear_root(a.exact_value), b) == 0
    if b.exact_value is not None:
        return ref_box_sign_at(UniPoly.linear_root(b.exact_value), a) == 0
    h = gcd(a.poly, b.poly)
    if h.degree == 0:
        return False
    chain = sturm_chain(h)
    if ref_chain_count(chain, a.low, a.high) == 0 or ref_chain_count(chain, b.low, b.high) == 0:
        return False
    ra, rb = a, b
    while True:
        if ra.high <= rb.low or rb.high <= ra.low:
            return False
        if ref_chain_count(chain, min(ra.low, rb.low), max(ra.high, rb.high)) == 1:
            return True
        ra, rb = ref_refined(ra), ref_refined(rb)


def ref_box_compare(a, b):
    if ref_boxes_equal(a, b):
        return 0
    ra, rb = a, b
    while True:
        if ra.high <= rb.low:
            return -1
        if rb.high <= ra.low:
            return 1
        ra, rb = ref_refined(ra), ref_refined(rb)


IRREDUCIBLE = ["t^2 - 2", "t^2 + 1", "t^3 - 3t + 1", "t^2 - t - 1", "3t^2 - 5", "t^4 - 10t^2 + 1"]


def _random_product(rng):
    """A product of rational roots (dyadic ones land on bisection midpoints),
    irreducible factors and repeated factors, or a random polynomial."""
    if rng.random() < 0.3:
        return UniPoly(_random_coeffs(rng, rng.randint(1, 7)))
    p = UniPoly.const(Fr(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            f = UniPoly.linear_root(Fr(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 8, 16])))
        else:
            f = P(rng.choice(IRREDUCIBLE))
        p = p * f ** rng.randint(1, 3)
    return p


def _boxes(rng, count):
    """(p, isolate_real_roots(p), the squarefree part's bisection boxes) for
    seeded polynomials of positive degree; the bisection boxes keep rational
    roots off their exact value unless a midpoint hit them."""
    while count:
        p = _random_product(rng)
        if p.degree < 1:
            continue
        count -= 1
        yield p, isolate_real_roots(p), ref_isolate_squarefree(squarefree_part(p))


def test_isolation_matches_fraction_bisection():
    rng = random.Random(2032)
    repeated = 0
    for p, boxes, bisected in _boxes(rng, 200):
        assert boxes == ref_isolate_real_roots(p), p
        assert [(b.low, b.high) for b in boxes] == [(b.low, b.high) for b in bisected], p
        repeated += squarefree_part(p).degree < p.degree
    assert repeated > 100  # most inputs have repeated roots
    # midpoints that are roots: 0 first, then 1 (bound 2), and 3/8 of a window
    for p in (P("t^3 - t"), P("t^2 - t"), P("t * (8t - 3) * (t - 1)"), P("t^5 - 5t^3 + 4t")):
        assert isolate_real_roots(p) == ref_isolate_real_roots(p)
        assert any(b.exact_value is not None for b in ref_isolate_squarefree(p))


def test_linear_box_is_the_bisection_box():
    rng = random.Random(2033)
    for _ in range(100):
        a = Fr(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**3))
        p = UniPoly([Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), a])
        (box,) = isolate_real_roots(p)
        assert [box] == ref_isolate_real_roots(p)
        assert box.exact_value == -p.coeff(0) / a and box.poly == p.monic()


def test_refined_matches_fraction_refinement():
    rng = random.Random(2034)
    for _, boxes, bisected in _boxes(rng, 80):
        for box in boxes + bisected:
            for k in (0, 1, rng.randint(2, 20), rng.randint(21, 70)):
                assert box.refined(k) == ref_refined(box, k)


def test_box_sign_matches_fraction_box_sign():
    rng = random.Random(2035)
    for _, boxes, bisected in _boxes(rng, 80):
        for box in boxes + bisected:
            box = box.refined(rng.randint(0, 12))
            for _ in range(3):
                g = UniPoly(_random_coeffs(rng, rng.randint(0, 6)))
                if rng.random() < 0.3:
                    g = g * box.poly  # g vanishes at the root
                elif rng.random() < 0.3 and box.poly.degree > 1:
                    # g shares a factor with the box polynomial that may or may not vanish there
                    (f, _), *_ = yun_decomposition(_random_product(rng) * box.poly)
                    g = g * gcd(f, box.poly)
                assert box_sign(g, box) == ref_box_sign_at(g, box)


def test_boxes_equal_and_compare_match_fraction_reference():
    rng = random.Random(2036)
    for p, boxes, bisected in _boxes(rng, 60):
        q = _random_product(rng)
        if q.degree < 1:
            continue
        # a multiple of p shares every root with it
        others = isolate_real_roots(q * p if rng.random() < 0.5 else q)
        for a in boxes + bisected:
            for b in others + bisected:
                a2, b2 = a.refined(rng.randint(0, 6)), b.refined(rng.randint(0, 6))
                assert boxes_equal(a2, b2) == ref_boxes_equal(a2, b2)
                assert box_compare(a2, b2) == ref_box_compare(a2, b2)


def test_deep_root_cluster_isolates_without_recursion():
    # roots 1 +- sqrt(2) * 2^-1200: about 1200 bisection levels apart
    p = UniPoly([1 - 2 * Fr(1, 2**2400), -2, 1])
    low, high = isolate_real_roots(p)
    assert low.exact_value is None and high.exact_value is None
    assert low.poly == high.poly == p.monic()
    assert low.high <= high.low and low.low < 1 < high.high
    for box in (low, high):
        assert p.sign_at(box.low) * p.sign_at(box.high) < 0
    assert box_compare(low, high) == -1 and not boxes_equal(low, high)


def test_refinement_that_lands_on_the_root_matches_fraction_reference():
    # boxes without an exact value around the dyadic roots 3/8 and 5/8: the
    # first or third midpoint is the root
    p = P("(8t - 3) * (8t - 5)")
    a = RootBox(Fr(1, 4), Fr(1, 2), None, p)
    b = RootBox(Fr(7, 16), Fr(1), None, p)
    wide = RootBox(Fr(0), Fr(1, 2), None, P("8t - 3"))
    for box in (a, b, wide):
        for k in range(6):
            assert box.refined(k) == ref_refined(box, k)
    # g's root lies within 10^-3 of 3/8, so no enclosure certifies before the hit
    for g in (P("t - 3/8 + 1/1000"), P("t - 3/8 - 1/1000"), P("(t - 3/8 + 1/1000) * (t - 5)")):
        assert box_sign(g, wide) == ref_box_sign_at(g, wide) != 0
        assert box_sign(g, a) == ref_box_sign_at(g, a) != 0
    # the union holds both roots of the common factor until a's midpoint hits 3/8
    assert boxes_equal(a, b) is ref_boxes_equal(a, b) is False
    assert box_compare(a, b) == ref_box_compare(a, b) == -1
    assert box_compare(b, a) == ref_box_compare(b, a) == 1
    assert boxes_equal(a, wide) is ref_boxes_equal(a, wide) is True


# -- BoxedValue: Q[u]/(P) read at a boxed root, against sympy -------------------


def _to_sympy(sp, p, t):
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sp.Poly(coeffs or [0], t, domain="QQ")


def _from_sympy(q):
    return UniPoly([Fr(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())])


def _random_modulus(rng):
    """A squarefree product of one to three small factors, often reducible."""
    pool = [f"t^2 - {k}" for k in (2, 3, 5, 6, 7)] + [f"t - {k}" for k in (-2, 1, 4)]
    pool += ["t^3 - 3t + 1", "t^3 - 4t - 1", "2t^2 + 2t - 3"]
    p = UniPoly.one()
    for f in rng.sample(pool, rng.randint(1, 3)):
        p = p * P(f)
    return squarefree_part(p)


def test_boxed_value_ring_operations_match_sympy():
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    rng = random.Random(2024)
    checked = zeros = 0
    for _ in range(15):
        modulus = _random_modulus(rng)
        m = modulus.degree
        Pm = _to_sympy(sp, modulus, t)
        for box in isolate_real_roots(modulus):
            # the irreducible factor of P that holds the boxed root, and that root
            f = next(
                g for g, _ in sp.factor_list(Pm.as_expr(), t)[1]
                if sp.Poly(g, t).count_roots(box.low, box.high)
            )
            F = sp.Poly(f, t)
            alpha = sp.N(next(r for r in F.real_roots() if box.low < r < box.high), 80)

            def ref_sign(q):
                Q = _to_sympy(sp, q, t)
                return 0 if Q.rem(F).is_zero else int(sp.sign(Q.eval(alpha)))

            for _ in range(4):
                a = UniPoly([Fr(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 2 * m))])
                b = UniPoly([Fr(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 2 * m))])
                if rng.random() < 0.2:
                    b = b * _from_sympy(F)  # a nonzero representative of zero
                va, vb = BoxedValue(a, box), BoxedValue(b, box)
                A, Bs = _to_sympy(sp, a, t), _to_sympy(sp, b, t)
                for got, want in ((va + vb, A + Bs), (va - vb, A - Bs), (va * vb, A * Bs), (-va, -A)):
                    assert got.modulus == modulus
                    assert _to_sympy(sp, got.poly, t) == want.rem(Pm)
                    assert got.poly.degree < m
                    sign = ref_sign(got.poly)
                    assert got.sign() == sign and got.is_zero() is (sign == 0)
                sign_a = ref_sign(a)
                assert (va * Fr(-2, 3)).sign() == -sign_a
                assert (va == vb) is (ref_sign(a - b) == 0)
                if sign_a == 0:
                    zeros += 1
                    with pytest.raises(ZeroDivisionError):
                        va.inverse()
                    continue
                inv = va.inverse()
                M = _to_sympy(sp, inv.modulus, t)
                assert Pm.rem(M).is_zero and M.rem(F).is_zero
                assert (A * _to_sympy(sp, inv.poly, t) - 1).rem(M).is_zero
                assert inv.sign() == sign_a
                checked += 1
    assert checked > 150 and zeros > 20


def test_boxed_value_inverse_splits_the_modulus():
    # (u^2 - 2)(u - 3): at sqrt(2), u - 3 is a zero divisor of the ring that
    # does not vanish at the root, and u^2 - 2 one that does
    modulus = P("t^2 - 2") * P("t - 3")
    root2 = next(b for b in isolate_real_roots(modulus) if b.refined(20).low > 1 and b.high < 3)
    three = next(b for b in isolate_real_roots(modulus) if b.exact_value == 3)
    inv = BoxedValue(P("t - 3"), root2).inverse()
    assert inv.modulus == P("t^2 - 2")
    assert inv.poly == P("t + 3").scale(Fr(-1, 7))
    assert (inv * BoxedValue(P("t - 3"), root2)) == 1
    vanishing = BoxedValue(P("t^2 - 2"), root2)
    assert vanishing.poly and vanishing.is_zero()
    with pytest.raises(ZeroDivisionError):
        vanishing.inverse()
    # at the rational root the roles swap
    assert BoxedValue(P("t^2 - 2"), three).inverse().poly == UniPoly.const(Fr(1, 7))
    with pytest.raises(ZeroDivisionError):
        BoxedValue(P("t - 3"), three).inverse()


def test_boxed_values_of_two_moduli_sharing_the_root():
    # sqrt(2) boxed once among the roots of (u^2 - 2)(u - 1) and once among
    # those of (u^2 - 2)(u + 5): operations work modulo the gcd u^2 - 2
    p, q = P("t^2 - 2") * P("t - 1"), P("t^2 - 2") * P("t + 5")
    bp, bq = (
        next(b for b in isolate_real_roots(r) if b.exact_value is None and b.refined(20).low > 0)
        for r in (p, q)
    )
    x, y = BoxedValue(P("t^2 + t"), bp), BoxedValue(P("t + 2"), bq)
    assert x.modulus == p and y.modulus == q
    d = x - y
    assert d.modulus == P("t^2 - 2") and d.poly == UniPoly.zero() and d.is_zero()
    assert x == y and (x * y).poly == P("4t + 6")
    assert (BoxedValue(P("t"), bp) - BoxedValue(P("t - 1"), bq)).sign() == 1
    other = isolate_real_roots(P("t^2 - 3"))[1]
    with pytest.raises(ValueError):
        BoxedValue(P("t"), bp) + BoxedValue(P("t"), other)
