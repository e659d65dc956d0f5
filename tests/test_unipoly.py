import random
from fractions import Fraction as Fr

import pytest

from soscurves.unipoly import (
    EndpointIsRoot,
    NotSquarefree,
    RootBox,
    UniPoly,
    box_compare,
    box_sign,
    boxes_equal,
    cauchy_bound,
    count_real_roots,
    gcd,
    isolate_real_roots,
    sturm_chain,
    sturm_count,
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
