import random
from fractions import Fraction as Fr

import pytest

from soscurves import numbers, squares
from soscurves.ringfn import LineFn
from soscurves.numbers import limit_denominators, rational_square_list, sqrt_fraction
from soscurves.squares import NotPsd, line_fn_sos, negative_point
from soscurves.unipoly import UniPoly, count_real_roots, yun_decomposition

T = UniPoly.var()


def _poly(*coeffs) -> UniPoly:
    return UniPoly([Fr(c) for c in coeffs])


def _random_poly(rng: random.Random) -> UniPoly:
    """A product of rational linear and quadratic factors, some repeated."""
    p = UniPoly.const(rng.choice([1, 2, 3, -1, -2, Fr(1, 2)]))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            f = UniPoly.linear_root(Fr(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            f = _poly(rng.randint(-3, 5), rng.randint(-3, 3), 1)
        p = p * f ** rng.randint(1, 3)
    return p


def _reference_negative(p: UniPoly, lo=None, hi=None) -> bool:
    """Whether p < 0 somewhere (on [lo, hi]), from sympy's exact real roots."""
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    expr = sum(sp.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(p.coeffs))
    if p.degree <= 0:
        return expr < 0
    roots = sorted(set(sp.real_roots(sp.Poly(expr, t))), key=lambda r: r.evalf(40))
    if lo is None:
        cuts = roots
        samples = [sp.floor(roots[0]) - 1, sp.ceiling(roots[-1]) + 1] if roots else [0]
    else:
        lo, hi = sp.Rational(lo.numerator, lo.denominator), sp.Rational(hi.numerator, hi.denominator)
        cuts = sorted({lo, hi, *(r for r in roots if lo < r < hi)}, key=lambda r: r.evalf(40))
        samples = [lo, hi]
    for a, b in zip(cuts, cuts[1:]):
        samples.append(sp.Rational(str(((a + b) / 2).evalf(40))))
    return any(expr.subs(t, s) < 0 for s in samples)


def test_negative_point_matches_the_reference():
    rng = random.Random(20261018)
    seen_even = seen_root_end = 0
    for _ in range(150):
        p = _random_poly(rng)
        w = negative_point(p)
        assert (w is not None) == _reference_negative(p), p
        if w is not None:
            assert p(w) < 0
        roots = [b.exact_value for b in squares.isolate_real_roots(p) if b.exact_value is not None]
        seen_even += any(m % 2 == 0 and count_real_roots(q) for q, m in yun_decomposition(p))
        for _ in range(2):
            if roots and rng.random() < 0.5:
                lo = rng.choice(roots)
                hi = max(lo, rng.choice(roots))
                seen_root_end += 1
            else:
                lo = Fr(rng.randint(-6, 6), rng.randint(1, 2))
                hi = lo + Fr(rng.randint(0, 6), rng.randint(1, 3))
            w = negative_point(p, lo, hi)
            assert (w is not None) == _reference_negative(p, lo, hi), (p, lo, hi)
            if w is not None:
                assert lo <= w <= hi and p(w) < 0
    assert seen_even > 10 and seen_root_end > 10


def test_negative_point_edge_cases():
    assert negative_point(UniPoly.zero()) is None
    assert negative_point(UniPoly.const(3)) is None
    assert negative_point(UniPoly.const(-3)) == 0
    assert negative_point(UniPoly.const(-3), Fr(5), Fr(5)) == 5
    # (t-1)^2 (t-2)^2: psd, with both interval ends at roots
    p = (T - UniPoly.one()) ** 2 * (T - UniPoly.const(2)) ** 2
    assert negative_point(p) is None
    assert negative_point(p, Fr(1), Fr(2)) is None
    # -(t-1)^2 (t-2)^2 is negative strictly between its two roots
    w = negative_point(-p, Fr(1), Fr(2))
    assert w is not None and 1 < w < 2
    # (t^2 - 1/10^6): negative only on a short piece of [0, 1]
    q = _poly(Fr(-1, 10**6), 0, 1)
    w = negative_point(q, Fr(0), Fr(1))
    assert w is not None and q(w) < 0
    assert negative_point(q, Fr(1, 1000), Fr(1)) is None
    with pytest.raises(ValueError):
        negative_point(q, Fr(1), Fr(0))


@pytest.mark.parametrize(
    "num, order, pole",
    [
        (_poly(-1, 0, 1), 0, 0),  # t^2 - 1
        (_poly(-1), 0, 0),
        (_poly(1, 0, 1), 1, 0),  # (t^2 + 1) / t
        (_poly(Fr(-1, 100), 0, 1), 2, 0),  # negative only near the pole
        (_poly(-1, 0, 0, 0, 1), 2, Fr(1, 3)),
        (_poly(5, 1), 3, Fr(-2)),
        (_poly(-2, 0, 1) ** 2, 1, Fr(7, 5)),
    ],
)
def test_line_fn_sos_raises_off_the_pole(num, order, pole):
    fn = LineFn(num, order, pole)
    assert fn.order == order
    with pytest.raises(NotPsd) as info:
        line_fn_sos(fn)
    point = info.value.point
    assert order == 0 or point != pole
    assert fn(point) < 0 and info.value.value == fn(point)


def test_line_fn_sos_random_orders():
    rng = random.Random(5)
    raised = decomposed = 0
    for _ in range(120):
        order = rng.randint(0, 3)
        pole = Fr(rng.randint(-3, 3), rng.randint(1, 2))
        num = _random_poly(rng)
        if rng.random() < 0.5:
            num = num * num
        fn = LineFn(num, order, pole)
        try:
            dec = line_fn_sos(fn)
        except NotPsd as bad:
            raised += 1
            assert fn.order == 0 or bad.point != fn.pole_at
            assert fn(bad.point) < 0
            continue
        decomposed += 1
        assert fn.order % 2 == 0
        assert negative_point(fn.num) is None
        if dec.exact:
            total = LineFn.zero()
            for part in dec.parts:
                total = total + part * part
            assert total == fn
    assert raised > 20 and decomposed > 20


@pytest.mark.parametrize(
    "num",
    [
        _poly(1, 0, 1),  # Gaussian pairing
        (T - UniPoly.one()) ** 2 * _poly(1, 0, 1).scale(3),  # 3 is no sum of two squares
        _poly(1, 0, 1) * _poly(2, 0, 1),  # rational quadratic lists
        UniPoly.const(Fr(7, 4)),
        (T + UniPoly.const(2)) ** 4,
    ],
)
def test_exact_decompositions_reexpand(num):
    for order, pole in ((0, Fr(0)), (2, Fr(5)), (4, Fr(-1, 2))):
        fn = LineFn(num, order, pole)
        dec = line_fn_sos(fn)
        assert dec.exact
        total = LineFn.zero()
        for part in dec.parts:
            total = total + part * part
        assert total == fn


@pytest.mark.parametrize(
    "fn, root_calls",
    [
        (LineFn(_poly(1, 1, 0, 0, 1)), 1),  # numeric fallback
        (LineFn(_poly(2, 0, 1, 0, 1), 2, Fr(3)), 1),
        (LineFn(_poly(1, 0, 1) * _poly(2, 0, 1)), 1),
        (LineFn(_poly(1, 0, 1)), 0),  # a quadratic needs no roots
    ],
    ids=["fn0", "fn1", "fn2", "fn3"],
)
def test_psd_restriction_splits_and_finds_roots_once(monkeypatch, fn, root_calls):
    calls = {"split": 0, "roots": 0}
    split, roots = squares._split_psd, squares._roots_upper_half

    def counted_split(p):
        calls["split"] += 1
        return split(p)

    def counted_roots(r):
        calls["roots"] += 1
        return roots(r)

    monkeypatch.setattr(squares, "_split_psd", counted_split)
    monkeypatch.setattr(squares, "_roots_upper_half", counted_roots)
    line_fn_sos(fn)
    assert calls == {"split": 1, "roots": root_calls}


def _ladder_quadratic(r: UniPoly):
    """The parts of a monic rootless quadratic r as the float path finds them.

    The Gaussian pairing from numpy's roots, else u and v of t^2 + u t + v
    read back from the root through the denominator ladder; None when the
    ladder finds neither.
    """
    upper = squares._roots_upper_half(r)
    pairing = squares._gaussian_pairing(r, upper)
    if pairing is not None:
        return pairing
    z = upper[0]
    us = limit_denominators(-2.0 * z.real, squares._DENOMINATOR_LADDER)
    vs = limit_denominators(abs(z) ** 2, squares._DENOMINATOR_LADDER)
    for u, v in zip(us, vs):
        if UniPoly([v, u, Fr(1)]) == r:
            gap = v - u * u / 4
            return (_poly(u / 2, 1), *(UniPoly.const(e) for e in rational_square_list(gap) if e))
    return None


def _reexpands(fn: LineFn, parts) -> bool:
    total = LineFn.zero()
    for part in parts:
        total = total + part * part
    return total == fn


def test_quadratic_square_lists_match_the_float_ladder():
    rng = random.Random(59)
    found = {True: 0, False: 0}
    for _ in range(120):
        u = Fr(rng.randint(-20, 20), rng.randint(1, 12))
        if rng.random() < 0.5:
            gap = Fr(rng.randint(1, 30), rng.randint(1, 12)) ** 2
        else:
            gap = Fr(rng.randint(1, 60), rng.randint(1, 40))
        r = _poly(u * u / 4 + gap, u, 1)
        entry = squares._completed_square(r)
        root = sqrt_fraction(gap)
        assert entry[0] == _poly(u / 2, 1)
        if root is not None:
            assert entry[1:] == (UniPoly.const(root),)
        else:
            assert len(entry) > 2
            assert sum(e.coeff(0) ** 2 for e in entry[1:]) == gap
        ladder = _ladder_quadratic(r)
        if ladder is not None:
            assert tuple(ladder) == entry
            found[len(entry) == 2] += 1
        c = Fr(rng.randint(1, 9), rng.randint(1, 4))
        fn = LineFn(r.scale(c) * _poly(rng.randint(-3, 3), 1) ** 2, 2, Fr(7))
        dec = line_fn_sos(fn)
        assert dec.exact and _reexpands(fn, dec.parts)
    assert found[True] > 10 and found[False] > 10


@pytest.mark.parametrize(
    "r",
    [
        _poly(Fr(1, 10**13 + 37) ** 2, 0, 1),  # sqrt(gap) has denominator above 10^12
        _poly(Fr(2, 10**13 + 37), 0, 1),  # gap is no square, its denominator above 10^12
        _poly(Fr(1, 4) + Fr(3, 10**13 + 37), 1, 1),
    ],
)
def test_quadratic_beyond_the_ladder_is_exact(monkeypatch, r):
    assert _ladder_quadratic(r) is None
    monkeypatch.setattr(squares, "_roots_upper_half", None)  # no float roots needed
    for fn in (LineFn(r), LineFn(r.scale(3) * _poly(1, 2) ** 2, 2, Fr(-1, 2))):
        dec = line_fn_sos(fn)
        assert dec.exact
        assert _reexpands(fn, dec.parts)


def test_last_quadratic_factor_needs_no_ladder():
    # two quadratic factors: the first from its root, the last taken exactly
    far = _poly(Fr(2, 10**13 + 37), 0, 1)
    r = _poly(2, 0, 1) * far
    upper = squares._roots_upper_half(r)
    lists = squares._quadratic_square_lists(r, upper)
    assert lists is not None and squares._completed_square(far) in lists
    dec = line_fn_sos(LineFn(r))
    assert dec.exact and _reexpands(LineFn(r), dec.parts)


def test_psd_test_counts_roots_without_isolating(monkeypatch):
    def refuse(p):
        raise AssertionError("root isolation on a psd restriction")

    monkeypatch.setattr(squares, "isolate_real_roots", refuse)
    for num in (_poly(1, 0, 1), _poly(1, 0, 1) * _poly(2, 0, 1), (T - UniPoly.one()) ** 2 * _poly(5, 2, 1)):
        assert line_fn_sos(LineFn(num)).exact


@pytest.mark.parametrize(
    "num, parts",
    [
        # gap 4 is a square: the pairing (t + 1, 2) times the squares of 3
        (_poly(5, 2, 1).scale(3), [_poly(1, 1)] * 3 + [_poly(2)] * 3),
        # gap 5 is not: the square-list (t + 1, 2, 1) times the squares of 3
        (_poly(6, 2, 1).scale(3), [_poly(1, 1)] * 3 + [_poly(2)] * 3 + [_poly(1)] * 3),
    ],
)
def test_quadratic_parts_keep_the_pairing_layout(num, parts):
    # 3 is no sum of two rational squares, so its three squares (1, 1, 1)
    # meet the quadratic's list in one outer product, entry by entry
    assert line_fn_sos(LineFn(num)).parts == tuple(LineFn(g) for g in parts)


def test_a_constant_is_split_into_squares_once(monkeypatch):
    # 3 is no sum of two squares: the one scan that says so is the last
    calls = []
    two_squares = numbers._two_squares
    counted = lambda n: calls.append(n) or two_squares(n)  # noqa: E731
    # bound wherever a module may hold the name, so a direct import counts too
    monkeypatch.setattr(numbers, "_two_squares", counted)
    monkeypatch.setattr(squares, "_two_squares", counted, raising=False)
    dec = line_fn_sos(LineFn(_poly(1, 0, 1).scale(3)))
    assert dec.exact and _reexpands(LineFn(_poly(1, 0, 1).scale(3)), dec.parts)
    assert calls.count(3) == 1


def test_a_square_constant_gives_no_zero_part():
    assert line_fn_sos(LineFn(UniPoly.const(4))).parts == (LineFn(UniPoly.const(2)),)


@pytest.mark.parametrize(
    "num",
    [
        _poly(5, 2, 1).scale(3),  # gap 4: the pairing path
        _poly(6, 2, 1).scale(3),  # gap 5: the square-list path
    ],
)
def test_a_decomposition_that_misses_the_input_raises(monkeypatch, num):
    # the re-expansion is an explicit check, not an assert that -O strips
    good = line_fn_sos(LineFn(num))
    assert good.exact and _reexpands(LineFn(num), good.parts)
    completed = squares._completed_square
    monkeypatch.setattr(squares, "_completed_square", lambda q: (completed(q)[0] + _poly(1), *completed(q)[1:]))
    with pytest.raises(ArithmeticError, match="does not expand"):
        line_fn_sos(LineFn(num))
