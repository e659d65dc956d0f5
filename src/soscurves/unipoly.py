"""Dense univariate polynomials over the rationals, computed on integers.

A polynomial is stored as integer numerators over one positive common
denominator, p(t) = (n_0 + n_1 t + ... + n_d t^d) / den, in canonical form: no
trailing zero numerator and gcd(den, n_0, ..., n_d) = 1, with the zero
polynomial stored as ((), 1).  Equal polynomials therefore have equal pairs.
Every ring operation runs on Python ints and normalises once at the end;
`.coeffs` rebuilds the Fraction coefficients for callers.

Division is pseudo-division on the numerators.  A step scales the remainder
and the partial quotient by the divisor's leading coefficient (its part not
shared with the leading term) only when the step does not divide exactly.
The gcd is a primitive remainder sequence over the integers: each
pseudo-remainder is divided by its content, and the last nonzero member is
made monic, which is the polynomial the rational Euclid loop returns (Collins,
*Subresultants and reduced polynomial remainder sequences*, J. ACM 1967;
Brown, *On Euclid's algorithm and the computation of polynomial greatest
common divisors*, J. ACM 1971).  Sturm chains use the same pseudo-remainders;
their scale factors are positive, so the sign of each remainder survives.

Signs are exact without building a Fraction: at t = a/b, homogeneous Horner
on the integers sum n_i a^i b^(d-i) has the sign of p(t); over an interval
[L/D, H/D] the interval-Horner enclosure runs on integers scaled by D^k.

Real roots are isolated by Sturm bisection inside the Cauchy bound, and
roots that happen to be rational are recognised exactly in their isolating
boxes: a rational root of a primitive integer polynomial with leading
coefficient a is k/a for an integer k, so bisecting a box below width 1/a
leaves one candidate to test (no factoring).  Bisection, refinement and the
sign enclosure all run on integer endpoints: a box is a triple (L, H, D)
for [L/D, H/D], its midpoint is (L+H)/2D, each Sturm-chain member is signed
by homogeneous Horner on its numerators, and Fractions are built only for
the boxes handed back.  The bisection keeps an explicit work list, so a
deep cluster of roots costs steps, not stack.  `isolate_real_roots` takes p
as it is and runs one remainder sequence on (p, p'): when it ends in a
constant p is squarefree and the sequence is its Sturm chain; otherwise its
last member is gcd(p, p'), and the members divided by it are a Sturm
sequence of the radical p / gcd(p, p').  The boxes hold the distinct real
roots and carry the monic radical, so a caller that needs the radical of a
polynomial with a real root reads it off a box.  A linear radical has its
one box in closed form, (-B, B) around -c_0 for the monic t + c_0 with B its
Cauchy bound, which is the box the bisection returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Sequence


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class EndpointIsRoot(ValueError):
    """A Sturm count was requested on an interval whose endpoint is a root."""


class NotSquarefree(ValueError):
    """A Sturm count was requested for a polynomial with repeated roots."""


def _fr(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class UniPoly:
    """Immutable dense polynomial (sum of _num[i] * t**i) / _den in canonical form."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _fr(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs if type(c) is not int))
        num = [c * den if type(c) is int else c.numerator * (den // c.denominator) for c in cs]
        num, den = _canonical(num, den)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "UniPoly":
        return _ZERO

    @staticmethod
    def one() -> "UniPoly":
        return _ONE

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def var() -> "UniPoly":
        return _make((0, 1), 1)

    @staticmethod
    def linear_root(a) -> "UniPoly":
        """t - a."""
        a = _fr(a)
        return _make((-a.numerator, a.denominator), a.denominator)

    # -- basic structure ----------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[i] is the coefficient of t**i."""
        den = self._den
        if den == 1:
            return tuple(Fraction(c) for c in self._num)
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        from .polyparse import format_unipoly

        return f"UniPoly({format_unipoly(self)!r})"

    def coeff(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    def leading(self) -> Fraction:
        if not self._num:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other
        den, db = self._den, other._den
        if den != db:
            g = int_gcd(den, db)
            ka, kb = db // g, den // g
            a = [c * ka for c in a]
            b = [c * kb for c in b]
            den *= ka
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(*_canonical(out, den))

    def __neg__(self) -> "UniPoly":
        return _make(tuple(-c for c in self._num), self._den)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        return _make(*_canonical(_conv(a, b), self._den * other._den))

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        c = _fr(c)
        if c == 0:
            return _ZERO
        n = c.numerator
        return _make(*_canonical([k * n for k in self._num], self._den * c.denominator))

    @staticmethod
    def lincomb(coeffs: Iterable, polys: Iterable["UniPoly"]) -> "UniPoly":
        """sum c_j * p_j, summed on the integer numerators and normalised once."""
        terms = []
        for c, p in zip(coeffs, polys):
            if c and p._num:
                if type(c) is not int:
                    c = _fr(c)
                terms.append((c.numerator, c.denominator * p._den, p._num))
        return _sum_terms(terms)

    @staticmethod
    def dot(ps: Iterable["UniPoly"], qs: Iterable["UniPoly"]) -> "UniPoly":
        """sum p_j * q_j, summed on the integer numerators and normalised once."""
        return _sum_terms([
            (1, p._den * q._den, _conv(p._num, q._num))
            for p, q in zip(ps, qs, strict=True)
            if p._num and q._num
        ])

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return UniPoly.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        # s*a = q*b + r on the numerators, so self = (q*db / (s*da)) * other + r / (s*da)
        q, r, s = _pseudo_divmod(self._num, other._num, True)
        den = s * self._den
        db = other._den
        return _make(*_canonical([c * db for c in q], den)), _make(*_canonical(r, den))

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        return self.divmod(other)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        r, s = _pseudo_divmod(self._num, other._num, False)[1:]
        return _make(*_canonical(r, s * self._den))

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self) -> "UniPoly":
        return _make(*_canonical([i * c for i, c in enumerate(self._num) if i], self._den))

    def monic(self) -> "UniPoly":
        return _monic(self._num)

    # -- evaluation -----------------------------------------------------
    def __call__(self, t) -> Fraction:
        num = self._num
        if not num:
            return Fraction(0)
        t = _fr(t)
        b = t.denominator
        return Fraction(_horner(num, t.numerator, b), self._den * b ** (len(num) - 1))

    def sign_at(self, t) -> int:
        """Sign of self(t) at a rational t, without building a Fraction."""
        num = self._num
        if not num:
            return 0
        t = _fr(t)
        v = _horner(num, t.numerator, t.denominator)
        return (v > 0) - (v < 0)

    def eval_float(self, t: float) -> float:
        den = self._den
        acc = 0.0
        for c in reversed(self._num):
            acc = acc * t + c / den
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c)
        return acc

    # -- integer normalisation -------------------------------------------
    def primitive_integer(self) -> tuple["UniPoly", Fraction]:
        """Return (q, c) with q = self / c, q having coprime integer coefficients and positive lead."""
        num = self._num
        if not num:
            return self, Fraction(1)
        g = int_gcd(*num)
        if num[-1] < 0:
            g = -g
        return _make(tuple(c // g for c in num), 1), Fraction(g, self._den)


_set_num = UniPoly._num.__set__
_set_den = UniPoly._den.__set__


def _make(num: tuple[int, ...], den: int) -> UniPoly:
    """The UniPoly with numerators num over den; the pair must be canonical."""
    p = object.__new__(UniPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _canonical(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair of num / den for den > 0: no trailing zero, no common factor."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    g = int_gcd(den, *num)
    if g != 1:
        return tuple(c // g for c in num), den // g
    return tuple(num), den


_ZERO = _make((), 1)
_ONE = _make((1,), 1)


def _conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists (low degree first, [] is zero)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sum_terms(terms: list[tuple[int, int, Sequence[int]]]) -> UniPoly:
    """sum k * num / d over the (k, d, num) terms: one integer accumulation
    over the common denominator, normalised once."""
    if not terms:
        return _ZERO
    den = lcm(*(d for _, d, _ in terms))
    out = [0] * max(len(num) for _, _, num in terms)
    for k, d, num in terms:
        k *= den // d
        for i, v in enumerate(num):
            out[i] += k * v
    return _make(*_canonical(out, den))


def _monic(num: Sequence[int]) -> UniPoly:
    """num / num[-1] (the zero polynomial for empty num)."""
    if not num:
        return _ZERO
    lead = num[-1]
    if lead < 0:
        return _make(*_canonical([-c for c in num], -lead))
    return _make(*_canonical(list(num), lead))


def _primitive(num: Sequence[int]) -> Sequence[int]:
    g = int_gcd(*num)
    return num if g == 1 else [c // g for c in num]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int], quotient: bool) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s*a = q*b + r, deg r < deg b and s > 0, on integer coefficient lists.

    A step whose leading term the divisor's lead does not divide multiplies the
    remainder and the partial quotient by the smallest positive factor that
    makes it divide; s is the product of those factors.  With quotient=False q
    is left empty.  r may carry trailing zeros.
    """
    rem = list(a)
    dn = len(b) - 1
    lead = b[-1]
    body = b[:-1]
    q = [0] * max(0, len(rem) - dn) if quotient else []
    s = 1
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if not c:
            continue
        f, m = divmod(c, lead)
        if m:
            k = abs(lead) // int_gcd(c, lead)
            s *= k
            rem = [x * k for x in rem[:i]]
            q = [x * k for x in q]
            f = c * k // lead
        if quotient:
            q[i - dn] = f
        off = i - dn
        for j, bc in enumerate(body, off):
            rem[j] -= f * bc
    return q, rem[:dn], s


def _horner(num: Sequence[int], a: int, b: int) -> int:
    """sum num[i] * a**i * b**(d-i): the value at a/b times b**d (b > 0)."""
    it = reversed(num)
    acc = next(it)
    if b == 1:
        for c in it:
            acc = acc * a + c
        return acc
    bk = 1
    for c in it:
        bk *= b
        acc = acc * a + c * bk
    return acc


def _enclosure_sign(num: Sequence[int], L: int, H: int, D: int) -> int:
    """Sign on [L/D, H/D] of the polynomial with coefficients num, certified by
    interval Horner, or 0 when the enclosure contains 0.

    The k-th rational Horner enclosure times D**(k-1) is an integer interval,
    so the recursion runs on ints and certifies exactly the signs the
    rational one does.
    """
    alo = ahi = 0
    dk = 1
    for c in reversed(num):
        cands = (alo * L, alo * H, ahi * L, ahi * H)
        c *= dk
        alo, ahi = min(cands) + c, max(cands) + c
        dk *= D
    return 1 if alo > 0 else -1 if ahi < 0 else 0


def _triple(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(L, H, D) with lo = L/D and hi = H/D, D the lcm of the denominators."""
    ld, hd = lo.denominator, hi.denominator
    D = lcm(ld, hd)
    return lo.numerator * (D // ld), hi.numerator * (D // hd), D


def _halve(num: Sequence[int], L: int, H: int, D: int, slo: bool) -> tuple[int, int] | None:
    """One bisection step of the box [L/D, H/D] around one root of num.

    slo says whether num is positive at L/D.  Returns the numerators over 2D
    of the half that holds the root, or None when the midpoint (L+H)/2D is
    the root.
    """
    M = L + H
    v = _horner(num, M, 2 * D)
    if not v:
        return None
    return (M, 2 * H) if (v > 0) == slo else (2 * L, M)


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals, by a primitive remainder sequence over the integers."""
    f, g = a._num, b._num
    if len(f) < len(g):
        f, g = g, f
    if not g:
        return _monic(f)
    f, g = _primitive(f), _primitive(g)
    while len(g) > 1:
        r = _pseudo_divmod(f, g, False)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return _monic(g)
        f, g = g, _primitive(r)
    return _ONE


def squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), normalised monic."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    if p.degree == 0:
        return UniPoly.one()
    g = gcd(p, p.derivative())
    return p.exact_div(g).monic()


def yun_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Squarefree decomposition p = lc * prod q_i**i; returns [(q_i monic, i)] skipping trivial q_i."""
    if p.is_zero():
        raise ZeroPolynomial("decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    a = gcd(p, p.derivative())
    out = []
    b = p.exact_div(a)
    c = p.derivative().exact_div(a)
    i = 1
    while b.degree > 0:
        d2 = c - b.derivative()
        q = gcd(b, d2)
        if q.degree > 0:
            out.append((q.monic(), i))
        b = b.exact_div(q)
        c = d2.exact_div(q)
        i += 1
    return out


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    """p, p', then the primitive integer polynomials carrying the sign of -remainder."""
    chain = [p]
    d = p.derivative()
    if d.is_zero():
        return chain
    chain.append(d)
    a, b = p._num, d._num
    while True:
        # the scale of a pseudo-remainder is positive and so are the
        # denominators, so r has the signs of the rational remainder
        r = _pseudo_divmod(a, b, False)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return chain
        g = int_gcd(*r)
        a, b = b, tuple(-c // g for c in r)
        chain.append(_make(b, 1))


def _variations(vals: Sequence[int]) -> int:
    """Sign changes along vals, zeros skipped."""
    signs = [v > 0 for v in vals if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _variations_at(chain: Sequence[Sequence[int]], X: int, D: int) -> int:
    """Sign variations at X/D of a chain given by its members' numerators.

    Raises EndpointIsRoot when X/D is a root of the first member.
    """
    vals = [_horner(num, X, D) for num in chain]
    if not vals[0]:
        raise EndpointIsRoot("interval endpoint is a root")
    return _variations(vals)


def _chain_count(chain: Sequence[Sequence[int]], L: int, H: int, D: int) -> int:
    """Roots in (L/D, H/D) of the squarefree polynomial whose Sturm chain has
    the members' numerators chain, for L < H.

    Callers that count one polynomial on many intervals build its chain once.
    """
    return _variations_at(chain, L, D) - _variations_at(chain, H, D)


def sturm_count(p: UniPoly, lo, hi) -> int:
    """Number of distinct real roots of squarefree p in the open interval (lo, hi)."""
    lo, hi = _fr(lo), _fr(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ZeroPolynomial("Sturm count of the zero polynomial")
    chain = sturm_chain(p)
    # the chain ends in gcd(p, p') up to a constant
    if chain[-1].degree > 0:
        raise NotSquarefree("Sturm count requires a squarefree polynomial")
    return _chain_count([q._num for q in chain], *_triple(lo, hi))


def cauchy_bound(p: UniPoly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    if p.is_zero():
        raise ZeroPolynomial("Cauchy bound of the zero polynomial")
    num = p._num
    m = max((abs(c) for c in num[:-1]), default=0)
    return Fraction(1) + Fraction(m, abs(num[-1]))


@dataclass(frozen=True)
class RootBox:
    """Isolating open interval for one distinct real root of `poly` (squarefree)."""

    low: Fraction
    high: Fraction
    exact_value: Fraction | None
    poly: UniPoly

    def refined(self, times: int = 1) -> "RootBox":
        v = self.exact_value
        if v is not None:
            # each refinement halves the distance of both endpoints to v
            k = 2**times
            return RootBox(v + (self.low - v) / k, v + (self.high - v) / k, v, self.poly)
        L, H, D = _triple(self.low, self.high)
        num = self.poly._num
        slo = _horner(num, L, D) > 0
        for _ in range(times):
            half = _halve(num, L, H, D, slo)
            if half is None:
                # the midpoint is the root: a window of half the width around it
                return RootBox(
                    Fraction(3 * L + H, 4 * D), Fraction(L + 3 * H, 4 * D), Fraction(L + H, 2 * D),
                    self.poly,
                )
            (L, H), D = half, 2 * D
        return RootBox(Fraction(L, D), Fraction(H, D), None, self.poly)

    def width(self) -> Fraction:
        return self.high - self.low


def _rational_root_in(q: UniPoly, L: int, H: int, D: int, a: int) -> Fraction | None:
    """The root of squarefree q in its isolating box [L/D, H/D] when it is rational.

    a is the leading coefficient of q's primitive integer form, so every
    rational root of q is k/a for an integer k.  Bisecting the box below
    width 1/a leaves one candidate, k = floor(a*low) + 1.  The bisection
    runs on integers: each midpoint is (L+H)/2D, and its sign is that of
    homogeneous Horner on q's numerators.
    """
    num = q._num
    high = Fraction(H, D)
    slo = _horner(num, L, D) > 0
    while a * (H - L) >= D:
        half = _halve(num, L, H, D, slo)
        if half is None:
            return Fraction(L + H, 2 * D)
        (L, H), D = half, 2 * D
    v = Fraction(a * L // D + 1, a)
    return v if v < high and q.sign_at(v) == 0 else None


def _bisect(p: UniPoly, chain: Sequence[Sequence[int]]) -> list[tuple[int, int, int, Fraction | None]]:
    """Isolating boxes (L, H, D, exact root or None) of the distinct real roots
    of p, ordered left to right.

    chain holds the numerators of a Sturm sequence whose variations count the
    distinct roots of p between two points that are not roots.  Boxes are
    halved from a work list, left half on top, so boxes come off it in
    order.  A midpoint that is a root gets a window around it, halved until
    it holds that root alone.
    """
    num = p._num
    bound = cauchy_bound(p)
    L, H, D = -bound.numerator, bound.numerator, bound.denominator
    # nudge endpoints off roots (Cauchy bound is strict, but stay safe)
    while not _horner(num, L, D):
        L -= D
    while not _horner(num, H, D):
        H += D
    out = []
    # (L, H, D, variations at L/D and at H/D, the root when it is the midpoint of a window)
    work = [(L, H, D, _variations_at(chain, L, D), _variations_at(chain, H, D), None)]
    while work:
        L, H, D, vl, vh, exact = work.pop()
        n = vl - vh
        if n == 0:
            continue
        if n == 1:
            out.append((L, H, D, exact))
            continue
        M, E = L + H, 2 * D
        if _horner(num, M, E):
            vm = _variations_at(chain, M, E)
            work.append((M, 2 * H, E, vm, vh, None))
            work.append((2 * L, M, E, vl, vm, None))
            continue
        # shrink a window (M - W, M + W) / E around the exact root M / E,
        # halving W / E from (H - L) / 2D, until it isolates
        W = H - L
        for _ in range(20000):
            lo, hi = M - W, M + W
            if _horner(num, lo, E) and _horner(num, hi, E):
                va, vb = _variations_at(chain, lo, E), _variations_at(chain, hi, E)
                if va - vb == 1:
                    break
            M, E = 2 * M, 2 * E
        else:
            raise RuntimeError("root window refinement did not converge")
        k = E // D
        work.append((hi, H * k, E, vb, vh, None))
        work.append((lo, hi, E, va, vb, Fraction(L + H, 2 * D)))
        work.append((L * k, lo, E, vl, va, None))
    return out


def isolate_real_roots(p: UniPoly) -> list[RootBox]:
    """Disjoint isolating boxes, left to right, for the distinct real roots of p.

    p need not be squarefree: every box carries the monic radical of p as
    its `poly`.  exact_value is filled whenever the root is rational.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    radical, nums = p.monic(), None
    if p.degree > 1:
        chain = sturm_chain(p)
        g = chain[-1]
        if g.degree == 0:
            # p is squarefree and its chain is the radical's
            nums = [q._num for q in chain]
        else:
            # the last member is gcd(p, p') up to a constant; dividing every
            # member by it leaves a Sturm sequence of the radical p / gcd
            radical = p.exact_div(g).monic()
            nums = [_primitive(_pseudo_divmod(q._num, g._num, True)[0]) for q in chain]
    if radical.degree == 1:
        bound = cauchy_bound(radical)
        return [RootBox(-bound, bound, -radical.coeff(0), radical)]
    lead = radical.primitive_integer()[0].leading().numerator
    return [
        RootBox(
            Fraction(L, D), Fraction(H, D),
            exact if exact is not None else _rational_root_in(radical, L, H, D, lead), radical,
        )
        for L, H, D, exact in _bisect(radical, nums)
    ]


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p, repeated roots counted once.

    Sturm's theorem on the whole line: the sign variations of `sturm_chain(p)`
    at -inf minus those at +inf, read off the leading coefficients.  The
    chain ends in gcd(p, p'), and dividing every member by it (a sign that
    is constant near each infinity) changes no variation count, so p need
    not be squarefree.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot count the roots of the zero polynomial")
    chain = sturm_chain(p)
    at_pos = [1 if q._num[-1] > 0 else -1 for q in chain]
    at_neg = [-s if q.degree % 2 else s for s, q in zip(at_pos, chain)]
    return _variations(at_neg) - _variations(at_pos)


# -- exact arithmetic with algebraic numbers ---------------------------------


def box_sign(g: UniPoly, box: RootBox) -> int:
    """Exact sign of g at the algebraic number described by box."""
    if box.exact_value is not None:
        return g.sign_at(box.exact_value)
    if g.is_zero():
        return 0
    L, H, D = _triple(box.low, box.high)
    gnum = g._num
    # a sign certified on the whole box needs no common-root test
    s = _enclosure_sign(gnum, L, H, D)
    if s:
        return s
    h = gcd(g, box.poly)
    # h divides the squarefree poly, whose one root in the box is simple and
    # whose roots avoid the endpoints: h vanishes there iff it changes sign
    if h.degree > 0 and (_horner(h._num, L, D) > 0) != (_horner(h._num, H, D) > 0):
        return 0
    num = box.poly._num
    slo = _horner(num, L, D) > 0
    for _ in range(20000):
        half = _halve(num, L, H, D, slo)
        if half is None:
            # the midpoint is the root, which g does not share
            return g.sign_at(Fraction(L + H, 2 * D))
        (L, H), D = half, 2 * D
        s = _enclosure_sign(gnum, L, H, D)
        if s:
            return s
    raise RuntimeError("sign refinement did not converge")


@dataclass(frozen=True, eq=False)
class BoxedValue:
    """An element of Q[u]/(P) read at the real root of P that `box` isolates.

    `poly` is kept reduced modulo `modulus`, a squarefree divisor of
    `box.poly` that keeps the root (`box.poly` unless given).  The modulus
    need not be irreducible, so `sign`, `is_zero` and == read the root (one
    `box_sign`), not `poly`.  `inverse` splits the modulus at a zero divisor
    and keeps the factor that holds the root: the D5 principle of Della
    Dora, Dicrescenzo and Duval (EUROCAL 1985).  Values with different
    moduli, which must share the root, combine modulo the gcd of the
    moduli; rational scalars mix in +, - and *.
    """

    poly: UniPoly
    box: RootBox
    modulus: UniPoly | None = None

    def __post_init__(self) -> None:
        m = self.box.poly if self.modulus is None else self.modulus
        object.__setattr__(self, "modulus", m)
        if self.poly.degree >= m.degree:
            object.__setattr__(self, "poly", self.poly % m)

    def _operands(self, other) -> tuple[UniPoly, UniPoly, UniPoly]:
        """(a, b, m): representatives of self and other modulo one modulus m."""
        m = self.modulus
        if not isinstance(other, BoxedValue):
            return self.poly, UniPoly.const(other), m
        if other.modulus == m:
            return self.poly, other.poly, m
        m = gcd(m, other.modulus)
        if m.degree < 1:
            raise ValueError("the two moduli share no root")
        return self.poly % m, other.poly % m, m

    def __add__(self, other) -> "BoxedValue":
        a, b, m = self._operands(other)
        return BoxedValue(a + b, self.box, m)

    def __mul__(self, other) -> "BoxedValue":
        if not isinstance(other, BoxedValue):
            return BoxedValue(self.poly.scale(other), self.box, self.modulus)
        a, b, m = self._operands(other)
        return BoxedValue(a * b, self.box, m)

    def __neg__(self) -> "BoxedValue":
        return self * -1

    def __sub__(self, other) -> "BoxedValue":
        return self + -other

    def __eq__(self, other) -> bool:
        return (self - other).is_zero()

    def inverse(self) -> "BoxedValue":
        """1/self at the root, by extended Euclid on (modulus, poly).

        A nonconstant gcd g vanishes at the root exactly when self does,
        which raises ZeroDivisionError; otherwise the root is one of
        modulus / g, which is coprime to poly, and the inverse is taken there.
        """
        r0, r1, s0, s1 = self.modulus, self.poly, _ZERO, _ONE
        while r1:
            q, r = r0.divmod(r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        if r0.degree == 0:
            return BoxedValue(s0.scale(1 / r0.leading()), self.box, self.modulus)
        if box_sign(r0, self.box) == 0:
            raise ZeroDivisionError("the value vanishes at the boxed root")
        return BoxedValue(self.poly, self.box, self.modulus.exact_div(r0)).inverse()

    def sign(self) -> int:
        return box_sign(self.poly, self.box)

    def is_zero(self) -> bool:
        return self.sign() == 0

    def value_of(self, p: UniPoly) -> "BoxedValue":
        """p(self)."""
        return BoxedValue(p.compose(self.poly), self.box, self.modulus)


def _common(a: RootBox, b: RootBox) -> tuple[int, int, int, int, int]:
    """(La, Ha, Lb, Hb, D): the bounds of both boxes over one denominator D."""
    La, Ha, Da = _triple(a.low, a.high)
    Lb, Hb, Db = _triple(b.low, b.high)
    D = lcm(Da, Db)
    ka, kb = D // Da, D // Db
    return La * ka, Ha * ka, Lb * kb, Hb * kb, D


def _equals_rational(v: Fraction, box: RootBox) -> bool:
    """Whether the algebraic number behind box is v."""
    return box_sign(UniPoly.linear_root(v), box) == 0


def boxes_equal(a: RootBox, b: RootBox) -> bool:
    """Whether two isolating boxes describe the same real algebraic number."""
    if a.exact_value is not None:
        return _equals_rational(a.exact_value, b)
    if b.exact_value is not None:
        return _equals_rational(b.exact_value, a)
    La, Ha, Lb, Hb, D = _common(a, b)
    if Ha <= Lb or Hb <= La:
        return False
    h = gcd(a.poly, b.poly)
    if h.degree == 0:
        return False
    # box endpoints are never roots of the defining polynomials, hence not
    # of h, which divides both and is squarefree: one chain serves every count
    chain = [q._num for q in sturm_chain(h)]
    if _chain_count(chain, La, Ha, D) == 0 or _chain_count(chain, Lb, Hb, D) == 0:
        return False
    na, nb = a.poly._num, b.poly._num
    sa, sb = _horner(na, La, D) > 0, _horner(nb, Lb, D) > 0
    for _ in range(20000):
        if Ha <= Lb or Hb <= La:
            return False
        if _chain_count(chain, min(La, Lb), max(Ha, Hb), D) == 1:
            # one common root in the union, and each box holds a root of h
            return True
        ha, hb = _halve(na, La, Ha, D, sa), _halve(nb, Lb, Hb, D, sb)
        if ha is None:
            return _equals_rational(Fraction(La + Ha, 2 * D), b)
        if hb is None:
            return _equals_rational(Fraction(Lb + Hb, 2 * D), a)
        (La, Ha), (Lb, Hb), D = ha, hb, 2 * D
    raise RuntimeError("equality refinement did not converge")


def box_compare(a: RootBox, b: RootBox) -> int:
    """-1, 0, 1 ordering of the algebraic numbers behind two boxes."""
    if boxes_equal(a, b):
        return 0
    # once one number is a rational v, the order is the sign of the other minus v
    if a.exact_value is not None:
        return -box_sign(UniPoly.linear_root(a.exact_value), b)
    if b.exact_value is not None:
        return box_sign(UniPoly.linear_root(b.exact_value), a)
    La, Ha, Lb, Hb, D = _common(a, b)
    na, nb = a.poly._num, b.poly._num
    sa, sb = _horner(na, La, D) > 0, _horner(nb, Lb, D) > 0
    for _ in range(20000):
        if Ha <= Lb:
            return -1
        if Hb <= La:
            return 1
        ha, hb = _halve(na, La, Ha, D, sa), _halve(nb, Lb, Hb, D, sb)
        if ha is None:
            return -box_sign(UniPoly.linear_root(Fraction(La + Ha, 2 * D)), b)
        if hb is None:
            return box_sign(UniPoly.linear_root(Fraction(Lb + Hb, 2 * D)), a)
        (La, Ha), (Lb, Hb), D = ha, hb, 2 * D
    raise RuntimeError("order refinement did not converge")
