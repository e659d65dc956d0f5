"""Dense univariate polynomials over the rationals.

Everything in here is exact: coefficients are fractions.Fraction, real roots are
isolated by Sturm bisection inside the Cauchy bound, and numbers that happen to
be rational are recognised exactly (monic integer transform plus unit-interval
bisection, no factoring).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd as int_gcd
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
    """Immutable dense polynomial; coeffs[i] is the coefficient of t**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly((0, 1))

    @staticmethod
    def linear_root(a) -> "UniPoly":
        """t - a."""
        return UniPoly((-_fr(a), Fraction(1)))

    # -- basic structure ----------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        from .polyparse import format_unipoly

        return f"UniPoly({format_unipoly(self)!r})"

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        c = _fr(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(tuple(k * c for k in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c:
                f = c / lead
                q[i - dn] = f
                for j, oc in enumerate(other.coeffs):
                    rem[i - dn + j] -= f * oc
        return UniPoly(q), UniPoly(rem[:dn])

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        return self.divmod(other)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i >= 1))

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    # -- evaluation -----------------------------------------------------
    def __call__(self, t) -> Fraction:
        acc = Fraction(0)
        t = _fr(t)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_float(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc

    def eval_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Enclosure of the image of [lo, hi] (interval Horner)."""
        alo, ahi = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c)
        return acc

    def reverse(self) -> "UniPoly":
        """t**deg * p(1/t)."""
        return UniPoly(tuple(reversed(self.coeffs)))

    # -- integer normalisation -------------------------------------------
    def primitive_integer(self) -> tuple["UniPoly", Fraction]:
        """Return (q, c) with q = self / c, q having coprime integer coefficients and positive lead."""
        if self.is_zero():
            return self, Fraction(1)
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        sign = 1 if ints[-1] > 0 else -1
        g *= sign
        return UniPoly([Fraction(v, g) for v in ints]), Fraction(g, den)


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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
    out = []
    d = p.derivative()
    a = gcd(p, d)
    b = p.exact_div(a)
    c = d.exact_div(a)
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


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p]
    d = p.derivative()
    if d.is_zero():
        return chain
    chain.append(d)
    while True:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            return chain
        # normalise by positive content only, so the sign pattern of -r survives
        prim, c = r.primitive_integer()
        chain.append(prim.scale(-1) if c > 0 else prim)


def _variations(vals: Sequence[int]) -> int:
    out = 0
    prev = 0
    for v in vals:
        if v == 0:
            continue
        if prev and v != prev:
            out += 1
        prev = v
    return out


def sturm_count(p: UniPoly, lo, hi) -> int:
    """Number of distinct real roots of squarefree p in the open interval (lo, hi)."""
    lo, hi = _fr(lo), _fr(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero():
        raise ZeroPolynomial("Sturm count of the zero polynomial")
    g = gcd(p, p.derivative())
    if g.degree > 0:
        raise NotSquarefree("Sturm count requires a squarefree polynomial")
    if p(lo) == 0 or p(hi) == 0:
        raise EndpointIsRoot("interval endpoint is a root")
    chain = sturm_chain(p)
    va = _variations([_sign(q(lo)) for q in chain])
    vb = _variations([_sign(q(hi)) for q in chain])
    return va - vb


def cauchy_bound(p: UniPoly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    if p.is_zero():
        raise ZeroPolynomial("Cauchy bound of the zero polynomial")
    lead = abs(p.leading())
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


@dataclass(frozen=True)
class RootBox:
    """Isolating open interval for one distinct real root of `poly` (squarefree)."""

    low: Fraction
    high: Fraction
    multiplicity: int
    exact_value: Fraction | None
    poly: UniPoly

    def refined(self, times: int = 1) -> "RootBox":
        if self.exact_value is not None:
            lo, hi = self.low, self.high
            v = self.exact_value
            for _ in range(times):
                lo = (lo + v) / 2
                hi = (hi + v) / 2
            return RootBox(lo, hi, self.multiplicity, v, self.poly)
        lo, hi = self.low, self.high
        slo = _sign(self.poly(lo))
        for _ in range(times):
            mid = (lo + hi) / 2
            sm = _sign(self.poly(mid))
            if sm == 0:
                eps = (hi - lo) / 4
                return RootBox(mid - eps, mid + eps, self.multiplicity, mid, self.poly)
            if sm == slo:
                lo = mid
            else:
                hi = mid
        return RootBox(lo, hi, self.multiplicity, None, self.poly)

    def width(self) -> Fraction:
        return self.high - self.low

    def as_float(self) -> float:
        if self.exact_value is not None:
            return float(self.exact_value)
        return float((self.low + self.high) / 2)


def _rational_roots(q: UniPoly) -> list[Fraction]:
    """All rational roots of q, found without factoring integers.

    Uses the monic transform m(s) = lc**(d-1) q(s/lc): rational roots of q are
    integer roots of m divided by lc, and integer roots are pinned down by
    bisecting each isolating interval below unit width.
    """
    qi, _ = q.primitive_integer()
    lead = int(qi.leading())
    d = qi.degree
    if d == 0:
        return []
    # m(s) = lead**(d-1) * qi(s/lead): coefficients lead**(d-1-i) * a_i
    m = UniPoly([qi.coeff(i) * Fraction(lead) ** (d - 1 - i) for i in range(d + 1)])
    roots = []
    for box in _isolate_squarefree(squarefree_part(m)):
        lo, hi = box.low, box.high
        if box.exact_value is not None:
            v = box.exact_value
            if v.denominator == 1 and m(v) == 0:
                roots.append(Fraction(int(v), lead))
            continue
        slo = _sign(m(lo))
        while hi - lo >= 1:
            mid = (lo + hi) / 2
            sm = _sign(m(mid))
            if sm == 0:
                lo = hi = mid
                break
            if sm == slo:
                lo = mid
            else:
                hi = mid
        if lo == hi:
            v = lo
            if v.denominator == 1:
                roots.append(Fraction(int(v), lead))
            continue
        c0 = ceil(lo)
        if floor(hi) >= c0 and m(Fraction(c0)) == 0:
            roots.append(Fraction(c0, lead))
    return sorted(roots)


def _isolate_squarefree(p: UniPoly) -> list[RootBox]:
    """Isolating boxes for the distinct real roots of squarefree p (multiplicity set to 1)."""
    if p.degree <= 0:
        return []
    bound = cauchy_bound(p)
    lo, hi = -bound, bound
    # nudge endpoints off roots (Cauchy bound is strict, but stay safe)
    while p(lo) == 0:
        lo -= 1
    while p(hi) == 0:
        hi += 1
    chain = sturm_chain(p)

    def var_at(v: Fraction) -> int:
        return _variations([_sign(q(v)) for q in chain])

    out: list[RootBox] = []

    def rec(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append(RootBox(a, b, 1, None, p))
            return
        mid = (a + b) / 2
        if p(mid) == 0:
            eps = (b - a)
            # shrink a window around the exact root until it isolates
            for _ in range(20000):
                eps /= 2
                l2, h2 = mid - eps, mid + eps
                if p(l2) != 0 and p(h2) != 0 and var_at(l2) - var_at(h2) == 1:
                    break
            else:
                raise RuntimeError("root window refinement did not converge")
            out.append(RootBox(l2, h2, 1, mid, p))
            rec(a, l2, va, var_at(l2))
            rec(h2, b, var_at(h2), vb)
            return
        vm = var_at(mid)
        rec(a, mid, va, vm)
        rec(mid, b, vm, vb)

    rec(lo, hi, var_at(lo), var_at(hi))
    out.sort(key=lambda bx: (bx.low, bx.high))
    return out


def isolate_real_roots(p: UniPoly) -> list[RootBox]:
    """Disjoint isolating boxes for all distinct real roots of p, with multiplicities.

    exact_value is filled whenever the root is rational.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    parts = yun_decomposition(p)
    radical = UniPoly.one()
    for q, _ in parts:
        radical = radical * q
    radical = radical.monic()
    boxes = _isolate_squarefree(radical)
    rats = set(_rational_roots(radical))
    out = []
    for box in boxes:
        # every box holds a root of the radical, so a box that no earlier
        # Yun factor claims belongs to the last one without a Sturm count
        mult = parts[-1][1]
        for q, i in parts[:-1]:
            if box.exact_value is not None:
                if q(box.exact_value) == 0:
                    mult = i
                    break
            elif sturm_count(q, box.low, box.high) > 0:
                mult = i
                break
        exact = box.exact_value
        if exact is None:
            for r in rats:
                if box.low < r < box.high:
                    exact = r
                    break
        out.append(RootBox(box.low, box.high, mult, exact, radical))
    return out


def count_real_roots(p: UniPoly) -> int:
    return len(isolate_real_roots(p))


# -- exact arithmetic with algebraic numbers ---------------------------------


def box_sign(g: UniPoly, box: RootBox) -> int:
    """Exact sign of g at the algebraic number described by box."""
    if box.exact_value is not None:
        return _sign(g(box.exact_value))
    if g.is_zero():
        return 0
    h = gcd(g, box.poly)
    if h.degree > 0:
        b = box
        while h(b.low) == 0 or h(b.high) == 0:
            b = b.refined()
        if sturm_count(h, b.low, b.high) > 0:
            return 0
    b = box
    for _ in range(20000):
        lo, hi = g.eval_interval(b.low, b.high)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        b = b.refined()
    raise RuntimeError("sign refinement did not converge")


def boxes_equal(a: RootBox, b: RootBox) -> bool:
    """Whether two isolating boxes describe the same real algebraic number."""
    if a.exact_value is not None and b.exact_value is not None:
        return a.exact_value == b.exact_value
    if a.exact_value is not None:
        return box_sign(UniPoly.linear_root(a.exact_value), b) == 0
    if b.exact_value is not None:
        return box_sign(UniPoly.linear_root(b.exact_value), a) == 0
    h = gcd(a.poly, b.poly)
    if h.degree == 0:
        return False
    # box endpoints are never roots of the defining polynomials, hence not of h
    if sturm_count(h, a.low, a.high) == 0 or sturm_count(h, b.low, b.high) == 0:
        return False
    ra, rb = a, b
    for _ in range(20000):
        if ra.high <= rb.low or rb.high <= ra.low:
            return False
        lo, hi = min(ra.low, rb.low), max(ra.high, rb.high)
        if sturm_count(h, lo, hi) == 1:
            # one common root in the union, and each box holds a root of h
            return True
        ra, rb = ra.refined(), rb.refined()
    raise RuntimeError("equality refinement did not converge")


def box_compare(a: RootBox, b: RootBox) -> int:
    """-1, 0, 1 ordering of the algebraic numbers behind two boxes."""
    if boxes_equal(a, b):
        return 0
    ra, rb = a, b
    for _ in range(20000):
        if ra.high <= rb.low:
            return -1
        if rb.high <= ra.low:
            return 1
        ra = ra.refined()
        rb = rb.refined()
    raise RuntimeError("order refinement did not converge")

