"""Exact bivariate polynomials over the rationals.

Terms are stored sparsely as a map from exponent pairs to nonzero rational
coefficients.  The module also carries the elimination machinery used by the
intersection engine: Sylvester resultants and subresultants as fraction-free
Bareiss determinants of Sylvester minors, and splitting of binary quadratic
forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd as igcd

from .numbers import sqrt_fraction
from .unipoly import UniPoly, gcd as uni_gcd


class DegenerateInput(ValueError):
    """Raised when elimination is asked to remove a variable that is absent."""


class NotBinaryQuadratic(ValueError):
    pass


Rat = Fraction | int


def _frac(v: Rat) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class BiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                c = _frac(c)
                if c:
                    cleaned[(i, j)] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> BiPoly:
        return BiPoly()

    @staticmethod
    def const(c: Rat) -> BiPoly:
        return BiPoly({(0, 0): _frac(c)})

    @staticmethod
    def x() -> BiPoly:
        return BiPoly({(1, 0): Fraction(1)})

    @staticmethod
    def y() -> BiPoly:
        return BiPoly({(0, 1): Fraction(1)})

    @staticmethod
    def term(c: Rat, i: int, j: int) -> BiPoly:
        return BiPoly({(i, j): _frac(c)})

    # -- shape -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    @property
    def deg_x(self) -> int:
        if not self.terms:
            return -1
        return max(i for i, _ in self.terms)

    @property
    def deg_y(self) -> int:
        if not self.terms:
            return -1
        return max(j for _, j in self.terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        from .polyparse import format_bipoly

        return f"BiPoly({format_bipoly(self)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: BiPoly) -> BiPoly:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BiPoly(out)

    def __neg__(self) -> BiPoly:
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: BiPoly) -> BiPoly:
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BiPoly(out)

    def scale(self, c: Rat) -> BiPoly:
        c = _frac(c)
        if not c:
            return BiPoly.zero()
        return BiPoly({k: v * c for k, v in self.terms.items()})

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and evaluation --------------------------------------------

    def partial_x(self) -> BiPoly:
        return BiPoly({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def partial_y(self) -> BiPoly:
        return BiPoly({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})

    def __call__(self, a: Rat, b: Rat) -> Fraction:
        a, b = _frac(a), _frac(b)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * a**i * b**j
        return total

    def homogeneous_part(self, d: int) -> BiPoly:
        return BiPoly({k: c for k, c in self.terms.items() if k[0] + k[1] == d})

    def leading_form(self) -> BiPoly:
        return self.homogeneous_part(self.total_degree)

    def monomial_content(self) -> tuple[int, int]:
        """Largest (i, j) with x^i * y^j dividing every term."""
        if not self.terms:
            return (0, 0)
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def shift_down(self, i0: int, j0: int) -> BiPoly:
        """Exact division by x^i0 * y^j0."""
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            if i < i0 or j < j0:
                raise ValueError("monomial does not divide")
            out[(i - i0, j - j0)] = c
        return BiPoly(out)

    # -- substitutions ---------------------------------------------------

    def translate(self, a: Rat, b: Rat) -> BiPoly:
        """The polynomial F(x + a, y + b), moving the point (a, b) to the origin."""
        a, b = _frac(a), _frac(b)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            for k in range(i + 1):
                ca = c * comb(i, k) * a ** (i - k)
                for m in range(j + 1):
                    key = (k, m)
                    out[key] = out.get(key, Fraction(0)) + ca * comb(j, m) * b ** (j - m)
        return BiPoly(out)

    def compose_linear(self, a: Rat, b: Rat, c: Rat, d: Rat) -> BiPoly:
        """Substitute x -> a*x + b*y and y -> c*x + d*y."""
        nx = BiPoly({(1, 0): _frac(a), (0, 1): _frac(b)})
        ny = BiPoly({(1, 0): _frac(c), (0, 1): _frac(d)})
        out = BiPoly.zero()
        xp = _PowerCache(nx)
        yp = _PowerCache(ny)
        for (i, j), coef in self.terms.items():
            out = out + (xp[i] * yp[j]).scale(coef)
        return out

    def swap_vars(self) -> BiPoly:
        return BiPoly({(j, i): c for (i, j), c in self.terms.items()})

    def specialize_x(self, a: Rat) -> UniPoly:
        """F(a, t) as a univariate polynomial in the second variable."""
        a = _frac(a)
        coeffs = [Fraction(0)] * (self.deg_y + 1) if self.terms else []
        for (i, j), c in self.terms.items():
            coeffs[j] += c * a**i
        return UniPoly(coeffs)

    def specialize_y(self, b: Rat) -> UniPoly:
        return self.swap_vars().specialize_x(b)

    def substitute(self, xp: UniPoly, yp: UniPoly) -> UniPoly:
        """F(xp(t), yp(t)) as a univariate polynomial."""
        xc = _PowerCache(xp)
        yc = _PowerCache(yp)
        out = UniPoly.zero()
        for (i, j), c in self.terms.items():
            out = out + (xc[i] * yc[j]).scale(c)
        return out

    def compose_rational(self, A: UniPoly, B: UniPoly, C: UniPoly) -> UniPoly:
        """Clear denominators in F(A/C, B/C): returns C^d * F(A/C, B/C) for d the total degree."""
        d = self.total_degree
        if d < 0:
            return UniPoly.zero()
        ac = _PowerCache(A)
        bc = _PowerCache(B)
        cc = _PowerCache(C)
        out = UniPoly.zero()
        for (i, j), c in self.terms.items():
            out = out + (ac[i] * bc[j] * cc[d - i - j]).scale(c)
        return out

    # -- views as a univariate polynomial over UniPoly coefficients ---------

    def as_y_polynomial(self) -> list[UniPoly]:
        """Coefficient list [c_0(x), ..., c_m(x)] with F = sum c_j(x) y^j."""
        if not self.terms:
            return []
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.deg_y + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        out = []
        for row in rows:
            if row:
                coeffs = [Fraction(0)] * (max(row) + 1)
                for i, c in row.items():
                    coeffs[i] = c
                out.append(UniPoly(coeffs))
            else:
                out.append(UniPoly.zero())
        return out

    @staticmethod
    def from_unipoly_in_x(p: UniPoly) -> BiPoly:
        return BiPoly({(i, 0): c for i, c in enumerate(p.coeffs) if c})

    def content_wrt_y(self) -> UniPoly:
        """Gcd over the x-line of the y-coefficients (monic, or zero)."""
        g = UniPoly.zero()
        for p in self.as_y_polynomial():
            g = uni_gcd(g, p)
        return g


class _PowerCache:
    """Lazy powers of a fixed polynomial, shared across one substitution."""

    def __init__(self, base):
        self.base = base
        one = UniPoly.one() if isinstance(base, UniPoly) else BiPoly.const(1)
        self.known = [one]

    def __getitem__(self, n: int):
        while len(self.known) <= n:
            self.known.append(self.known[-1] * self.base)
        return self.known[n]


# -- resultants ------------------------------------------------------------


def _det_bareiss(mat: list[list[UniPoly]]) -> UniPoly:
    """Fraction-free determinant of a matrix of exact polynomials."""
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
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = UniPoly.zero()
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out.scale(-1) if sign < 0 else out


def _detpol_subresultant(fy: list[UniPoly], gy: list[UniPoly], j: int) -> list[UniPoly]:
    """Coefficients (degrees 0..j in y) of the j-th subresultant, as Sylvester
    minors; j = 0 gives the whole Sylvester matrix, whose determinant is the
    resultant."""
    m, n = len(fy) - 1, len(gy) - 1
    rows: list[list[UniPoly]] = []
    width = m + n - j
    for e in range(n - j - 1, -1, -1):
        rows.append(_coeff_row(fy, e, width))
    for e in range(m - j - 1, -1, -1):
        rows.append(_coeff_row(gy, e, width))
    r = len(rows)
    out: list[UniPoly] = []
    for k in range(j + 1):
        cols = list(range(r - 1)) + [width - 1 - k]
        minor = [[row[c] for c in cols] for row in rows]
        out.append(_det_bareiss(minor))
    return out


def _coeff_row(poly: list[UniPoly], shift: int, width: int) -> list[UniPoly]:
    """Coefficient vector of y^shift * poly, columns by descending y-degree."""
    row = [UniPoly.zero()] * width
    for i, c in enumerate(poly):
        deg = i + shift
        row[width - 1 - deg] = c
    return row


def resultant_y(F: BiPoly, G: BiPoly) -> UniPoly:
    """Resultant eliminating y, as a polynomial in x (Sylvester determinant)."""
    fy = F.as_y_polynomial()
    gy = G.as_y_polynomial()
    if len(fy) < 2 or len(gy) < 2:
        raise DegenerateInput("both inputs must actually involve the eliminated variable")
    return _detpol_subresultant(fy, gy, 0)[0]


def have_common_factor(F: BiPoly, G: BiPoly) -> bool:
    """Whether two nonzero curves share a component."""
    if F.is_zero() or G.is_zero():
        raise ValueError("inputs must be nonzero")
    if F.deg_y == 0 and G.deg_y == 0:
        return uni_gcd(F.specialize_y(0), G.specialize_y(0)).degree > 0
    if F.deg_y == 0:
        return _content_shares_factor(F.specialize_y(0), G)
    if G.deg_y == 0:
        return _content_shares_factor(G.specialize_y(0), F)
    cf, cg = F.content_wrt_y(), G.content_wrt_y()
    if uni_gcd(cf, cg).degree > 0:
        return True
    if _content_shares_factor(cf, G) or _content_shares_factor(cg, F):
        return True
    return resultant_y(F, G).is_zero()


def _content_shares_factor(p: UniPoly, G: BiPoly) -> bool:
    if p.degree <= 0:
        return False
    g = G.content_wrt_y()
    return uni_gcd(p, g).degree > 0


# -- binary quadratic forms --------------------------------------------------


class QuadraticSplitKind(Enum):
    ZERO = "zero"
    PERFECT_SQUARE = "perfect_square"
    TWO_DISTINCT_REAL = "two_distinct_real_factors"
    IRREDUCIBLE_OVER_REALS = "irreducible_over_reals"


@dataclass(frozen=True)
class QuadraticSplit:
    kind: QuadraticSplitKind
    discriminant: Fraction
    factors: tuple[BiPoly, BiPoly] | None = None
    repeated_factor: BiPoly | None = None


def _primitive_linear(a: Fraction, b: Fraction) -> BiPoly:
    """a*x + b*y scaled to coprime integer coefficients with positive leading entry."""
    form = BiPoly({(1, 0): a, (0, 1): b})
    lcm_den = 1
    for c in (a, b):
        if c:
            lcm_den = lcm_den * c.denominator // igcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in (a, b)]
    g = 0
    for v in ints:
        g = igcd(g, v)
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return form.scale(Fraction(lcm_den, g))


def split_binary_quadratic(Q: BiPoly) -> QuadraticSplit:
    """Factor a real binary quadratic form into linear forms where possible."""
    if Q.is_zero():
        return QuadraticSplit(QuadraticSplitKind.ZERO, Fraction(0))
    if any(i + j != 2 for i, j in Q.terms):
        raise NotBinaryQuadratic("expected a homogeneous form of degree two")
    a, b, c = Q.coeff(2, 0), Q.coeff(1, 1), Q.coeff(0, 2)
    disc = b * b - 4 * a * c
    if disc < 0:
        return QuadraticSplit(QuadraticSplitKind.IRREDUCIBLE_OVER_REALS, disc)
    if disc == 0:
        if a:
            rep = _primitive_linear(2 * a, b)
        else:
            # disc = b^2 = 0 here, so the form is c*y^2
            rep = BiPoly.y()
        return QuadraticSplit(QuadraticSplitKind.PERFECT_SQUARE, disc, repeated_factor=rep)
    root = sqrt_fraction(disc)
    if root is None:
        return QuadraticSplit(QuadraticSplitKind.TWO_DISTINCT_REAL, disc)
    if a:
        f1 = _primitive_linear(2 * a, b - root)
        f2 = _primitive_linear(2 * a, b + root)
    else:
        f1 = BiPoly.y()
        f2 = _primitive_linear(b, c)
    return QuadraticSplit(QuadraticSplitKind.TWO_DISTINCT_REAL, disc, factors=(f1, f2))
