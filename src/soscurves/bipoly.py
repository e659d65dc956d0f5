"""Exact bivariate polynomials over the rationals, computed on integers.

A polynomial is stored sparsely as integer numerators over one positive
common denominator, F = (sum n_ij x^i y^j) / den, with `_num` mapping each
exponent pair (i, j) to its nonzero numerator n_ij.  The pair is canonical:
gcd(den, n_ij...) = 1, and the zero polynomial is ({}, 1), so equal
polynomials have equal pairs.  Every ring operation runs on Python ints and
normalises once at the end, and so do the conversions to `UniPoly`
(`as_y_polynomial`, `specialize_x`, `substitute`, `compose_rational`):
evaluating at p/q is homogeneous, sum n_ij p^i q^(d-i).  `.terms` and
`.coeff` rebuild Fraction coefficients for callers.

The substitutions F(A/C, B/C) (`compose_rational`, and `substitute` with
C = 1) and F(ax + by, cx + dy) (`compose_linear`, with C the common
denominator of the forms) bring the arguments to one denominator and
evaluate the form sum n_ij A^i B^j C^(d-i-j) of total degree d in one
homogeneous Horner pass on integers: the numerators are split into rows by
the y-power j, row j is run by Horner in A from i = d - j down to 0, adding
n_ij C^(d-j-i) at step i, and the rows are joined by Horner in B.  No power
of A or B is ever formed, and a constant C = 1 keeps every power of C at 1.

The module also carries the elimination machinery used by the intersection
engine: Sylvester resultants and subresultants as fraction-free Bareiss
determinants of Sylvester minors, and splitting of binary quadratic forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd as igcd, lcm

from .numbers import sqrt_fraction
from .unipoly import UniPoly, _canonical as _uni_canonical, _conv, _make as _uni_make, _pseudo_divmod, gcd as uni_gcd


class DegenerateInput(ValueError):
    """Raised when elimination is asked to remove a variable that is absent."""


class NotBinaryQuadratic(ValueError):
    pass


Rat = Fraction | int


def _ratio(v: Rat) -> tuple[int, int]:
    """Numerator and positive denominator of a rational."""
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return v.numerator, v.denominator


class BiPoly:
    """Immutable sparse polynomial (sum of _num[i, j] * x**i * y**j) / _den in canonical form."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: dict[tuple[int, int], Rat] | None = None):
        num: dict[tuple[int, int], int] = {}
        den = 1
        if terms:
            pairs = {k: _ratio(c) for k, c in terms.items()}
            den = lcm(*(d for _, d in pairs.values()))
            num = {k: n * (den // d) for k, (n, d) in pairs.items()}
        num, den = _canonical(num, den)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> BiPoly:
        return _ZERO

    @staticmethod
    def const(c: Rat) -> BiPoly:
        return BiPoly({(0, 0): c})

    @staticmethod
    def x() -> BiPoly:
        return _make({(1, 0): 1}, 1)

    @staticmethod
    def y() -> BiPoly:
        return _make({(0, 1): 1}, 1)

    # -- shape -------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """terms[i, j] is the nonzero coefficient of x**i * y**j (a new dict)."""
        den = self._den
        return {k: Fraction(c, den) for k, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    @property
    def total_degree(self) -> int:
        if not self._num:
            return -1
        return max(i + j for i, j in self._num)

    @property
    def deg_x(self) -> int:
        if not self._num:
            return -1
        return max(i for i, _ in self._num)

    @property
    def deg_y(self) -> int:
        if not self._num:
            return -1
        return max(j for _, j in self._num)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._num.get((i, j), 0), self._den)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self) -> str:
        from .polyparse import format_bipoly

        return f"BiPoly({format_bipoly(self)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: BiPoly) -> BiPoly:
        a, b = self._num, other._num
        if not b:
            return self
        if not a:
            return other
        den, db = self._den, other._den
        ka = kb = 1
        if den != db:
            g = igcd(den, db)
            ka, kb = db // g, den // g
        out = {k: c * ka for k, c in a.items()}
        get = out.get
        for k, c in b.items():
            out[k] = get(k, 0) + c * kb
        return _make(*_canonical(out, den * ka))

    def __neg__(self) -> BiPoly:
        return _make({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: BiPoly) -> BiPoly:
        return self + (-other)

    def __mul__(self, other: BiPoly) -> BiPoly:
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                out[key] = get(key, 0) + c1 * c2
        return _make(*_canonical(out, self._den * other._den))

    def scale(self, c: Rat) -> BiPoly:
        n, d = _ratio(c)
        if not n:
            return _ZERO
        if n == d == 1:
            return self
        return _make(*_canonical({k: v * n for k, v in self._num.items()}, self._den * d))

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return BiPoly.const(1)
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

    # -- calculus and evaluation --------------------------------------------

    def partial_x(self) -> BiPoly:
        return _make(*_canonical({(i - 1, j): c * i for (i, j), c in self._num.items() if i}, self._den))

    def partial_y(self) -> BiPoly:
        return _make(*_canonical({(i, j - 1): c * j for (i, j), c in self._num.items() if j}, self._den))

    def __call__(self, a: Rat, b: Rat) -> Fraction:
        num = self._num
        if not num:
            return Fraction(0)
        (p, q), (r, s) = _ratio(a), _ratio(b)
        dx, dy = self.deg_x, self.deg_y
        xs, ys = _homogeneous_powers(p, q, dx), _homogeneous_powers(r, s, dy)
        total = sum(c * xs[i] * ys[j] for (i, j), c in num.items())
        return Fraction(total, self._den * q**dx * s**dy)

    def homogeneous_part(self, d: int) -> BiPoly:
        return _make(*_canonical({k: c for k, c in self._num.items() if k[0] + k[1] == d}, self._den))

    def leading_form(self) -> BiPoly:
        return self.homogeneous_part(self.total_degree)

    def monomial_content(self) -> tuple[int, int]:
        """Largest (i, j) with x^i * y^j dividing every term."""
        if not self._num:
            return (0, 0)
        return (min(i for i, _ in self._num), min(j for _, j in self._num))

    def shift_down(self, i0: int, j0: int) -> BiPoly:
        """Exact division by x^i0 * y^j0."""
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._num.items():
            if i < i0 or j < j0:
                raise ValueError("monomial does not divide")
            out[(i - i0, j - j0)] = c
        return _make(out, self._den)

    # -- substitutions ---------------------------------------------------

    def translate(self, a: Rat, b: Rat) -> BiPoly:
        """The polynomial F(x + a, y + b), moving the point (a, b) to the origin."""
        num = self._num
        if not num:
            return _ZERO
        (p, q), (r, s) = _ratio(a), _ratio(b)
        dx, dy = self.deg_x, self.deg_y
        # times q^dx * s^dy, a^e becomes xs[e] = p^e * q^(dx - e), and b^e likewise
        xs, ys = _homogeneous_powers(p, q, dx), _homogeneous_powers(r, s, dy)
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in num.items():
            for k in range(i + 1):
                ca = c * comb(i, k) * xs[i - k]
                for m in range(j + 1):
                    key = (k, m)
                    out[key] = out.get(key, 0) + ca * comb(j, m) * ys[j - m]
        return _make(*_canonical(out, self._den * q**dx * s**dy))

    def compose_linear(self, a: Rat, b: Rat, c: Rat, d: Rat) -> BiPoly:
        """Substitute x -> a*x + b*y and y -> c*x + d*y."""
        num = self._num
        if not num:
            return _ZERO
        # over one denominator L the forms are X / L and Y / L with integer
        # X, Y, and L^n F(X/L, Y/L) is the form at (X, Y, L)
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = (_ratio(v) for v in (a, b, c, d))
        L = lcm(ad, bd, cd, dd)
        X = (an * (L // ad), bn * (L // bd))
        Y = (cn * (L // cd), dn * (L // dd))
        n = self.total_degree
        out: dict[tuple[int, int], int] = {}
        rows = _rows(num, self.deg_y)
        for j in range(len(rows) - 1, -1, -1):
            row, acc = rows[j], {}
            for i in range(n - j, -1, -1):
                acc = _times_linear(acc, X, {(0, 0): row[i] * L ** (n - j - i)} if i in row else {})
            out = _times_linear(out, Y, acc)
        return _make(*_canonical(out, self._den * L**n))

    def swap_vars(self) -> BiPoly:
        return _make({(j, i): c for (i, j), c in self._num.items()}, self._den)

    def specialize_x(self, a: Rat) -> UniPoly:
        """F(a, t) as a univariate polynomial in the second variable."""
        num = self._num
        if not num:
            return UniPoly.zero()
        p, q = _ratio(a)
        dx = self.deg_x
        xs = _homogeneous_powers(p, q, dx)
        out = [0] * (self.deg_y + 1)
        for (i, j), c in num.items():
            out[j] += c * xs[i]
        return _uni(out, self._den * q**dx)

    def specialize_y(self, b: Rat) -> UniPoly:
        return self.swap_vars().specialize_x(b)

    def substitute(self, xp: UniPoly, yp: UniPoly) -> UniPoly:
        """F(xp(t), yp(t)) as a univariate polynomial."""
        return self.compose_rational(xp, yp, UniPoly.one())

    def compose_rational(self, A: UniPoly, B: UniPoly, C: UniPoly) -> UniPoly:
        """Clear denominators in F(A/C, B/C): returns C^d * F(A/C, B/C) for d the total degree."""
        d = self.total_degree
        if d < 0:
            return UniPoly.zero()
        # over one denominator L the form sum n_ij A^i B^j C^(d-i-j) is L^-d
        # times the same form at the integer numerators a, b, c
        L = lcm(A._den, B._den, C._den)
        a, b, c = ([v * (L // P._den) for v in P._num] for P in (A, B, C))
        cs = [[1]]
        for _ in range(d):
            cs.append(_conv(cs[-1], c))
        out: list[int] = []
        rows = _rows(self._num, self.deg_y)
        for j in range(len(rows) - 1, -1, -1):
            row, acc = rows[j], []
            for i in range(d - j, -1, -1):
                acc = _conv(acc, a)
                if i in row:
                    _add_into(acc, row[i], cs[d - j - i])
            out = _conv(out, b)
            _add_into(out, 1, acc)
        return _uni(out, self._den * L**d)

    # -- views as a univariate polynomial over UniPoly coefficients ---------

    def as_y_polynomial(self) -> list[UniPoly]:
        """Coefficient list [c_0(x), ..., c_m(x)] with F = sum c_j(x) y^j."""
        den = self._den
        out = []
        for row in _rows(self._num, self.deg_y):
            if row:
                coeffs = [0] * (max(row) + 1)
                for i, c in row.items():
                    coeffs[i] = c
                out.append(_uni(coeffs, den))
            else:
                out.append(UniPoly.zero())
        return out

    @staticmethod
    def from_unipoly_in_x(p: UniPoly) -> BiPoly:
        return _make({(i, 0): c for i, c in enumerate(p._num) if c}, p._den)

    def content_wrt_y(self) -> UniPoly:
        """Gcd over the x-line of the y-coefficients (monic, or zero)."""
        g = UniPoly.zero()
        for p in self.as_y_polynomial():
            g = uni_gcd(g, p)
        return g


_set_num = BiPoly._num.__set__
_set_den = BiPoly._den.__set__


def _make(num: dict[tuple[int, int], int], den: int) -> BiPoly:
    """The BiPoly with numerators num over den; the pair must be canonical."""
    p = object.__new__(BiPoly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _canonical(num: dict[tuple[int, int], int], den: int) -> tuple[dict[tuple[int, int], int], int]:
    """The canonical pair of num / den for den > 0: no zero numerator, no common factor."""
    num = {k: c for k, c in num.items() if c}
    if not num:
        return {}, 1
    if den != 1:
        g = igcd(den, *num.values())
        if g != 1:
            return {k: c // g for k, c in num.items()}, den // g
    return num, den


_ZERO = _make({}, 1)


def _homogeneous_powers(p: int, q: int, d: int) -> list[int]:
    """[p**e * q**(d - e) for e in 0..d]: the powers of p/q times q**d (q > 0)."""
    out = [1] * (d + 1)
    for e in range(1, d + 1):
        out[e] = out[e - 1] * p
    if q != 1:
        qk = 1
        for e in range(d - 1, -1, -1):
            qk *= q
            out[e] *= qk
    return out


def _uni(num: list[int], den: int) -> UniPoly:
    """The UniPoly num / den, normalised once."""
    return _uni_make(*_uni_canonical(num, den))


def _rows(num: dict[tuple[int, int], int], deg_y: int) -> list[dict[int, int]]:
    """The rows {i: n_ij} of the numerators, indexed by the y-power j."""
    rows: list[dict[int, int]] = [{} for _ in range(deg_y + 1)]
    for (i, j), c in num.items():
        rows[j][i] = c
    return rows


def _add_into(out: list[int], k: int, p: list[int]) -> None:
    """out += k * p on integer coefficient lists."""
    if len(p) > len(out):
        out.extend([0] * (len(p) - len(out)))
    for e, v in enumerate(p):
        out[e] += k * v


def _times_linear(
    p: dict[tuple[int, int], int], form: tuple[int, int], plus: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """The numerators of p * (u x + v y) + plus for form = (u, v)."""
    u, v = form
    out = dict(plus)
    get = out.get
    if u:
        for (i, j), c in p.items():
            out[i + 1, j] = get((i + 1, j), 0) + c * u
    if v:
        for (i, j), c in p.items():
            out[i, j + 1] = get((i, j + 1), 0) + c * v
    return out


# -- resultants ------------------------------------------------------------


def _det_bareiss(mat: list[list[UniPoly]]) -> UniPoly:
    """Determinant of a square matrix of `UniPoly` entries, by fraction-free
    elimination (Bareiss, *Sylvester's identity and multistep
    integer-preserving Gaussian elimination*, Math. Comp. 1968).

    Row i is multiplied once by the lcm s_i of its entries' denominators, so
    det(mat) = det(M) / prod s_i with M over Z[x], and the elimination runs
    on integer coefficient lists: step k sets
    M[i][j] = (M[k][k] M[i][j] - M[i][k] M[k][j]) / M[k-1][k-1], a
    division that is exact in Z[x] because every entry is a minor of M.  The
    row scales leave every minor zero exactly when it was, so the zero-pivot
    row swaps are those on mat.  One `UniPoly` is built at the end.
    """
    n = len(mat)
    if n == 0:
        return UniPoly.one()
    m: list[list[list[int]]] = []
    scale = 1
    for row in mat:
        s = lcm(*(c._den for c in row))
        scale *= s
        m.append([[v * (s // c._den) for v in c._num] for c in row])
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return UniPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        rowk = m[k]
        piv = rowk[k]
        for i in range(k + 1, n):
            rowi = m[i]
            a = rowi[k]
            for j in range(k + 1, n):
                v = _conv(piv, rowi[j])
                if a and rowk[j]:
                    w = _conv(a, rowk[j])
                    v.extend([0] * (len(w) - len(v)))
                    for e, c in enumerate(w):
                        v[e] -= c
                    while v and not v[-1]:
                        v.pop()
                if v and k:
                    v = _pseudo_divmod(v, prev, True)[0]
                rowi[j] = v
        prev = piv
    out = m[n - 1][n - 1]
    return _uni(out if sign > 0 else [-c for c in out], scale)


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
    if any(i + j != 2 for i, j in Q._num):
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
