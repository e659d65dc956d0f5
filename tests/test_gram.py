import math
import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest
import sympy

from soscurves import gram
from soscurves.bipoly import BiPoly
from soscurves.components import CircleChart
from soscurves.curve import analyze_curve
from soscurves.points import AlgebraicPoint, RationalPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import restrict_to_chart, value_at_algebraic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from bench_instances import compact_gram_draw, load_data  # noqa: E402


def _compact(analysis):
    """The components a Gram problem takes: the circle-chart conics."""
    return [c.label for c in analysis.components if isinstance(c.chart, CircleChart)]


def _problem(factors, target, degree, values=()):
    analysis = analyze_curve([B(f) for f in factors])
    return gram.build_gram_problem(analysis, B(target), _compact(analysis), degree, values)


PROBLEMS = [
    (["x^2 + y^2 - 1"], "x^2 + 1"),
    (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1"),
    # four circles: a modulus of degree 8, so no product of degree 2 is reduced
    (
        ["x^2+y^2-1", "(x-1)^2+y^2-1", "x^2+(y-1)^2-1", "(x-1)^2+(y-1)^2-1"],
        "1",
    ),
]


def _random_rational_symmetric(rng, n):
    g = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
    return g


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def test_jacobi_eigh_diagonalizes():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    repeated = (q * np.array([2.0, 2.0, -1.0, 0.5, 3.0])) @ q.T
    mats = [_random_symmetric(rng, n) for n in (1, 2, 5, 9)] + [(repeated + repeated.T) / 2]
    for s in mats:
        w, v = gram.jacobi_eigh(s)
        assert np.allclose((v * w) @ v.T, s, rtol=0, atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(len(s)), rtol=0, atol=1e-12)


def test_psd_projection():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        s = _random_symmetric(rng, n)
        p = gram._project_psd(s)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-12
        assert np.allclose(gram._project_psd(p), p, rtol=0, atol=1e-12)
        a = rng.standard_normal((n, n))
        psd = a @ a.T
        assert np.allclose(gram._project_psd(psd), psd, rtol=0, atol=1e-12)


@pytest.mark.parametrize("factors, target", PROBLEMS)
def test_float_operator_matches_exact_rows(factors, target):
    problem = _problem(factors, target, 2)
    n = problem.dim
    m, rhs = gram._constraint_matrix(problem)
    rng = np.random.default_rng(7)
    g = _random_rational_symmetric(rng, n)
    applied = m @ np.array([[float(c) for c in row] for row in g]).reshape(n * n)
    assert problem.rows
    for r, row in enumerate(problem.rows):
        value = sum((c * g[i][j] for (i, j), c in row.coeffs.items()), Fr(0))
        assert abs(applied[r] - float(value)) <= 1e-12 * max(1.0, abs(float(value)))
        assert rhs[r] == float(row.rhs)


def _fractions(scaled):
    """The matrix nums / den of a snap's result as Fractions; None stays None."""
    if scaled is None:
        return None
    nums, den = scaled
    return [[Fr(c, den) for c in row] for row in nums]


def _scaled(g):
    """A Fraction matrix as integer numerators over the lcm of its denominators."""
    den = math.lcm(*(Fr(c).denominator for row in g for c in row))
    return [[int(c * den) for c in row] for row in g], den


def _meets_every_row(rows, g):
    return all(
        sum((c * g[i][j] for (i, j), c in row.coeffs.items()), Fr(0)) == row.rhs
        for row in rows
    )


@pytest.mark.parametrize("factors, target", PROBLEMS)
def test_snap_fixes_a_matrix_on_the_slice(factors, target):
    problem = _problem(factors, target, 1)
    snap = problem.snap
    rng = np.random.default_rng(11)
    ghat, other = (_random_rational_symmetric(rng, problem.dim) for _ in range(2))
    g = _fractions(snap.snap(ghat))
    assert g is not None and _meets_every_row(snap.rows, g)
    assert _fractions(snap.snap(g)) == g
    # nearest point: ghat - g is orthogonal to the slice in the symmetric
    # metric, so to the difference of any two points on it
    h = _fractions(snap.snap(other))
    assert h is not None and _meets_every_row(snap.rows, h)
    n = problem.dim
    assert sum(
        (ghat[i][j] - g[i][j]) * (h[i][j] - g[i][j]) for i in range(n) for j in range(n)
    ) == 0
    if len(factors) == 1:
        # basis 1, x, y on the unit circle: 1 + x^2 is the diagonal (1, 1, 0)
        diag = [[Fr(int(i == j and i < 2)) for j in range(3)] for i in range(3)]
        assert _meets_every_row(snap.rows, diag)
        assert _fractions(snap.snap(diag)) == diag


def test_snap_leaves_dependent_rows_out():
    # on the unit circle 2 - 2x vanishes at (1, 0), where m = (1, x, y) is
    # (1, 1, 0); of the rows G m(P) = 0 of the zero prescription there, the
    # sum of the first two is m(P)^T G m(P) = 0, which the coefficient rows
    # give evaluated at P, and the third, G02 + G12 = 0, follows from the
    # rows of y and xy
    pv = gram.PrescribedValue("P", "C1", RationalPoint(Fr(1), Fr(0)), (Fr(0),))
    problem = _problem(["x^2 + y^2 - 1"], "(x - 1)^2 + y^2", 1, [pv])
    snap = problem.snap
    assert (problem.matching, len(snap.rows), len(snap.pivots)) == (5, 8, 6)
    rng = np.random.default_rng(13)
    g = _fractions(snap.snap(_random_rational_symmetric(rng, problem.dim)))
    assert g is not None and _meets_every_row(snap.rows, g)
    # 2 - 2x = (1 - x)^2 + y^2 has its Gram matrix on the slice
    square = [[Fr(1), Fr(-1), Fr(0)], [Fr(-1), Fr(1), Fr(0)], [Fr(0), Fr(0), Fr(1)]]
    assert _meets_every_row(snap.rows, square) and _fractions(snap.snap(square)) == square


def test_snap_of_inconsistent_rows_is_none():
    rows = [gram.Row({(0, 0): Fr(1)}, Fr(1)), gram.Row({(0, 0): Fr(1)}, Fr(2))]
    assert gram._ExactAffineSnap(rows).snap([[Fr(0)]]) is None


class RefAffineSnap:
    """The exact projection in Fraction arithmetic, as `gram._ExactAffineSnap`
    computed it before it ran on integer numerators: the Fraction normal
    matrix, factored by `ref_ldl_pivots`, and a forward and a backward sweep
    over its pivots."""

    def __init__(self, rows):
        self.rows = rows
        k = len(rows)
        dens, ints, weighted = [], [], []
        for row in rows:
            den = math.lcm(*(c.denominator for c in row.coeffs.values()))
            num = {key: c.numerator * (den // c.denominator) for key, c in row.coeffs.items()}
            dens.append(den)
            ints.append(num)
            weighted.append({key: 2 * c if key[0] == key[1] else c for key, c in num.items()})
        normal = [[Fr(0)] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                acc = sum(c * weighted[b].get(key, 0) for key, c in ints[a].items())
                normal[a][b] = normal[b][a] = Fr(acc, 2 * dens[a] * dens[b])
        self.pivots = [
            (p, d, [(i, c) for i, c in enumerate(col) if c and i != p])
            for p, d, col in ref_ldl_pivots(normal)
        ]

    def _solve_normal(self, v):
        rest = list(v)
        ys = []
        for p, _, col in self.pivots:
            y = rest[p]
            ys.append(y)
            for i, c in col:
                rest[i] -= y * c
        lam = [Fr(0)] * len(v)
        for (p, d, col), y in zip(reversed(self.pivots), reversed(ys)):
            lam[p] = y / d - sum((c * lam[i] for i, c in col), Fr(0))
        return lam

    def snap(self, ghat):
        v = [
            row.rhs - sum((c * ghat[i][j] for (i, j), c in row.coeffs.items()), Fr(0))
            for row in self.rows
        ]
        out = [r[:] for r in ghat]
        for l, row in zip(self._solve_normal(v), self.rows):
            for (i, j), c in row.coeffs.items():
                out[i][j] += l * c / (2 if i != j else 1)
                if i != j:
                    out[j][i] = out[i][j]
        return out if _meets_every_row(self.rows, out) else None


def _ellipse_through(rng, point):
    """a x^2 + b xy + c y^2 + d x + e y + f with 4ac > b^2 through the point,
    which is not its centre."""
    px, py = point
    while True:
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.randint(-4, 4)
        d, e = (Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
        if 4 * a * c > b * b and (2 * a * px + b * py + d, b * px + 2 * c * py + e) != (0, 0):
            break
    f = -(a * px * px + b * px * py + c * py * py + d * px + e * py)
    return BiPoly({(2, 0): a, (1, 1): b, (0, 2): c, (1, 0): d, (0, 1): e, (0, 0): f})


def _snap_parity_problems():
    """Row systems of every kind the solver builds: the PROBLEMS, and 1-3
    random ellipses at degrees 1-3 with a value row at a point off the curve
    and a zero prescription at a point on it, where the target vanishes
    (dependent rows) or does not (inconsistent rows)."""
    for factors, target in PROBLEMS:
        for degree in (1, 2):
            yield _problem(factors, target, degree)
    rng = random.Random(2025)
    for r in (1, 2, 3):
        for degree in (1, 2, 3):
            on = (Fr(rng.randint(-3, 3), rng.randint(1, 3)), Fr(rng.randint(-3, 3), rng.randint(1, 3)))
            off = (Fr(rng.randint(-9, 9), rng.randint(1, 4)), Fr(rng.randint(-9, 9), rng.randint(1, 4)))
            ellipses = [_ellipse_through(rng, on) for _ in range(r)]
            analysis = analyze_curve(ellipses)
            subset = _compact(analysis)
            square = B(f"(x - ({on[0]}))^2 + 2*(y - ({on[1]}))^2")
            values = [
                gram.PrescribedValue("Q", subset[0], RationalPoint(*off), (Fr(rng.randint(1, 9)), Fr(1, 3))),
                gram.PrescribedValue("P", subset[0], RationalPoint(*on), (Fr(0),)),
            ]
            for target in (square, square + BiPoly.const(1)):
                yield gram.build_gram_problem(analysis, target, subset, degree, values)


def _snap_candidates(rng, n):
    """Symmetric candidates: small rationals, and numerators of up to 300
    bits over denominators up to 10^9."""
    for bits, den in ((4, 5), (30, 10**9), (300, 10**9)):
        g = [[Fr(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = Fr(rng.randrange(-(2**bits), 2**bits), rng.randint(1, den))
        yield g


def test_snap_matches_the_fraction_reference():
    """The integer snap returns the reference's matrix, or None with it,
    on consistent, dependent and inconsistent rows, and fixes its result."""
    rng = random.Random(7)
    seen = set()
    for problem in _snap_parity_problems():
        ref = RefAffineSnap(problem.rows)
        assert len(problem.snap.pivots) == len(ref.pivots)
        for ghat in _snap_candidates(rng, problem.dim):
            want = ref.snap(ghat)
            got = _fractions(problem.snap.snap(ghat))
            assert got == want
            if got is not None:
                assert _fractions(problem.snap.snap(got)) == got
            seen.add(got is None)
    assert seen == {True, False}


def _rank_deficient_psd(rng, n, r, scale):
    """Sum of r < n rational outer products, with an integer kernel vector."""
    v = [Fr(int(rng.integers(-4, 5))) for _ in range(n)]
    v[int(rng.integers(n))] = Fr(int(rng.integers(1, 5)))
    vv = sum(c * c for c in v)
    g = [[Fr(0)] * n for _ in range(n)]
    for _ in range(r):
        w = [
            Fr(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9)))
            for _ in range(n)
        ]
        t = sum(a * b for a, b in zip(w, v)) / vv
        u = [a - t * b for a, b in zip(w, v)]
        for i in range(n):
            for j in range(n):
                g[i][j] += scale * u[i] * u[j]
    return g, v


def _rebuild(pivots, n):
    out = [[Fr(0)] * n for _ in range(n)]
    for d, col in pivots:
        for i in range(n):
            for j in range(n):
                out[i][j] += d * col[i] * col[j]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_rational_ldl_on_rank_deficient_psd(seed):
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed
    for scale in (Fr(10) ** -6, Fr(1), Fr(10) ** 6):
        r = int(rng.integers(1, n))
        g, v = _rank_deficient_psd(rng, n, r, scale)
        pivots = gram._rational_ldl(_scaled(g))
        assert pivots is not None
        assert len(pivots) == r
        assert all(d > 0 for d, _ in pivots)
        assert _rebuild(pivots, n) == g
        # v is in the kernel, so removing eps * e_i e_i^T with v_i != 0 gives
        # v^T g v = -eps * v_i^2 < 0: not psd however small eps is
        i = next(k for k, c in enumerate(v) if c)
        for eps in (Fr(10) ** -30, Fr(1)):
            bad = [row[:] for row in g]
            bad[i][i] -= eps
            assert gram._rational_ldl(_scaled(bad)) is None


def test_rational_ldl_beyond_float_range():
    # entries overflow a float: the factorization stays exact
    big = Fr(10) ** 400
    g = [[big, big, 0], [big, 2 * big, big], [0, big, big]]
    pivots = gram._rational_ldl(_scaled(g))
    assert pivots is not None and _rebuild(pivots, 3) == g
    g[2][2] -= 1
    assert gram._rational_ldl(_scaled(g)) is None


def _two_circle_draw(k):
    base = next(b for b in load_data()["compact-gram"]["bases"] if b["name"] == "two-circles")
    inst = compact_gram_draw(base, k)
    return list(inst.factors), inst.target


# -- the plane ring: normal forms, basis and summands -----------------------------

X, Y = sympy.symbols("x y")


def _to_sympy(p):
    terms = p.terms.items()
    return sum((sympy.Rational(c.numerator, c.denominator) * X**i * Y**j for (i, j), c in terms), sympy.Integer(0))


def _from_sympy(e):
    poly = sympy.Poly(sympy.expand(e), X, Y)
    return BiPoly({m: Fr(int(c.p), int(c.q)) for m, c in poly.terms() if c})


def _random_ellipse(rng):
    """a x^2 + b xy + c y^2 + d x + e y + f with 4ac > b^2 and a, c > 0."""
    while True:
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.randint(-4, 4)
        if 4 * a * c > b * b:
            break
    d, e, f = (Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
    return BiPoly({(2, 0): a, (1, 1): b, (0, 2): c, (1, 0): d, (0, 1): e, (0, 0): f})


def _random_poly(rng, degree):
    return BiPoly({
        (i, j): Fr(rng.randint(-9, 9), rng.randint(1, 4))
        for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() < 0.7
    })


@pytest.mark.parametrize("seed", range(8))
def test_normal_form_matches_sympy_reduced(seed):
    rng = random.Random(seed)
    modulus = BiPoly.const(1)
    for _ in range(1 + seed % 3):
        modulus = modulus * _random_ellipse(rng)
    for _ in range(3):
        p = _random_poly(rng, rng.randint(0, 2 * modulus.total_degree))
        nf = gram.normal_form(p, modulus)
        _, remainder = sympy.reduced(_to_sympy(p), [_to_sympy(modulus)], Y, X, order="grevlex")
        assert nf == _from_sympy(remainder)
        assert nf.total_degree <= p.total_degree
        assert nf.deg_y < modulus.deg_y
        assert gram.normal_form(modulus * _random_poly(rng, 2), modulus).is_zero()


def test_basis_on_the_unit_circle():
    problem = _problem(["x^2 + y^2 - 1"], "x^2 + 1", 3)
    assert problem.basis == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize(
    "factors, target, degree",
    [
        (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1", 2),
        (*_two_circle_draw(3), 2),
        (*_two_circle_draw(17), 3),
    ],
    ids=["circle-pair", "two-circles-draw3", "two-circles-draw17"],
)
def test_summands_agree_at_algebraic_shared_points(factors, target, degree):
    """Any coordinate vector gives a summand that takes one value at every
    shared point, irrational ones included: it is one plane polynomial."""
    analysis = analyze_curve([B(f) for f in factors])
    problem = gram.build_gram_problem(analysis, B(target), _compact(analysis), degree)
    shared = [
        rec for rec in analysis.points
        if isinstance(rec.point, AlgebraicPoint) and len(rec.components) == 2
    ]
    assert len(shared) == 2
    rng = random.Random(41)
    vectors = [
        [Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(problem.dim)] for _ in range(4)
    ]
    columns = gram._vectors_to_summands(problem, vectors)
    for rec in shared:
        a, b = (analysis.components[k] for k in rec.components)
        assert len(columns[a.label]) == len(columns[b.label]) == len(vectors)
        for fa, fb in zip(columns[a.label], columns[b.label]):
            va = value_at_algebraic(fa, a.chart, rec.point)
            vb = value_at_algebraic(fb, b.chart, rec.point)
            assert (va - vb).is_zero()


def test_large_pivots_end_the_ladder(monkeypatch):
    # the first psd candidate of this product of two circles has pivots far
    # beyond the square search, so the ladder stops there with None
    factors, target = _two_circle_draw(3)
    problem = _problem(factors, target, 2)
    seen = []
    original = gram._rational_ldl

    def recorded(g):
        out = original(g)
        seen.append(out)
        return out

    monkeypatch.setattr(gram, "_rational_ldl", recorded)
    matrix = gram.alternating_projections(problem).matrix
    seen.clear()
    assert gram._round_to_exact(problem, matrix, gram._ROUND_LADDER) is None
    assert seen[-1] is not None and all(p is None for p in seen[:-1])
    assert max((d.numerator * d.denominator).bit_length() for d, _ in seen[-1]) > gram._SPLIT_BITS


# -- fraction-free pivoted LDL^T against the Fraction elimination ---------------


def ref_ldl_pivots(g):
    """Pivoted L D L^T on Fractions: one Schur-complement update per step."""
    n = len(g)
    m = [row[:] for row in g]
    active = list(range(n))
    out = []
    while active:
        p = max(active, key=lambda i: m[i][i])
        d = m[p][p]
        if d < 0:
            return None
        if d == 0:
            if any(m[i][j] for i in active for j in active):
                return None
            break
        col = [Fr(0)] * n
        for i in active:
            col[i] = m[i][p] / d
        support = [i for i in active if col[i]]
        for i in support:
            scaled = d * col[i]
            for j in support:
                m[i][j] -= scaled * col[j]
        active.remove(p)
        out.append((p, d, col))
    return out


def _ldl_cases(rng):
    """Seeded symmetric matrices: psd, rank-deficient, sparse psd (zero
    pivot-column entries), indefinite (negative pivots) and zero diagonals."""
    for k in range(600):
        n = int(rng.integers(0, 9))
        kind = k % 5
        if kind < 3:
            rank = n if kind == 0 else int(rng.integers(0, max(n, 1)))
            density = 0.3 if kind == 2 else 1.0
            vs = [
                [Fr(int(rng.integers(-6, 7)), int(rng.choice([1, 2, 3, 5]))) if rng.random() < density else Fr(0)
                 for _ in range(n)]
                for _ in range(rank)
            ]
            g = [[sum((v[i] * v[j] * (t % 3 + 1) for t, v in enumerate(vs)), Fr(0)) for j in range(n)] for i in range(n)]
        else:
            g = _random_rational_symmetric(rng, n)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        g[i][j] = g[j][i] = Fr(0)
            if kind == 4 and n:
                i = int(rng.integers(n))
                g[i][i] = Fr(0)
        yield g


def ref_float_screen_rejects(g):
    """The eigenvalue screen of `_rational_ldl` on the floats of a Fraction matrix."""
    with np.errstate(over="ignore"):
        try:
            a = np.array([[float(c) for c in row] for row in g])
            lowest = np.linalg.eigvalsh(a)[0]
        except (OverflowError, np.linalg.LinAlgError):
            return False
        return bool(lowest < -gram._SCREEN_MARGIN * max(1.0, float(np.linalg.norm(a))))


def test_ldl_pivots_match_fraction_elimination():
    """The integer entry nums / den gives the triples of the elimination of
    the Fraction matrix, in lowest terms and at any multiple of them, and
    its float screen sees the floats of the Fractions."""
    rng = np.random.default_rng(2042)
    verdicts = set()
    for g in _ldl_cases(rng):
        want = ref_ldl_pivots(g)
        nums, den = _scaled(g)
        k = int(rng.integers(1, 10**9))
        for scaled in ((nums, den), ([[k * c for c in row] for row in nums], k * den)):
            before = [row[:] for row in scaled[0]]
            assert gram._ldl_pivots(scaled) == want
            assert scaled[0] == before
            if g:
                assert gram._float_screen_rejects(scaled) == ref_float_screen_rejects(g)
        verdicts.add(want is None)
    assert verdicts == {True, False}
    # ties keep the first index; a zero diagonal with a nonzero entry is not psd
    assert [p for p, _, _ in gram._ldl_pivots(([[1, 0], [0, 1]], 1))] == [0, 1]
    assert gram._ldl_pivots(([[0, 1], [1, 0]], 3)) is None
    # entries beyond the float range skip the screen; a huge numerator over
    # a huge denominator is an ordinary float
    big = 10**400
    for g in ([[Fr(big), Fr(0)], [Fr(0), Fr(-1)]], [[Fr(big + 1, big), Fr(0)], [Fr(0), Fr(-1)]]):
        assert gram._float_screen_rejects(_scaled(g)) == ref_float_screen_rejects(g)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize(
    "factors, target",
    [
        PROBLEMS[0],
        PROBLEMS[1],
        (["y", "x^2 + y^2 - 1"], "x^2 + 1"),
        (["x^2 - x*y + y^2 + 2*y - 1", "x^2 + y^2 - 2*x"], "x^2 + 1"),
    ],
    ids=["unit-circle", "circle-pair", "line-and-circle", "tilted-pair"],
)
def test_summands_from_coordinates_match_the_basis(factors, target, degree):
    """Each summand is the plane polynomial sum c_k x^i w^j of its
    coordinates, w = y + s1 x + s0 of the first conic's chart, restricted to
    each conic; on a curve with a line, the Gram problem holds the circle only."""
    analysis = analyze_curve([B(f) for f in factors])
    subset = _compact(analysis)
    problem = gram.build_gram_problem(analysis, B(target), subset, degree)
    assert sorted(problem.restricted) == subset
    frame = analysis.component(subset[0]).chart  # not the identity on the tilted pair
    rng = np.random.default_rng(11 + degree)
    vectors = [
        [Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(problem.dim)]
        for _ in range(3)
    ] + [[Fr(0)] * problem.dim]
    columns = gram._vectors_to_summands(problem, vectors)
    assert sorted(columns) == subset
    for j, vec in enumerate(vectors):
        framed = BiPoly({e: c for e, c in zip(problem.basis, vec) if c})
        plane = framed.translate(0, frame.s0).compose_linear(1, 0, frame.s1, 1)
        for cid in subset:
            assert columns[cid][j] == restrict_to_chart(plane, analysis.component(cid).chart)


ROW_CASES = [
    ("unit-circle-constant", ["x^2 + y^2 - 1"], "1", (0, 1)),
    ("unit-circle", *PROBLEMS[0], (1, 2, 3)),
    ("circle-pair", *PROBLEMS[1], (1, 2, 3)),
    ("line-and-circle", ["y", "x^2 + y^2 - 1"], "x^2 + 1", (1, 2, 3)),
]


@pytest.mark.parametrize(
    "factors, target, degree",
    [pytest.param(f, t, d, id=f"{name}-{d}") for name, f, t, degrees in ROW_CASES for d in degrees],
)
def test_coefficient_rows_match_pairwise_basis_products(factors, target, degree):
    """The coefficient rows are the coefficients of the normal forms of the
    pairwise products of the basis monomials, computed here by sympy's
    `reduced`: monomials, coefficients and order."""
    analysis = analyze_curve([B(f) for f in factors])
    subset = _compact(analysis)
    problem = gram.build_gram_problem(analysis, B(target), subset, degree)
    modulus = sympy.prod([_to_sympy(analysis.component(cid).poly) for cid in subset])

    def normal_form(e):
        _, remainder = sympy.reduced(e, [modulus], Y, X, order="grevlex")
        return sympy.Poly(remainder, X, Y).terms() if remainder != 0 else []

    slots = {}
    for k, (ik, jk) in enumerate(problem.basis):
        for l in range(k, problem.dim):
            il, jl = problem.basis[l]
            for (i, j), c in normal_form(X ** (ik + il) * Y ** (jk + jl)):
                c = Fr(int(c.p), int(c.q))
                slots.setdefault((j, i), {})[(k, l)] = c if k == l else 2 * c
    wanted = {(j, i): Fr(int(c.p), int(c.q)) for (i, j), c in normal_form(_to_sympy(B(target)))}
    rows = [(sorted(c.items()), wanted.get(slot, Fr(0))) for slot, c in sorted(slots.items())]
    assert problem.matching == len(problem.rows) == len(rows)
    assert [(sorted(r.coeffs.items()), r.rhs) for r in problem.rows] == rows
