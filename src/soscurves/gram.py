"""Numeric Gram-matrix certification on the plane ring of compact-type components.

The components of a Gram problem are r conics in circle normal form,
scale * (w^2 - q(x)) with w = y + s1*x + s0.  Their product F has degree 2r,
and its w^(2r) coefficient in the frame (x, w) of the first conic is a
nonzero constant, so division by F in w over Q[x] is the normal form NF
modulo F (`normal_form`) and never raises the total degree.  A sum of
squares of plane polynomials of degree at most D that equals the target f
on these components is then a psd Gram matrix G on the monomials
m = x^i w^j, j < 2r, i + j <= D, subject to rational affine rows: the
coefficients of NF(m^T G m - f) = 0 (sums of squares modulo an ideal
through normal forms: Parrilo, LNCIS 312, 2005), and optional value rows
m(P)^T G m(Q) = <v_P, v_Q>, or G m(P) = 0 for a zero value, at rational
attachment points P, Q, which tie the summands to a part of the curve
certified elsewhere.  On one conic this is the problem on its chart,
a(x) + b(x) w with w^2 = q(x).  The solver is Douglas-Rachford splitting
between the psd cone (eigenvalue clipping) and the affine subspace (least
squares, factorized once); extraction rounds the iterate and projects it
exactly onto the slice of the rows (Peyrl and Parrilo, TCS 2008).  The
projection and the factorization below run on integer numerators over one
denominator, through one fraction-free elimination (`_bareiss`).

Each exact fact about a rational candidate G is proved once:
- the closing check of `_ExactAffineSnap.snap`, one integer identity per
  row between the numerators of G and its denominator, proves every row;
- the exact L D L^T of `_rational_ldl` proves G psd, G = sum d_k l_k l_k^T.
Then sum d_k S_k^2 = f modulo F for the plane polynomials S_k = l_k^T m,
the value rows are bilinear in G, and for psd G, G m(P) = 0 makes every
S_k vanish at P.  Splitting each d_k into rational squares keeps all of
it.  The certificate (`ringfn.SosCertificate`) holds, per component, the
column of the S_k restricted to it (`_restricted_basis`), so the summands
agree at every shared point, rational or algebraic, by construction, and
need no further check.  A candidate whose pivots are too large for the
square search in `numbers` ends the rounding ladder (`_SPLIT_BITS`); on
products of conics that leaves the certificate numeric.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .bipoly import BiPoly
from .components import CircleChart
from .curve import CurveAnalysis
from .numbers import limit_denominators, rational_square_list, sqrt_fraction
from .points import RationalPoint
from .ringfn import CircleFn, RingFn, SosCertificate
from .unipoly import UniPoly


class NoConvergence(RuntimeError):
    """Alternating projections stalled; carries the tail of the residuals.

    Both terminal residuals are recomputed from the last iterate pair:
    psd_residual is the most negative eigenvalue (in magnitude) of the
    affine-feasible matrix, affine_residual the worst constraint violation
    of the psd-feasible one.  A stall with a psd_residual plateau bounded
    away from zero is evidence (not proof) that the problem is infeasible.
    """

    def __init__(
        self,
        iterations: int,
        tail: tuple[float, ...],
        psd_residual: float = float("nan"),
        affine_residual: float = float("nan"),
    ):
        self.iterations = iterations
        self.residual_tail = tail
        self.psd_residual = psd_residual
        self.affine_residual = affine_residual
        best = min(tail) if tail else float("nan")
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"best recent residual {best:.3g}, "
            f"terminal psd violation {psd_residual:.3g}"
        )


@dataclass(frozen=True)
class PrescribedValue:
    """Attachment data: the summand value vector a target must reproduce."""

    point_id: str
    component: str
    point: RationalPoint
    vector: tuple[Fraction, ...]

    @property
    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.vector), Fraction(0))


@dataclass(frozen=True)
class Row:
    """The constraint sum of coeffs[i, j] * G[i, j] over i <= j equals rhs."""

    coeffs: dict[tuple[int, int], Fraction]
    rhs: Fraction


# a rational matrix as its integer numerators over one common denominator
Scaled = tuple[list[list[int]], int]


@dataclass
class GramProblem:
    basis: list[tuple[int, int]]  # exponents (i, j) of the monomials x^i w^j, ordered by (j, i)
    rows: list[Row]  # the coefficient rows first, then the value rows
    matching: int  # the number of coefficient rows
    snap: "_ExactAffineSnap"  # exact projection onto the rows
    # per component, the basis monomials restricted to it, in basis order
    restricted: dict[str, list[CircleFn]]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class GramSolution:
    problem: GramProblem
    matrix: np.ndarray
    iterations: int
    certificate: SosCertificate | None = None  # exact, found while iterating


_SOLVER_TOL = 1e-9
_MAX_ITER = 20000
_SEED = 0
_EXTRACT_EVERY = 25  # iterations between exact extraction attempts


def jacobi_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen decomposition of a symmetric matrix: (w, V) with S = V diag(w) V^T.

    Calls LAPACK through np.linalg.eigh.  The name is older than that and
    stays because the benchmark's layer trace times the solver's
    eigendecompositions under it.
    """
    return np.linalg.eigh(S)


def _project_psd(S: np.ndarray) -> np.ndarray:
    """Nearest psd matrix in the Frobenius norm: V max(w, 0) V^T."""
    w, v = jacobi_eigh(S)
    out = (v * np.maximum(w, 0.0)) @ v.T
    return (out + out.T) / 2.0


def subset_modulus(analysis: CurveAnalysis, subset: list[str] | tuple[str, ...]) -> BiPoly:
    """The product of the subset's factors: the modulus of its plane ring.

    Every factor must be a conic with a circle chart, scale * (w^2 - q(x)),
    so that the product has a nonzero constant coefficient at its top power
    of y and no term of higher total degree; others raise ValueError.
    """
    out = BiPoly.const(1)
    for cid in subset:
        comp = analysis.component(cid)
        if not isinstance(comp.chart, CircleChart):
            raise ValueError(f"{cid}: no gram basis for this component type")
        out = out * comp.poly
    return out


def _powers_mod(modulus: BiPoly, top: int) -> list[list[tuple[int, int, Fraction]]]:
    """NF(y^b) for b = 0..top, each as its terms (i, j, c) for c x^i y^j.

    The modulus is c_e y^e + sum c_j(x) y^j over j < e with c_e a nonzero
    constant, so y^e = -sum c_j(x) y^j / c_e modulo it.  NF(y^(b+1)) is
    y NF(y^b) with its y^e term replaced that way; every c_j(x) y^j has
    total degree at most e, so no step raises the total degree.
    """
    coeffs = modulus.as_y_polynomial()
    e = len(coeffs) - 1
    tail = [c.scale(-1 / coeffs[e].coeff(0)) for c in coeffs[:e]]
    power = [UniPoly.one()] + [UniPoly.zero()] * (e - 1)
    out = []
    for _ in range(top + 1):
        out.append([(i, j, c) for j, p in enumerate(power) for i, c in enumerate(p.coeffs) if c])
        over = power[-1]
        power = [UniPoly.zero()] + power[:-1]
        if not over.is_zero():
            power = [p + over * t for p, t in zip(power, tail)]
    return out


def normal_form(p: BiPoly, modulus: BiPoly) -> BiPoly:
    """The remainder of p on division by a `subset_modulus` in y over Q[x].

    That is the normal form modulo the Groebner basis {modulus} in grevlex
    order with y > x, whose leading monomial is the top power of y: NF(p)
    is 0 exactly when the modulus divides p, and, grevlex being
    degree-compatible, no polynomial congruent to p has a lower total degree
    than NF(p).  The same holds in any affine frame, as in `_to_frame`.
    """
    powers = _powers_mod(modulus, max(p.deg_y, 0))
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in p.terms.items():
        for i, j, d in powers[b]:
            out[(a + i, j)] = out.get((a + i, j), 0) + c * d
    return BiPoly(out)


def _to_frame(p: BiPoly, frame: CircleChart) -> BiPoly:
    """p(x, w - s1*x - s0): p in x and the frame's w = y + s1*x + s0, named y."""
    return p.translate(0, -frame.s0).compose_linear(1, 0, -frame.s1, 1)


def build_gram_problem(
    analysis: CurveAnalysis,
    F: BiPoly,
    subset: list[str] | tuple[str, ...],
    degree: int,
    values: list[PrescribedValue] | tuple[PrescribedValue, ...] = (),
) -> GramProblem:
    """Set up the constrained Gram problem for the plane target F on the subset.

    The subset holds r circle-chart conics, and the problem lives in the
    frame (x, w) of the first one's chart.  The basis is the monomials
    x^i w^j with j < 2r and i + j <= degree, ordered by (j, i); product
    k <= l of the basis contributes NF(m_k m_l) = x^(i_k+i_l) NF(w^(j_k+j_l))
    to the coefficient rows, which are ordered by the exponents (j, i) of
    their monomial.  On one conic this is its chart problem: NF(w^2) = q(x).
    """
    subset = tuple(subset)
    modulus = subset_modulus(analysis, subset)
    charts = {cid: analysis.component(cid).chart for cid in subset}
    frame = charts[subset[0]]
    modulus = _to_frame(modulus, frame)
    basis = [(i, j) for j in range(2 * len(subset)) for i in range(degree + 1 - j)]
    n = len(basis)
    powers = _powers_mod(modulus, 2 * degree)

    slots: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    for k, (ik, jk) in enumerate(basis):
        for l in range(k, n):
            il, jl = basis[l]
            for i, j, c in powers[jk + jl]:
                slots.setdefault((j, ik + il + i), {})[(k, l)] = c if k == l else 2 * c
    wanted = {(j, i): c for (i, j), c in normal_form(_to_frame(F, frame), modulus).terms.items()}
    for j, i in wanted:
        if (j, i) not in slots:
            raise ValueError(
                f"target degree exceeds the basis (missing x^{i} w^{j} at gram degree {degree})"
            )
    rows = [Row(coeffs, wanted.get(slot, Fraction(0))) for slot, coeffs in sorted(slots.items())]
    matching = len(rows)

    points = [(pv.point.x, pv.point.y + frame.s1 * pv.point.x + frame.s0) for pv in values]
    evecs = [{k: v for k, (i, j) in enumerate(basis) if (v := x**i * w**j)} for x, w in points]
    zero_ids = {i for i, pv in enumerate(values) if not any(pv.vector)}
    for i in sorted(zero_ids):
        # a zero prescription means every summand vanishes at the point,
        # which for a psd matrix is the linear condition G m(P) = 0; the
        # quadratic form alone would leave the kernel membership implicit
        # and exact factorization could not recover it from rounded data
        rows += [
            Row({(min(r, s), max(r, s)): c for s, c in evecs[i].items()}, Fraction(0))
            for r in range(n)
        ]
    for i, pv in enumerate(values):
        for j in range(i, len(values)):
            if i in zero_ids or j in zero_ids:
                continue
            inner = sum(
                (a * b for a, b in zip(pv.vector, values[j].vector)), Fraction(0)
            )
            row: dict[tuple[int, int], Fraction] = {}
            for a, ca in evecs[i].items():
                for b, cb in evecs[j].items():
                    key = (min(a, b), max(a, b))
                    row[key] = row.get(key, Fraction(0)) + ca * cb
            rows.append(Row(row, inner))

    return GramProblem(
        basis=basis,
        rows=rows,
        matching=matching,
        snap=_ExactAffineSnap(rows),
        restricted={cid: _restricted_basis(basis, frame, chart) for cid, chart in charts.items()},
    )


def _restricted_basis(
    basis: list[tuple[int, int]], frame: CircleChart, chart: CircleChart
) -> list[CircleFn]:
    """The monomials x^i w^j of the frame as functions on the chart's conic.

    There w = w_C + (s1 - s1_C) x + (s0 - s0_C) for the chart's own
    w_C = y + s1_C x + s0_C, so on the frame's own conic x^i w^j is the
    chart's x^i w_C^j.
    """
    w = CircleFn(UniPoly([frame.s0 - chart.s0, frame.s1 - chart.s1]), UniPoly.one(), chart.q)
    powers = [CircleFn.const(1, chart.q)]
    for _ in range(max(j for _, j in basis)):
        powers.append(powers[-1] * w)
    out = []
    for i, j in basis:
        shift = UniPoly([0] * i + [1])
        out.append(CircleFn(powers[j].a * shift, powers[j].b * shift, chart.q))
    return out


def _constraint_matrix(problem: GramProblem) -> tuple[np.ndarray, np.ndarray]:
    """The rows as a k x n^2 operator on row-major G, and the right-hand sides.

    Row r holds the symmetric matrix M with M_ii = c_ii and M_ij = M_ji =
    c_ij / 2, so that <M, G> is the row's left-hand side for symmetric G.
    """
    n = problem.dim
    m = np.zeros((len(problem.rows), n * n))
    for r, row in enumerate(problem.rows):
        for (i, j), c in row.coeffs.items():
            if i == j:
                m[r, i * n + i] = float(c)
            else:
                m[r, i * n + j] = m[r, j * n + i] = float(c) / 2.0
    return m, np.array([float(row.rhs) for row in problem.rows])


def _affine_projector(problem: GramProblem):
    n = problem.dim
    if not problem.rows:
        return lambda x: x, lambda x: 0.0
    m, rhs = _constraint_matrix(problem)
    gram = m @ m.T
    pinv = np.linalg.pinv(gram, rcond=1e-12)
    lift = m.T @ pinv
    scale = max(1.0, float(np.max(np.abs(rhs))))

    def project(x: np.ndarray) -> np.ndarray:
        vec = x.reshape(n * n)
        corr = lift @ (m @ vec - rhs)
        out = (vec - corr).reshape(n, n)
        return (out + out.T) / 2.0

    def residual(x: np.ndarray) -> float:
        return float(np.max(np.abs(m @ x.reshape(n * n) - rhs))) / scale

    return project, residual


def alternating_projections(problem: GramProblem) -> GramSolution:
    """Projection splitting between the psd cone and the affine constraint set.

    The iteration is Douglas-Rachford (averaged alternating reflections),
    which keeps its speed when every solution sits on the cone boundary, as
    happens whenever an attachment value pins part of the kernel.  The run
    starts from a fixed seed, so it is deterministic, and raises NoConvergence
    with the tail of its residuals when it stalls.  Every few iterations the
    solver attempts an exact extraction from the current psd iterate and
    returns early when rounding already hits a true certificate; that is a
    common exit, since targets built from rational data have Gram matrices
    with small denominators long before tight convergence.
    """
    n = problem.dim
    project_affine, affine_residual = _affine_projector(problem)

    rng = np.random.default_rng(_SEED)
    z = rng.standard_normal((n, n)) * 0.1
    z = (z + z.T) / 2.0 + np.eye(n)

    def stalled(it: int, y: np.ndarray, tail: list[float]) -> NoConvergence:
        # recompute both terminal residuals from the final iterate pair
        # rather than reporting loop-internal estimates
        w, _ = jacobi_eigh(project_affine(y))
        return NoConvergence(
            it,
            tuple(tail),
            psd_residual=max(0.0, -float(np.min(w))) if w.size else 0.0,
            affine_residual=affine_residual(y),
        )

    residuals: list[float] = []
    for it in range(1, _MAX_ITER + 1):
        y = _project_psd(z)
        x = project_affine(2.0 * y - z)
        z = z + x - y
        gap = float(np.linalg.norm(x - y)) / (1.0 + float(np.linalg.norm(y)))
        res = max(gap, affine_residual(y))
        residuals.append(res)
        if res <= _SOLVER_TOL:
            return GramSolution(problem, y, it)
        if it % _EXTRACT_EVERY == 0:
            found = _round_to_exact(problem, y, _PROBE_LADDER)
            if found is not None:
                return GramSolution(problem, y, it, SosCertificate(found))
        # patience rule: infeasible problems level off at a positive gap,
        # slow feasible ones keep shaving the residual
        if it >= 500 and it % 100 == 0 and res > 1000 * _SOLVER_TOL:
            if res >= 0.98 * residuals[-401]:
                raise stalled(it, y, residuals[-10:])
    raise stalled(_MAX_ITER, y, residuals[-10:])


_ROUND_LADDER = (1, 2, 4, 8, 16, 64, 1024, 10**6, 10**9)
_PROBE_LADDER = (1, 2, 4, 8, 16, 64, 1024)
# pivots beyond this many bits are not split (see _round_to_exact).  On the
# benchmark corpus the first psd candidates of single conics need at most 87
# bits, except the 206-bit ellipse hang reproducer, and those of products of
# two circles 156 bits or more
_SPLIT_BITS = 128
_SCREEN_MARGIN = 1e-9  # relative eigenvalue margin of the float screen in _rational_ldl


class _ExactAffineSnap:
    """Exact projection onto the rational affine constraint slice.

    Rounding a near-solution entrywise almost never lands on the slice when
    it is positive-dimensional but tilted; projecting the rounded matrix
    back in exact arithmetic does.  Inner products use the symmetric-matrix
    metric (off-diagonal entries weigh twice), in which row a is the matrix
    M_a with M_a[i][i] = c_a[i, i] and M_a[i][j] = c_a[i, j] / 2.  The
    projection of G is G + sum lam_a M_a for any lam with N lam = v, where
    N[a][b] = <M_a, M_b> is the rows' Gram matrix and v_a = rhs_a - <M_a, G>.

    It runs on integers.  Row a is I_a / den_a = R_a / den_a over the lcm
    den_a of its denominators, and W_a is I_a with its diagonal keys doubled,
    so N = D^-1 N_int D^-1 / 2 for D = diag(den_a) and the integer matrix
    N_int[a][b] = sum I_a W_b.  For G = Gnum / s with integer Gnum, N lam = v
    is N_int nu = b with b = 2 (R s - I . Gnum) and lam_a = den_a nu_a / s,
    and the projection is (Gnum + sum nu_a W_a / 2) / s.  N_int is psd, so
    `_bareiss` eliminates it once, with pivot rows p_k and pivot values a_k.
    Each snap takes b through that elimination as an extra column (the
    forward sweep), then solves the pivot rows, last pivot first, for the
    nu that is zero off them (the back sweep): on the pivot rows P that is
    adj(N_PP) b_P / det(N_PP), and det(N_PP) is the last pivot value, so
    x = det(N_PP) nu is integer and every division of the sweeps is exact.

    The projection does not depend on the pivot order, nor on which
    dependent rows it leaves out: two solutions of N lam = v differ by a
    kernel vector u of N, and u^T N u = ||sum u_a M_a||^2 = 0 adds nothing
    to G.  A system that is inconsistent with the dependent rows is caught
    by the closing check of `snap`.
    """

    def __init__(self, rows: list[Row]):
        self.rows = rows
        self.ints: list[dict[tuple[int, int], int]] = []
        self.rhs: list[int] = []
        self.weighted: list[dict[tuple[int, int], int]] = []
        for row in rows:
            den = lcm(row.rhs.denominator, *(c.denominator for c in row.coeffs.values()))
            num = {key: c.numerator * (den // c.denominator) for key, c in row.coeffs.items()}
            self.ints.append(num)
            self.rhs.append(row.rhs.numerator * (den // row.rhs.denominator))
            self.weighted.append({key: 2 * c if key[0] == key[1] else c for key, c in num.items()})
        k = len(rows)
        normal = [[0] * k for _ in range(k)]
        for a in range(k):
            ra, wa = self.ints[a], self.weighted[a]
            for b in range(a, k):
                rb, wb = self.ints[b], self.weighted[b]
                small, large = (ra, wb) if len(ra) <= len(rb) else (rb, wa)
                acc = 0
                for key, c in small.items():
                    d = large.get(key)
                    if d is not None:
                        acc += c * d
                normal[a][b] = normal[b][a] = acc
        # (pivot row p_k, pivot value a_k, {row i: N_int's Bareiss entry at (i, p_k)})
        self.pivots = _bareiss(normal)

    def snap(self, ghat: list[list[Fraction]]) -> Scaled | None:
        """Nearest matrix to ghat satisfying every row, in lowest terms, or None.

        The closing check is the one place that proves a candidate meets
        every row: with the result OUT / Den, sum I_a OUT = R_a Den for each
        row a.  It returns None when the rows are inconsistent, which
        rounding noise cannot cause (the rows come from a feasible problem).
        """
        s = lcm(*(c.denominator for row in ghat for c in row))
        g = [[c.numerator * (s // c.denominator) for c in row] for row in ghat]
        b = [
            2 * (r * s - sum(c * g[i][j] for (i, j), c in ints.items()))
            for ints, r in zip(self.ints, self.rhs)
        ]
        # forward sweep: beta_k is b at the pivot row p_k after k eliminations
        betas = []
        prev = 1
        for k, (p, a, col) in enumerate(self.pivots):
            beta = b[p]
            betas.append(beta)
            for q, _, _ in self.pivots[k + 1 :]:
                b[q] = (a * b[q] - col.get(q, 0) * beta) // prev
            prev = a
        det = prev  # the last pivot value, det(N_PP)
        # back sweep: x = det nu on the pivot rows, last pivot first
        x: dict[int, int] = {}
        for (p, a, col), beta in zip(reversed(self.pivots), reversed(betas)):
            acc = det * beta
            for i, c in col.items():
                xi = x.get(i)
                if xi:
                    acc -= c * xi
            x[p] = acc // a
        scale = 2 * det
        out = [[scale * c for c in row] for row in g]
        for p, xp in x.items():
            if not xp:
                continue
            for (i, j), c in self.weighted[p].items():
                out[i][j] += xp * c
                if i != j:
                    out[j][i] = out[i][j]
        den = scale * s
        for ints, r in zip(self.ints, self.rhs):
            if sum(c * out[i][j] for (i, j), c in ints.items()) != r * den:
                return None
        common = gcd(den, *(c for row in out for c in row))
        return [[c // common for c in row] for row in out], den // common


def extract_summands(sol: GramSolution) -> SosCertificate:
    """The certificate in the Gram matrix of a solution, one column per conic.

    Exact summands when the rounding ladder finds them; otherwise the
    eigenvector summands with their coefficient residual.
    """
    if sol.certificate is not None:
        return sol.certificate
    found = _round_to_exact(sol.problem, sol.matrix, _ROUND_LADDER)
    if found is not None:
        return SosCertificate(found)
    w, v = jacobi_eigh(sol.matrix)
    order = np.argsort(w)[::-1]
    cutoff = max(1.0, float(np.max(np.abs(w)))) * 1e-10 if w.size else 0.0
    vectors = [np.sqrt(max(w[i], 0.0)) * v[:, i] for i in order if w[i] > cutoff]
    float_vectors = [[Fraction(float(c)) for c in vec] for vec in vectors]
    columns = _vectors_to_summands(sol.problem, float_vectors)
    return SosCertificate(columns, False, _float_residual(sol.problem, vectors))


def _round_to_exact(
    problem: GramProblem, matrix: np.ndarray, ladder: tuple[int, ...]
) -> dict[str, tuple[RingFn, ...]] | None:
    """Exact columns from the first rounding of the matrix that promotes, or None.

    Each rung rounds the entries to rationals with bounded denominators and
    projects the result exactly onto the slice of the rows, so irrational
    eigen directions are never an obstruction.  A rung's entries are
    rounded only when the ladder reaches it; most calls end at the first
    rung or two.

    The first psd candidate ends the ladder.  Its L D L^T pivots d = p/q are
    split into rational squares by the search in `numbers`, which scans
    O(sqrt(pq)) candidates; a pivot that is no rational square and has
    pq >= 2^_SPLIT_BITS would never finish, and a finer rung only adds
    height, so such a candidate ends the ladder with None.  The snap of a
    product of conics, whose reduced products enter every coefficient row,
    gives pivots of hundreds of bits, so there the certificate stays
    numeric unless the problem is small.
    """
    n = problem.dim
    rows = matrix.tolist()
    for bound in ladder:
        g = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j in range(i, n):
                g[i][j] = g[j][i] = limit_denominators(row[j], (bound,))[0]
        # a rounded g that is psd and meets every row is its own snap
        snapped = problem.snap.snap(g)
        pivots = None if snapped is None else _rational_ldl(snapped)
        if pivots is None:
            continue
        if any(
            (d.numerator * d.denominator).bit_length() > _SPLIT_BITS and sqrt_fraction(d) is None
            for d, _ in pivots
        ):
            return None
        # g = sum d_k l_k l_k^T gives each summand exactly what the module
        # docstring states, and so does each square r^2 of the split of d_k
        vectors = [[r * c for c in col] for d, col in pivots for r in rational_square_list(d)]
        return _vectors_to_summands(problem, vectors)
    return None


def _rational_ldl(g: Scaled) -> list[tuple[Fraction, list[Fraction]]] | None:
    """Pivoted L D L^T factorization of a symmetric rational matrix nums / den.

    Returns (pivot, column) pairs with the matrix equal to the sum of
    pivot * column * column^T, or None if the matrix is not psd over the
    rationals.  This is the float screen followed by `_ldl_pivots`.

    The screen may only reject: it returns None when the smallest eigenvalue
    of the rounded matrix lies below -_SCREEN_MARGIN * max(1, ||G||_F).  For
    psd G that cannot happen.  Rounding each entry to a float moves it by at
    most 2^-53 of its size (plus 2^-1074 for subnormals), so the rounded
    matrix lies within 2^-53 ||G||_F + n * 2^-1074 of G in the 2-norm, and
    LAPACK's eigenvalues are exact for a matrix within c * n * 2^-53 ||G||_2
    of that one (Weyl's inequality bounds the eigenvalue shift by each
    distance).  While c * n stays below 900 both terms are more than 10^4
    times smaller than the margin.  Matrices with entries outside the float
    range skip the screen.  Every psd verdict comes from the exact
    elimination.
    """
    if _float_screen_rejects(g):
        return None
    pivots = _ldl_pivots(g)
    return None if pivots is None else [(d, col) for _, d, col in pivots]


def _ldl_pivots(g: Scaled) -> list[tuple[int, Fraction, list[Fraction]]] | None:
    """Exact pivoted L D L^T of nums / den: (pivot index p_k, pivot d_k,
    column c_k) triples.

    The matrix equals sum d_k c_k c_k^T, each pivot is the largest remaining
    diagonal entry, c_k[p_k] = 1 and c_k[p_j] = 0 for j < k.  None when the
    matrix is not psd.  With the pivot values a_k of `_bareiss` on nums,
    d_k = a_k / (a_{k-1} den) and c_k[i] = M[i][p_k] / a_k.  Scaling nums and
    den by one factor changes neither, nor the pivot order: after k pivots
    every remaining entry of M scales by the (k+1)-th power of the factor.
    """
    nums, den = g
    steps = _bareiss(nums)
    if steps is None:
        return None
    out = []
    prev = 1
    for p, a, pivot in steps:
        col = [Fraction(0)] * len(nums)
        col[p] = Fraction(1)
        for i, m in pivot.items():
            col[i] = Fraction(m, a)
        out.append((p, Fraction(a, prev * den), col))
        prev = a
    return out


def _bareiss(nums: list[list[int]]) -> list[tuple[int, int, dict[int, int]]] | None:
    """Pivoted fraction-free elimination of a symmetric integer matrix A.

    Returns (p_k, a_k, {i: M[i][p_k]}) triples, or None when A is not psd: a
    negative pivot, or a zero diagonal with a nonzero remaining entry.  The
    elimination is Bareiss's (Math. Comp. 1968).  After k pivots the
    remaining entries of the Bareiss matrix M are minors of A, hence
    integers, and the Schur complement of A is M / a_{k-1}, where
    a_k = M[p_k][p_k] is the k-th pivot value (a_{-1} = 1), the principal
    minor of A on p_0..p_k.  Each pivot is the largest remaining diagonal
    entry, the first one on ties, so A = sum (a_k / a_{k-1}) c_k c_k^T with
    c_k[i] = M[i][p_k] / a_k, and the largest diagonal, the signs and the
    zero tests can be read off M.  M stays symmetric, so the dict holds both
    the pivot column and the pivot row, on the remaining indices where it is
    nonzero.  A step only multiplies a row with a zero in the pivot column
    by a_k / a_{k-1}, so such a row is left as it is: row i keeps R[i] and
    the pivot value e_i of its last update, with M[i][j] = R[i][j] a / e_i
    for a the last pivot value.  That keeps sparse normal matrices cheap.
    """
    n = len(nums)
    rows = [row[:] for row in nums]
    since = [1] * n  # the pivot value row i was last updated with
    active = list(range(n))
    out: list[tuple[int, int, dict[int, int]]] = []
    prev = 1
    while active:
        # the largest rows[i][i] / since[i], the first one on ties
        p = active[0]
        top, below = rows[p][p], since[p]
        for i in active:
            if rows[i][i] * below > top * since[i]:
                p, top, below = i, rows[i][i], since[i]
        if top < 0:
            return None
        if top == 0:
            if any(rows[i][j] for i in active for j in active):
                return None
            break
        active.remove(p)
        rp, ep = rows[p], since[p]
        # the pivot row of the current Bareiss matrix, on its nonzero entries
        pivot = {j: rp[j] * prev // ep for j in active if rp[j]}
        a = top * prev // ep
        for i in pivot:
            row, e = rows[i], since[i]
            f = row[p]
            for j in active:
                v = row[j]
                pj = pivot.get(j)
                if pj is not None:
                    row[j] = (a * v - f * pj) // e
                elif v:
                    row[j] = a * v // e
            since[i] = a
        out.append((p, a, pivot))
        prev = a
    return out


def _float_screen_rejects(g: Scaled) -> bool:
    """Whether nums / den is certainly not psd by the eigenvalue margin in
    _rational_ldl.

    Each entry is the correctly rounded quotient c / den of Python's int
    division, the float of the Fraction.  An entry beyond the float range
    raises OverflowError, and a norm beyond it makes the margin infinite:
    no rejection either way.
    """
    nums, den = g
    with np.errstate(over="ignore"):
        try:
            a = np.array([[c / den for c in row] for row in nums])
            lowest = np.linalg.eigvalsh(a)[0]
        except (OverflowError, np.linalg.LinAlgError):
            return False
        return bool(lowest < -_SCREEN_MARGIN * max(1.0, float(np.linalg.norm(a))))


def _vectors_to_summands(
    problem: GramProblem, vectors: list[list[Fraction]]
) -> dict[str, tuple[RingFn, ...]]:
    """One summand per vector: the polynomial with the vector's coordinates
    on the monomial basis, restricted to each component as its column."""
    return {
        cid: tuple(CircleFn.lincomb(vec, fns) for vec in vectors)
        for cid, fns in problem.restricted.items()
    }


def _float_residual(problem: GramProblem, vectors: list[np.ndarray]) -> float:
    """Largest coefficient of NF(sum S_k^2 - f), in magnitude: the
    coefficient rows at G = sum v_k v_k^T."""
    m, rhs = _constraint_matrix(problem)
    g = sum((np.outer(v, v) for v in vectors), np.zeros((problem.dim, problem.dim)))
    k = problem.matching
    return float(np.max(np.abs(m[:k] @ g.reshape(-1) - rhs[:k]), initial=0.0))
