"""Numeric Gram-matrix certification for targets on compact-type components.

A sum of squares with summand vectors stacked over per-component monomial
bases is exactly a psd Gram matrix G subject to affine constraints:
coefficient matching on each diagonal block, kernel conditions
G (e_i(P) - e_j(P)) = 0 making every summand agree at shared points, and
optional value conditions e(P)^T G e(P) = c tying attachment values to a
part of the curve certified elsewhere.  The solver is Douglas-Rachford
splitting between the psd cone (eigenvalue clipping) and the affine subspace
(least squares, factorized once); extraction rounds the iterate and projects
it exactly onto the slice of the rational rows (Peyrl and Parrilo, TCS 2008).

Each exact fact about a rational candidate G is proved once:
- the closing check of `_ExactAffineSnap.snap` proves every exact row:
  coefficient matching, G u = 0 at rational shared points and at zero value
  prescriptions, and the value rows e(P)^T G e(Q) = <v_P, v_Q>;
- `_agrees_at_algebraic_points` proves agreement at the shared points with
  algebraic coordinates, whose kernel rows the solver sees as floats only:
  there the relation e_i(P) - e_j(P) has its entries in Q[u]/(P') for the
  point's frame value u (`unipoly.BoxedValue`), and each entry of G times
  it must vanish at the boxed root;
- the exact L D L^T of `_rational_ldl` proves G psd, G = sum d_k l_k l_k^T.
For psd G, u^T G u = sum d_k (l_k . u)^2, so G u = 0 makes every summand
l_k agree at the point; the coefficient rows give sum d_k f_k^2 = target and
the value rows are bilinear in G.  Splitting each d_k into rational squares
keeps all three, so the summands need no further check.

One filter runs before these proofs and proves nothing: `_AgreementScreen`
evaluates the first test `_agrees_at_algebraic_points` would make on the
snapped matrix directly on the rounded one, since the snap is affine
(`_ExactAffineSnap.pull_back`), and skips the snap when that test fails.
It only rejects, and only candidates the agreement check would reject
after the snap; every accepted candidate is still snapped and proved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .components import CircleChart, LineChart
from .curve import CurveAnalysis
from .numbers import limit_denominators, rational_square_list
from .points import AlgebraicPoint, RationalPoint
from .ringfn import (
    CircleFn,
    LineFn,
    RingFn,
    chart_arguments,
    sum_of_squares,
)
from .unipoly import BoxedValue, RootBox, UniPoly


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
class GramBlock:
    component: str
    kind: str  # "line" or "circle"
    offset: int
    # line: 1, t, ..., t^degree; circle: 1, x, ..., x^degree, then
    # w, xw, ..., x^(degree-1) w, where w^2 = q(x)
    degree: int
    q: UniPoly | None = None  # the circle chart's q; None on a line

    @property
    def size(self) -> int:
        return self.degree + 1 if self.kind == "line" else 2 * self.degree + 1


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
class KernelPoint:
    """A real point shared by two or more components of the problem.

    At a rational point the agreement conditions are exact rows of the
    problem.  At an algebraic point alpha, `relations` holds one map per
    incident component after the first: basis index s to the entry w_s of
    e_first(alpha) - e_other(alpha) in Q[u]/(P'), P' the modulus of the
    point's coordinates.  A psd G makes every summand agree there exactly
    when G w = 0 at alpha (see the module docstring), which
    `_agrees_at_algebraic_points` tests.
    """

    point_id: str
    components: tuple[str, ...]
    point: RationalPoint | AlgebraicPoint
    relations: tuple[dict[int, BoxedValue], ...] = ()


@dataclass(frozen=True)
class Row:
    """The constraint sum of coeffs[i, j] * G[i, j] over i <= j equals rhs.

    Coefficients are Fractions, except in the kernel rows of a shared point
    with algebraic coordinates: those carry the floats of the entries of
    `KernelPoint.relations` for the solver and have `exact` False.  The
    snap leaves them out; extraction checks the relations exactly.
    """

    coeffs: dict[tuple[int, int], Fraction | float]
    rhs: Fraction
    exact: bool = True


@dataclass
class GramProblem:
    blocks: list[GramBlock]
    rows: list[Row]
    snap: "_ExactAffineSnap"  # exact projection onto the exact rows
    screen: "_AgreementScreen | None"  # reject-only test of candidates before the snap
    degree: int
    targets: dict[str, RingFn]
    kernel_points: list[KernelPoint] = field(default_factory=list)
    values: list[PrescribedValue] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.blocks[-1].offset + self.blocks[-1].size if self.blocks else 0


@dataclass
class GramSolution:
    problem: GramProblem
    matrix: np.ndarray
    iterations: int
    extraction: "Extraction | None" = None


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


def _coeff_slots(fn: RingFn) -> dict[tuple[str, int], Fraction]:
    """Sparse {(part, power): coefficient} view of a ring function."""
    out: dict[tuple[str, int], Fraction] = {}
    if isinstance(fn, LineFn):
        if fn.order:
            raise ValueError("gram problems support polynomial line functions only")
        for m, c in enumerate(fn.num.coeffs):
            if c:
                out[("a", m)] = c
    else:
        for m, c in enumerate(fn.a.coeffs):
            if c:
                out[("a", m)] = c
        for m, c in enumerate(fn.b.coeffs):
            if c:
                out[("b", m)] = c
    return out


def _basis_values(block: GramBlock, chart, point: RationalPoint | AlgebraicPoint) -> list:
    """Exact basis values at a real point (Fractions, or elements of an algebraic
    point's Q[u]/(P')): running products of the chart arguments, t^k on a line
    and x^k, then x^k w on a circle, in the order of `GramBlock`."""
    args = chart_arguments(chart, point)
    vals = [args[0] * 0 + 1]  # the one of the arguments' ring
    for _ in range(block.degree):
        vals.append(vals[-1] * args[0])
    if block.kind == "circle":
        vals += [xk * args[1] for xk in vals[: block.degree]]
    return vals


def build_gram_problem(
    analysis: CurveAnalysis,
    targets: dict[str, RingFn],
    subset: list[str] | tuple[str, ...],
    degree: int,
    values: list[PrescribedValue] | tuple[PrescribedValue, ...] = (),
) -> GramProblem:
    """Set up the constrained Gram problem for the subset of components.

    `targets` maps each component id to the target's restriction there.
    `degree` bounds the basis: powers 1..t^d on lines, 1..x^d plus w, xw,
    ..., x^(d-1) w on circle-form conics.
    """
    subset = tuple(subset)
    blocks: list[GramBlock] = []
    charts = {cid: analysis.component(cid).chart for cid in subset}
    offset = 0
    for cid in subset:
        chart = charts[cid]
        if isinstance(chart, LineChart):
            # squares of polynomials cannot cancel leading terms, so a line
            # summand has degree exactly half the target degree; powers above
            # that bound never occur in an exact representation and would
            # only loosen the numeric relaxation
            fn = targets[cid]
            if isinstance(fn, LineFn) and fn.order == 0:
                rule = max(0, -(-fn.num.degree // 2))
            else:
                rule = degree
            block = GramBlock(cid, "line", offset, min(degree, rule))
        elif isinstance(chart, CircleChart):
            block = GramBlock(cid, "circle", offset, degree, chart.q)
        else:
            raise ValueError(f"{cid}: no gram basis for this component type")
        blocks.append(block)
        offset += block.size
    n = offset
    block_of = {b.component: b for b in blocks}

    rows: list[Row] = []
    for block in blocks:
        slots: dict[tuple[str, int], dict[tuple[int, int], Fraction]] = {}
        for k in range(block.size):
            for l in range(k, block.size):
                i, j = block.offset + k, block.offset + l
                for slot, c in _product_slots(block, k, l):
                    slots.setdefault(slot, {})[(i, j)] = c if i == j else 2 * c
        wanted = _coeff_slots(targets[block.component])
        for slot in wanted:
            if slot not in slots:
                raise ValueError(
                    f"{block.component}: target degree exceeds the basis "
                    f"(missing {slot} at gram degree {degree})"
                )
        for slot, coeffs in sorted(slots.items()):
            rows.append(Row(coeffs, wanted.get(slot, Fraction(0))))

    kernel_points: list[KernelPoint] = []
    index_of = {cid: analysis.component(cid).index for cid in subset}
    for rec in analysis.points:
        if not rec.is_real:
            continue
        incident = [cid for cid in subset if index_of[cid] in rec.components]
        if len(incident) < 2:
            continue
        # e_first - e_other, exact; at an algebraic point the solver sees
        # its float image and `_agrees_at_algebraic_points` the exact one
        evals = {
            cid: _basis_vector(block_of[cid], _basis_values(block_of[cid], charts[cid], rec.point))
            for cid in incident
        }
        relations = []
        for other in incident[1:]:
            rel = dict(evals[incident[0]])
            for s, v in evals[other].items():
                rel[s] = -v
            relations.append(rel)
        rational = isinstance(rec.point, RationalPoint)
        kernel_points.append(
            KernelPoint(rec.id, tuple(incident), rec.point, () if rational else tuple(relations))
        )
        for rel in relations:
            if not rational:
                rel = {s: w.poly.eval_float(rec.point.u_float) for s, w in rel.items()}
            rows += _kernel_rows(rel, n, rational)

    values = list(values)
    evecs = [
        _basis_vector(
            block_of[pv.component],
            _basis_values(block_of[pv.component], charts[pv.component], pv.point),
        )
        for pv in values
    ]
    zero_ids = {i for i, pv in enumerate(values) if not any(pv.vector)}
    for i in sorted(zero_ids):
        # a zero prescription means every summand vanishes at the point,
        # which for a psd matrix is the linear condition G e(P) = 0; the
        # quadratic form alone would leave the kernel membership implicit
        # and exact factorization could not recover it from rounded data
        rows += _kernel_rows(evecs[i], n, True)
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

    snap = _ExactAffineSnap([r for r in rows if r.exact])
    return GramProblem(
        blocks=blocks,
        rows=rows,
        snap=snap,
        screen=_AgreementScreen.build(snap, kernel_points),
        degree=degree,
        targets=targets,
        kernel_points=kernel_points,
        values=values,
    )


def _product_slots(block: GramBlock, k: int, l: int) -> list[tuple[tuple[str, int], Fraction]]:
    """The nonzero coefficient slots of the product of basis functions k <= l,
    by exponent sums: t^i t^j = t^(i+j) and x^i x^j = x^(i+j) go to a-slot
    i+j, x^i * x^j w to b-slot i+j, and x^i w * x^j w = x^(i+j) q(x) to the
    a-slots i+j+m with the coefficients q_m."""
    d = block.degree
    if block.kind == "line" or l <= d:
        return [(("a", k + l), Fraction(1))]
    if k <= d:
        return [(("b", k + l - d - 1), Fraction(1))]
    s = k + l - 2 * d - 2
    return [(("a", s + m), c) for m, c in enumerate(block.q.coeffs) if c]


def _basis_vector(block: GramBlock, vals: list) -> dict[int, Fraction | float]:
    """Nonzero basis values of one block, keyed by their index in the stacked basis."""
    return {block.offset + s: v for s, v in enumerate(vals) if v}


def _kernel_rows(u: dict[int, Fraction | float], n: int, exact: bool) -> list[Row]:
    """The n rows of G u = 0."""
    return [
        Row({(min(r, s), max(r, s)): c for s, c in u.items()}, Fraction(0), exact)
        for r in range(n)
    ]


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
                return GramSolution(problem, y, it, Extraction(found, True, 0.0))
        # patience rule: infeasible problems level off at a positive gap,
        # slow feasible ones keep shaving the residual
        if it >= 500 and it % 100 == 0 and res > 1000 * _SOLVER_TOL:
            if res >= 0.98 * residuals[-401]:
                raise stalled(it, y, residuals[-10:])
    raise stalled(_MAX_ITER, y, residuals[-10:])


_ROUND_LADDER = (1, 2, 4, 8, 16, 64, 1024, 10**6, 10**9)
_PROBE_LADDER = (1, 2, 4, 8, 16, 64, 1024)
_SCREEN_MARGIN = 1e-9  # relative eigenvalue margin of the float screen in _rational_ldl


class _ExactAffineSnap:
    """Exact projection onto the rational affine constraint slice.

    Rounding a near-solution entrywise almost never lands on the slice when
    it is positive-dimensional but tilted; projecting the rounded matrix
    back in exact arithmetic does.  Inner products use the symmetric-matrix
    metric (off-diagonal entries weigh twice).  The normal matrix N of the
    rows is their Gram matrix in that metric, hence psd, so `_ldl_pivots`
    factors it once, N = sum d_k c_k c_k^T, without the float screen, and
    each snap is a forward and a backward sweep over the pivots.  Dependent
    rows leave pivots out; a system that is inconsistent with them is caught
    by the closing row check of `snap`.

    The snap is affine: snap(ghat) = ghat + sum_a lam_a M_a, with M_a the
    symmetric matrix of row a (so <M_a, G> = R_a(G)) and lam = S (b - R ghat).
    The forward sweep of `_solve_normal` reads only the pivot rows p, so
    S = E_p N_pp^-1 E_p^T, which is symmetric also when rows are dependent.
    For a linear phi and f_a = phi(M_a) this gives
    phi(snap(ghat)) = phi(ghat) + (S f) . (b - R ghat) = c + <psi, ghat>
    with z = S f, c = z . b and psi = phi - sum_a z_a R_a: one solve pulls
    phi back to the rounded matrix (`pull_back`).
    """

    def __init__(self, rows: list[Row]):
        self.rows = rows
        k = len(rows)
        # row a is ints[a] / dens[a]; weighted[a] doubles its diagonal keys, so
        # an entry is (sum ints[a] * weighted[b]) / (2 dens[a] dens[b])
        dens, ints, weighted = [], [], []
        for row in rows:
            den = lcm(*(c.denominator for c in row.coeffs.values()))
            num = {key: c.numerator * (den // c.denominator) for key, c in row.coeffs.items()}
            dens.append(den)
            ints.append(num)
            weighted.append({key: 2 * c if key[0] == key[1] else c for key, c in num.items()})
        normal = [[Fraction(0)] * k for _ in range(k)]
        for a in range(k):
            ra, wa = ints[a], weighted[a]
            for b in range(a, k):
                rb, wb = ints[b], weighted[b]
                small, large = (ra, wb) if len(ra) <= len(rb) else (rb, wa)
                acc = 0
                for key, c in small.items():
                    d = large.get(key)
                    if d is not None:
                        acc += c * d
                if acc:
                    normal[a][b] = normal[b][a] = Fraction(acc, 2 * dens[a] * dens[b])
        # (pivot row p_k, pivot d_k, the nonzero entries of c_k other than p_k)
        self.pivots = [
            (p, d, [(i, c) for i, c in enumerate(col) if c and i != p])
            for p, d, col in _ldl_pivots(normal)
        ]

    def _solve_normal(self, v: list[Fraction]) -> list[Fraction]:
        """A solution of N lam = v, zero off the pivot rows, when one exists.

        Pivot k has c_k[p_k] = 1 and c_k[p_j] = 0 for j < k.  With
        y_k = d_k (c_k . lam), N lam = sum y_k c_k: the forward sweep reads
        y_k off the pivot rows of v, and the backward sweep solves
        c_k . lam = y_k / d_k for lam[p_k], last pivot first.
        """
        rest = list(v)
        ys = []
        for p, _, col in self.pivots:
            y = rest[p]
            ys.append(y)
            if y:
                for i, c in col:
                    rest[i] -= y * c
        lam = [Fraction(0)] * len(v)
        for (p, d, col), y in zip(reversed(self.pivots), reversed(ys)):
            acc = y / d
            for i, c in col:
                if lam[i]:
                    acc -= c * lam[i]
            lam[p] = acc
        return lam

    def pull_back(
        self, phi: dict[tuple[int, int], Fraction]
    ) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
        """(c, psi) with phi(snap(ghat)) = c + <psi, ghat> for symmetric ghat.

        phi and psi are keyed like row coefficients, (i, j) with i <= j,
        and <psi, G> = sum psi[i, j] G[i][j]; see the class docstring.
        The identity holds wherever `snap` returns a matrix.
        """
        f = []
        for row in self.rows:
            acc = Fraction(0)
            for key, c in row.coeffs.items():
                d = phi.get(key)
                if d is not None:
                    acc += c * d / (2 if key[0] != key[1] else 1)
            f.append(acc)
        psi = dict(phi)
        const = Fraction(0)
        for z, row in zip(self._solve_normal(f), self.rows):
            if not z:
                continue
            const += z * row.rhs
            for key, c in row.coeffs.items():
                psi[key] = psi.get(key, 0) - z * c
        return const, {key: c for key, c in psi.items() if c}

    def snap(self, ghat: list[list[Fraction]]) -> list[list[Fraction]] | None:
        """Nearest matrix to ghat satisfying every exact row, or None.

        The closing check is the one place that proves a candidate meets
        every exact row; it returns None when the rows are inconsistent,
        which rounding noise cannot cause (the rows come from a feasible
        problem).
        """
        v = []
        for row in self.rows:
            acc = row.rhs
            for (i, j), c in row.coeffs.items():
                acc -= c * ghat[i][j]
            v.append(acc)
        lam = self._solve_normal(v)
        out = [r[:] for r in ghat]
        for l, row in zip(lam, self.rows):
            if not l:
                continue
            for (i, j), c in row.coeffs.items():
                w = 2 if i != j else 1
                out[i][j] += l * c / w
                if i != j:
                    out[j][i] = out[i][j]
        for row in self.rows:
            acc = Fraction(0)
            for (i, j), c in row.coeffs.items():
                acc += c * out[i][j]
            if acc != row.rhs:
                return None
        return out


@dataclass(frozen=True)
class _AgreementScreen:
    """The first test of `_agrees_at_algebraic_points`, pulled back before the snap.

    For the first relation w of the first algebraic kernel point, with
    entries in Q[u]/(P'), that test takes row 0 of the snapped matrix:
    sum_s G[0][s] w_s, and rejects when it does not vanish at the point.
    Its coordinate of u^k, k < deg P', is the linear map
    phi_k(G) = sum_s G[0][s] coeff_k(w_s), and `_ExactAffineSnap.pull_back`
    turns each into c_k + <psi_k, ghat> on the rounded matrix, so the
    screen evaluates the same element without snapping.  It only ever
    rejects a candidate that `_promote` would reject; every acceptance
    still goes through the snap and `_promote`.
    """

    box: RootBox
    modulus: UniPoly
    terms: tuple[tuple[Fraction, tuple[tuple[int, int, Fraction], ...]], ...]
    # the entries (i, j), i <= j, of ghat that `rejects` reads
    keys: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    # per term: const and psi as integer numerators over one denominator
    _ints: tuple[tuple[Fraction, int, tuple[tuple[int, int, int], ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ints = []
        for const, psi in self.terms:
            den = lcm(*(c.denominator for _, _, c in psi))
            ints.append((const, den, tuple((i, j, c.numerator * (den // c.denominator)) for i, j, c in psi)))
        object.__setattr__(self, "_ints", tuple(ints))
        keys = dict.fromkeys((i, j) for _, psi in self.terms for i, j, _ in psi)
        object.__setattr__(self, "keys", tuple(keys))

    @staticmethod
    def build(
        snap: _ExactAffineSnap, kernel_points: list[KernelPoint]
    ) -> "_AgreementScreen | None":
        kp = next((kp for kp in kernel_points if kp.relations), None)
        if kp is None:
            return None
        rel = {s: w.coords for s, w in kp.relations[0].items()}
        ring = kp.point.x
        terms = []
        for k in range(ring.modulus.degree):
            phi = {(0, s): c[k] for s, c in rel.items() if c[k]}
            const, psi = snap.pull_back(phi)
            terms.append((const, tuple((i, j, c) for (i, j), c in psi.items())))
        return _AgreementScreen(ring.box, ring.modulus, tuple(terms))

    def rejects(self, ghat: list[list[Fraction]]) -> bool:
        """Whether row 0 of snap(ghat) fails the agreement test at the point."""
        coeffs = []
        for const, den, psi in self._ints:
            # sum c * ghat[i][j] as acc / acc_den, over a running common denominator
            acc, acc_den = 0, 1
            for i, j, c in psi:
                x = ghat[i][j]
                if x:
                    xd = x.denominator
                    if acc_den % xd:
                        m = xd // gcd(acc_den, xd)
                        acc *= m
                        acc_den *= m
                    acc += c * x.numerator * (acc_den // xd)
            coeffs.append(const + Fraction(acc, acc_den * den))
        return not BoxedValue(UniPoly(coeffs), self.box, self.modulus).is_zero()


@dataclass
class Extraction:
    summands: list[dict[str, RingFn]]
    exact: bool
    residual: float


def extract_summands(sol: GramSolution) -> Extraction:
    """Summand functions from the Gram matrix of a solution.

    Exact summands when the rounding ladder finds them; otherwise the
    eigenvector summands with their coefficient residual.
    """
    if sol.extraction is not None:
        return sol.extraction
    found = _round_to_exact(sol.problem, sol.matrix, _ROUND_LADDER)
    if found is not None:
        return Extraction(found, True, 0.0)
    w, v = jacobi_eigh(sol.matrix)
    order = np.argsort(w)[::-1]
    cutoff = max(1.0, float(np.max(np.abs(w)))) * 1e-10 if w.size else 0.0
    vectors = [np.sqrt(max(w[i], 0.0)) * v[:, i] for i in order if w[i] > cutoff]
    float_vectors = [[Fraction(float(c)) for c in vec] for vec in vectors]
    summands = _vectors_to_summands(sol.problem, float_vectors)
    return Extraction(summands, False, _float_residual(sol.problem, summands))


def _round_to_exact(
    problem: GramProblem, matrix: np.ndarray, ladder: tuple[int, ...]
) -> list[dict[str, RingFn]] | None:
    """Exact summands from the first rounding of the matrix that promotes, or None.

    Each rung rounds the entries to rationals with bounded denominators and
    projects the result exactly onto the slice of the exact rows, so
    irrational eigen directions are never an obstruction.

    Before the snap, the problem's `_AgreementScreen` evaluates the first
    agreement test of `_promote` on the snapped matrix without computing
    it: the snap is affine with a symmetric solve (`_ExactAffineSnap`), so
    each coefficient of the tested polynomial is c_k + <psi_k, ghat>.  A
    rung the screen rejects would fail `_agrees_at_algebraic_points` after
    the snap, so skipping it changes no result.

    Entries are rounded lazily: an entry gets one `limit_denominators` call,
    for every rung at once, the first time a rung reads it.  A rung first
    fills only the entries the screen reads (`_AgreementScreen.keys`); the
    full candidate is built, snapped and promoted only when the screen
    passes it or there is no screen, and it is the candidate an eager
    rounding of every entry would give.
    """
    n = problem.dim
    entries = matrix.tolist()
    rounded: dict[tuple[int, int], list[Fraction]] = {}

    def rounding(key: tuple[int, int]) -> list[Fraction]:
        vals = rounded.get(key)
        if vals is None:
            vals = rounded[key] = limit_denominators(entries[key[0]][key[1]], ladder)
        return vals

    screen = problem.screen
    if screen is not None:
        # only the screen's keys are ever set, and every rung sets all of them
        probe = [[Fraction(0)] * n for _ in range(n)]
    for rung in range(len(ladder)):
        if screen is not None:
            for i, j in screen.keys:
                probe[i][j] = rounding((i, j))[rung]
            if screen.rejects(probe):
                continue
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rounding((i, j))[rung]
        # a rounded g that passes _promote meets every exact row, so the
        # snap returns it unchanged: the snapped matrix is the only candidate
        snapped = problem.snap.snap(g)
        found = None if snapped is None else _promote(problem, snapped)
        if found is not None:
            return found
    return None


def _promote(
    problem: GramProblem, g: list[list[Fraction]]
) -> list[dict[str, RingFn]] | None:
    """Exact summands from a snapped rational Gram candidate, or None.

    The snap has proved every exact row.  Agreement at the algebraic shared
    points is tested next, on g itself, so a g that fails it never reaches
    the exact L D L^T; the L D L^T then rejects a non-psd g.  For the rest,
    g = sum d_k l_k l_k^T with d_k > 0 gives each summand exactly what the
    module docstring states, and so does each square r^2 of the split of d_k.
    """
    if not _agrees_at_algebraic_points(problem, g):
        return None
    pivots = _rational_ldl(g)
    if pivots is None:
        return None
    exact_vectors: list[list[Fraction]] = []
    for d, col in pivots:
        for r in rational_square_list(d):
            if r:
                exact_vectors.append([r * c for c in col])
    return _vectors_to_summands(problem, exact_vectors)


def _agrees_at_algebraic_points(problem: GramProblem, g: list[list[Fraction]]) -> bool:
    """Whether g w(alpha) = 0 for every relation w of every algebraic kernel
    point: row r of g times w is one element of Q[u]/(P'), zero or not at alpha."""
    for kp in problem.kernel_points:
        ring = kp.point.x
        for rel in kp.relations:
            polys = [w.poly for w in rel.values()]
            for row in g:
                acc = UniPoly.lincomb([row[s] for s in rel], polys)
                if not BoxedValue(acc, ring.box, ring.modulus).is_zero():
                    return False
    return True


def _rational_ldl(g: list[list[Fraction]]) -> list[tuple[Fraction, list[Fraction]]] | None:
    """Pivoted L D L^T factorization of a symmetric rational matrix.

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


def _ldl_pivots(
    g: list[list[Fraction]],
) -> list[tuple[int, Fraction, list[Fraction]]] | None:
    """Exact pivoted L D L^T: (pivot index p_k, pivot d_k, column c_k) triples.

    The matrix equals sum d_k c_k c_k^T, each pivot is the largest remaining
    diagonal entry, c_k[p_k] = 1 and c_k[p_j] = 0 for j < k.  None when the
    matrix is not psd: a negative pivot, or a zero diagonal with a nonzero
    remaining entry.

    The elimination is fraction-free (Bareiss, Math. Comp. 1968) on the
    integer matrix A = s g, s the lcm of g's denominators.  After k pivots
    the remaining entries of A's Bareiss matrix M are minors of A, hence
    integers, and the Schur complement of g is M / (s a_{k-1}), where
    a_k = M[p_k][p_k] is the k-th pivot value (a_{-1} = 1).  So
    d_k = a_k / (a_{k-1} s) and c_k[i] = M[i][p_k] / a_k, and the largest
    diagonal, the signs and the zero tests can be read off M.  A step only
    multiplies a row with a zero in the pivot column by a_k / a_{k-1}, so
    such a row is left as it is: row i keeps R[i] and the pivot value e_i
    of its last update, with M[i][j] = R[i][j] a / e_i for a the last pivot
    value.  That keeps sparse normal matrices cheap.
    """
    n = len(g)
    s = lcm(*(c.denominator for row in g for c in row))
    rows = [[c.numerator * (s // c.denominator) for c in row] for row in g]
    since = [1] * n  # the pivot value row i was last updated with
    active = list(range(n))
    out: list[tuple[int, Fraction, list[Fraction]]] = []
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
        col = [Fraction(0)] * n
        col[p] = Fraction(1)
        for i in pivot:
            row, e = rows[i], since[i]
            f = row[p]
            col[i] = Fraction(f * prev, e * a)
            for j in active:
                v = row[j]
                pj = pivot.get(j)
                if pj is not None:
                    row[j] = (a * v - f * pj) // e
                elif v:
                    row[j] = a * v // e
            since[i] = a
        out.append((p, Fraction(a, prev * s), col))
        prev = a
    return out


def _float_screen_rejects(g: list[list[Fraction]]) -> bool:
    """Whether g is certainly not psd by the eigenvalue margin in _rational_ldl.

    A norm beyond the float range makes the margin infinite: no rejection.
    """
    with np.errstate(over="ignore"):
        try:
            a = np.array([[float(c) for c in row] for row in g])
            lowest = np.linalg.eigvalsh(a)[0]
        except (OverflowError, np.linalg.LinAlgError):
            return False
        return bool(lowest < -_SCREEN_MARGIN * max(1.0, float(np.linalg.norm(a))))


def _vectors_to_summands(
    problem: GramProblem, vectors: list[list[Fraction]]
) -> list[dict[str, RingFn]]:
    """One summand per vector, read off its coordinates in the monomial bases
    (`GramBlock.degree`): a line block is the coefficient list of the
    polynomial, a circle block the d + 1 coefficients of a(x), then of b(x)."""
    out = []
    for vec in vectors:
        entry: dict[str, RingFn] = {}
        for block in problem.blocks:
            coords = vec[block.offset : block.offset + block.size]
            if block.kind == "line":
                entry[block.component] = LineFn(UniPoly(coords))
            else:
                split = block.degree + 1
                entry[block.component] = CircleFn(
                    UniPoly(coords[:split]), UniPoly(coords[split:]), block.q
                )
        out.append(entry)
    return out


def _float_residual(problem: GramProblem, summands: list[dict[str, RingFn]]) -> float:
    """Largest coefficient of sum f^2 - target, in magnitude, over the blocks."""
    worst = 0.0
    for block in problem.blocks:
        target = problem.targets[block.component]
        gap = sum_of_squares([s[block.component] for s in summands], target) - target
        for c in _coeff_slots(gap).values():
            worst = max(worst, abs(float(c)))
    return worst
