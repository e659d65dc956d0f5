"""Numeric Gram-matrix certification for targets on compact-type components.

A sum of squares with summand vectors stacked over per-component monomial
bases is exactly a psd Gram matrix G subject to affine constraints:
coefficient matching on each diagonal block, kernel conditions
G (e_i(P) - e_j(P)) = 0 making every summand agree at shared points, and
optional value conditions e(P)^T G e(P) = c tying attachment values to a
part of the curve certified elsewhere.  The solver is Douglas-Rachford
splitting between the psd cone (eigenvalue clipping) and the affine subspace
(least squares, factorized once); extraction rounds the iterate, projects it
exactly onto the affine slice and re-verifies the result exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .components import CircleChart, PolyChart
from .curve import CurveAnalysis
from .numbers import rational_square_list
from .points import AlgebraicPoint, RationalPoint
from .ringfn import (
    CircleFn,
    LineFn,
    RingFn,
    value_at_point,
    values_agree_at_algebraic,
)
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
class GramBlock:
    component: str
    kind: str  # "line" or "circle"
    offset: int
    basis: tuple[RingFn, ...]

    @property
    def size(self) -> int:
        return len(self.basis)


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
    point_id: str
    components: tuple[str, ...]
    point: RationalPoint | AlgebraicPoint


@dataclass(frozen=True)
class Row:
    """The constraint sum of coeffs[i, j] * G[i, j] over i <= j equals rhs.

    Coefficients are Fractions, except in the kernel rows of a shared point
    with algebraic coordinates, where the basis values exist as floats only
    and `exact` is False.
    """

    coeffs: dict[tuple[int, int], Fraction | float]
    rhs: Fraction
    exact: bool = True


@dataclass
class GramProblem:
    blocks: list[GramBlock]
    rows: list[Row]
    snap: "_ExactAffineSnap"  # exact projection onto the exact rows
    degree: int
    targets: dict[str, RingFn]
    charts: dict[str, object]
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


def _line_basis(degree: int) -> tuple[LineFn, ...]:
    return tuple(LineFn(UniPoly([Fraction(0)] * k + [Fraction(1)])) for k in range(degree + 1))


def _circle_basis(degree: int, q: UniPoly) -> tuple[CircleFn, ...]:
    xs = [
        CircleFn(UniPoly([Fraction(0)] * k + [Fraction(1)]), UniPoly.zero(), q)
        for k in range(degree + 1)
    ]
    ws = [
        CircleFn(UniPoly.zero(), UniPoly([Fraction(0)] * k + [Fraction(1)]), q)
        for k in range(max(degree, 0))
    ]
    return tuple(xs + ws)


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


def _basis_values(block: GramBlock, chart, point: RationalPoint) -> list[Fraction]:
    return [value_at_point(b, chart, point) for b in block.basis]


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
    charts: dict[str, object] = {}
    offset = 0
    for cid in subset:
        chart = analysis.component(cid).chart
        charts[cid] = chart
        if isinstance(chart, PolyChart):
            # squares of polynomials cannot cancel leading terms, so a line
            # summand has degree exactly half the target degree; powers above
            # that bound never occur in an exact representation and would
            # only loosen the numeric relaxation
            fn = targets[cid]
            if isinstance(fn, LineFn) and fn.order == 0:
                rule = max(0, -(-fn.num.degree // 2))
            else:
                rule = degree
            basis: tuple[RingFn, ...] = _line_basis(min(degree, rule))
            kind = "line"
        elif isinstance(chart, CircleChart):
            basis = _circle_basis(degree, chart.q)
            kind = "circle"
        else:
            raise ValueError(f"{cid}: no gram basis for this component type")
        blocks.append(GramBlock(cid, kind, offset, basis))
        offset += len(basis)
    n = offset
    block_of = {b.component: b for b in blocks}

    rows: list[Row] = []
    for block in blocks:
        slots: dict[tuple[str, int], dict[tuple[int, int], Fraction]] = {}
        for k in range(block.size):
            for l in range(k, block.size):
                i, j = block.offset + k, block.offset + l
                prod = block.basis[k] * block.basis[l]
                for slot, c in _coeff_slots(prod).items():
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
        rational = isinstance(rec.point, RationalPoint)
        if rational:
            evals = {
                cid: _basis_values(block_of[cid], charts[cid], rec.point)
                for cid in incident
            }
        else:
            xf, yf = rec.point.as_floats(60)
            evals = {
                cid: _float_basis_values(block_of[cid], charts[cid], xf, yf)
                for cid in incident
            }
        kernel_points.append(KernelPoint(rec.id, tuple(incident), rec.point))
        base = block_of[incident[0]]
        for other in incident[1:]:
            u = _basis_vector(base, evals[base.component])
            for s, v in _basis_vector(block_of[other], evals[other]).items():
                u[s] = -v
            rows += _kernel_rows(u, n, rational)

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

    return GramProblem(
        blocks=blocks,
        rows=rows,
        snap=_ExactAffineSnap([r for r in rows if r.exact]),
        degree=degree,
        targets=targets,
        charts=charts,
        kernel_points=kernel_points,
        values=values,
    )


def _basis_vector(block: GramBlock, vals: list) -> dict[int, Fraction | float]:
    """Nonzero basis values of one block, keyed by their index in the stacked basis."""
    return {block.offset + s: v for s, v in enumerate(vals) if v}


def _kernel_rows(u: dict[int, Fraction | float], n: int, exact: bool) -> list[Row]:
    """The n rows of G u = 0."""
    return [
        Row({(min(r, s), max(r, s)): c for s, c in u.items()}, Fraction(0), exact)
        for r in range(n)
    ]


def _float_basis_values(block: GramBlock, chart, xf: float, yf: float) -> list[float]:
    out = []
    for b in block.basis:
        if isinstance(b, LineFn):
            raise ValueError("line components need rational attachment points")
        wf = yf + float(chart.s1) * xf + float(chart.s0)
        out.append(b.a.eval_float(xf) + b.b.eval_float(xf) * wf)
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
            ext = _extract(problem, y, ladder=_PROBE_LADDER)
            if ext.exact:
                return GramSolution(problem, y, it, extraction=ext)
        # patience rule: infeasible problems level off at a positive gap,
        # slow feasible ones keep shaving the residual
        if it >= 500 and it % 100 == 0 and res > 1000 * _SOLVER_TOL:
            if res >= 0.98 * residuals[-401]:
                raise stalled(it, y, residuals[-10:])
    raise stalled(_MAX_ITER, y, residuals[-10:])


_ROUND_LADDER = (1, 2, 4, 8, 16, 64, 1024, 10**6, 10**9)
_PROBE_LADDER = (1, 2, 4, 8, 16, 64, 1024)


class _ExactAffineSnap:
    """Exact projection onto the rational affine constraint slice.

    Rounding a near-solution entrywise almost never lands on the slice when
    it is positive-dimensional but tilted; projecting the rounded matrix
    back in exact arithmetic does.  Inner products use the symmetric-matrix
    metric (off-diagonal entries weigh twice), the normal matrix is LU
    factored once, and each snap is two substitutions.
    """

    def __init__(self, rows: list[Row]):
        self.rows = rows
        k = len(rows)
        normal = [[Fraction(0)] * k for _ in range(k)]
        for a in range(k):
            ra = rows[a].coeffs
            for b in range(a, k):
                rb = rows[b].coeffs
                small, large = (ra, rb) if len(ra) <= len(rb) else (rb, ra)
                acc = Fraction(0)
                for key, c in small.items():
                    d = large.get(key)
                    if d is not None:
                        w = 2 if key[0] != key[1] else 1
                        acc += c * d / w
                normal[a][b] = acc
                normal[b][a] = acc
        # in-place LU with first-nonzero pivoting; exact arithmetic needs no
        # stability pivot, and first-nonzero keeps runs deterministic
        self.perm: list[int] = list(range(k))
        self.pivot_cols: list[tuple[int, int]] = []  # (elimination step, column)
        m = normal
        row_of = self.perm
        step = 0
        for col in range(k):
            pr = None
            for r in range(step, k):
                if m[row_of[r]][col]:
                    pr = r
                    break
            if pr is None:
                continue
            row_of[step], row_of[pr] = row_of[pr], row_of[step]
            prow = m[row_of[step]]
            inv = 1 / prow[col]
            for r in range(step + 1, k):
                cur = m[row_of[r]]
                factor = cur[col] * inv
                if factor:
                    cur[col] = factor  # store the multiplier in place
                    for c in range(col + 1, k):
                        if prow[c]:
                            cur[c] -= factor * prow[c]
            self.pivot_cols.append((step, col))
            step += 1
        self.lu = m
        self.rank = step

    def _solve_normal(self, v: list[Fraction]) -> list[Fraction] | None:
        k = len(self.rows)
        y = [v[i] for i in self.perm]
        for step, col in self.pivot_cols:
            pivot_y = y[step]
            if not pivot_y:
                continue
            for r in range(step + 1, k):
                factor = self.lu[self.perm[r]][col]
                if factor:
                    y[r] -= factor * pivot_y
        for r in range(self.rank, k):
            if y[r]:
                return None  # inconsistent with the dependent rows
        lam = [Fraction(0)] * k
        for idx in range(self.rank - 1, -1, -1):
            step, col = self.pivot_cols[idx]
            acc = y[step]
            row = self.lu[self.perm[step]]
            for later in range(idx + 1, self.rank):
                _, col2 = self.pivot_cols[later]
                if row[col2]:
                    acc -= row[col2] * lam[col2]
            lam[col] = acc / row[col]
        return lam

    def snap(self, ghat: list[list[Fraction]]) -> list[list[Fraction]] | None:
        """Nearest matrix to ghat satisfying every exact row; None only when
        the correction system is inconsistent, which rounding noise cannot
        cause (the rows come from a feasible problem)."""
        v = []
        for row in self.rows:
            acc = row.rhs
            for (i, j), c in row.coeffs.items():
                acc -= c * ghat[i][j]
            v.append(acc)
        lam = self._solve_normal(v)
        if lam is None:
            return None
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


@dataclass
class Extraction:
    summands: list[dict[str, RingFn]]
    exact: bool
    residual: float
    note: str = ""


def extract_summands(sol: GramSolution) -> Extraction:
    if sol.extraction is not None:
        return sol.extraction
    return _extract(sol.problem, sol.matrix)


def _extract(
    problem: GramProblem,
    matrix: np.ndarray,
    ladder: tuple[int, ...] = _ROUND_LADDER,
) -> Extraction:
    """Summand functions from the Gram matrix.

    The exact route rounds the matrix entries to small rationals, projects
    the result exactly onto the slice of the exact rows, factors it as
    L D L^T over the rationals, and turns each positive pivot into a square
    list, so irrational eigen directions are never an obstruction; the result
    is promoted to exact only after re-verification against the stored
    targets, kernel points and value data.  Failing that, the eigenvector
    summands are returned with a coefficient residual.
    """
    n = problem.dim
    for denom in ladder:
        g = [
            [Fraction(float(matrix[i, j])).limit_denominator(denom) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(i + 1, n):
                g[j][i] = g[i][j]
        # a rounded g that passes _promote meets every exact row, so the
        # snap returns it unchanged: the snapped matrix is the only candidate
        snapped = problem.snap.snap(g)
        found = None if snapped is None else _promote(problem, snapped)
        if found is not None:
            return Extraction(found, True, 0.0, f"rationalized at {denom}")

    w, v = jacobi_eigh(matrix)
    order = np.argsort(w)[::-1]
    cutoff = max(1.0, float(np.max(np.abs(w)))) * 1e-10 if w.size else 0.0
    vectors = [np.sqrt(max(w[i], 0.0)) * v[:, i] for i in order if w[i] > cutoff]
    float_vectors = [[Fraction(float(c)) for c in vec] for vec in vectors]
    summands = _vectors_to_summands(problem, float_vectors)
    residual = _float_residual(problem, summands)
    return Extraction(summands, False, residual, "rationalization failed")


def _promote(
    problem: GramProblem, g: list[list[Fraction]]
) -> list[dict[str, RingFn]] | None:
    """Exact summands from a rational Gram candidate, or None.

    Verifies in weighted form before splitting pivots into square lists:
    the split can be expensive, and a bad candidate would send huge
    integers into the four-square search.
    """
    pivots = _rational_ldl(g)
    if pivots is None:
        return None
    weighted = [(d, _vectors_to_summands(problem, [col])[0]) for d, col in pivots]
    if not _weighted_exact_check(problem, weighted):
        return None
    exact_vectors: list[list[Fraction]] = []
    for d, col in pivots:
        for r in rational_square_list(d):
            if r:
                exact_vectors.append([r * c for c in col])
    return _vectors_to_summands(problem, exact_vectors)


def _rational_ldl(g: list[list[Fraction]]) -> list[tuple[Fraction, list[Fraction]]] | None:
    """Pivoted L D L^T factorization of a symmetric rational matrix.

    Returns (pivot, column) pairs with the matrix equal to the sum of
    pivot * column * column^T, or None if the matrix is not psd over the
    rationals (negative pivot, or a zero diagonal with a nonzero row).
    """
    n = len(g)
    m = [row[:] for row in g]
    active = list(range(n))
    out: list[tuple[Fraction, list[Fraction]]] = []
    while active:
        p = max(active, key=lambda i: m[i][i])
        d = m[p][p]
        if d < 0:
            return None
        if d == 0:
            if any(m[i][j] for i in active for j in active):
                return None
            break
        col = [Fraction(0)] * n
        for i in active:
            col[i] = m[i][p] / d
        for i in active:
            for j in active:
                m[i][j] -= d * col[i] * col[j]
        active.remove(p)
        out.append((d, col))
    return out


def _vectors_to_summands(
    problem: GramProblem, vectors: list[list[Fraction]]
) -> list[dict[str, RingFn]]:
    out = []
    for vec in vectors:
        entry: dict[str, RingFn] = {}
        for block in problem.blocks:
            coords = vec[block.offset : block.offset + block.size]
            if block.kind == "line":
                f: RingFn = LineFn.zero()
            else:
                f = CircleFn.zero(block.basis[0].q)
            for c, b in zip(coords, block.basis):
                if c:
                    f = f + b.scale(c)
            entry[block.component] = f
        out.append(entry)
    return out


def _weighted_exact_check(
    problem: GramProblem, weighted: list[tuple[Fraction, dict[str, RingFn]]]
) -> bool:
    """Exactness of sum(d_i * f_i^2) against targets, kernel and value data.

    Positive weights let the check run before pivots are expanded into
    square lists; agreement conditions quantify over summands, so they hold
    for the weighted family iff they hold after expansion.
    """
    for block in problem.blocks:
        cid = block.component
        target = problem.targets[cid]
        total = None
        for d, fns in weighted:
            term = (fns[cid] * fns[cid]).scale(d)
            total = term if total is None else total + term
        if total is None:
            if not target.is_zero:
                return False
        elif total != target:
            return False
    for kp in problem.kernel_points:
        if isinstance(kp.point, RationalPoint):
            for d, fns in weighted:
                if not d:
                    continue
                vals = {
                    value_at_point(fns[cid], problem.charts[cid], kp.point)
                    for cid in kp.components
                }
                if len(vals) != 1:
                    return False
        else:
            base = kp.components[0]
            for d, fns in weighted:
                if not d:
                    continue
                for other in kp.components[1:]:
                    if not values_agree_at_algebraic(
                        fns[base],
                        problem.charts[base],
                        fns[other],
                        problem.charts[other],
                        kp.point,
                    ):
                        return False
    value_vecs = {}
    for pv in problem.values:
        value_vecs[pv.point_id] = [
            value_at_point(fns[pv.component], problem.charts[pv.component], pv.point)
            for _, fns in weighted
        ]
    for i, pv in enumerate(problem.values):
        for j in range(i, len(problem.values)):
            other = problem.values[j]
            total = Fraction(0)
            for (d, _), va, vb in zip(
                weighted, value_vecs[pv.point_id], value_vecs[other.point_id]
            ):
                total += d * va * vb
            goal = sum(
                (a * b for a, b in zip(pv.vector, other.vector)), Fraction(0)
            )
            if total != goal:
                return False
    return True


def _float_residual(problem: GramProblem, summands: list[dict[str, RingFn]]) -> float:
    worst = 0.0
    for block in problem.blocks:
        cid = block.component
        target = problem.targets[cid]
        if not summands:
            gap_slots = _coeff_slots(target)
            worst = max(
                [worst] + [abs(float(c)) for c in gap_slots.values()], default=worst
            )
            continue
        total = summands[0][cid].scale(0)
        for s in summands:
            total = total + s[cid] * s[cid]
        gap = total - target
        for c in _coeff_slots(gap).values():
            worst = max(worst, abs(float(c)))
    return worst
