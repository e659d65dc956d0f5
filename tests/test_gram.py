from fractions import Fraction as Fr

import numpy as np
import pytest

from soscurves import gram
from soscurves.curve import analyze_curve
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import restrict_to_chart


def _problem(factors, target, degree):
    analysis = analyze_curve([B(f) for f in factors])
    cids = [c.label for c in analysis.components]
    F = B(target)
    targets = {cid: restrict_to_chart(F, analysis.component(cid).chart) for cid in cids}
    return gram.build_gram_problem(analysis, targets, cids, degree)


PROBLEMS = [
    (["x^2 + y^2 - 1"], "x^2 + 1"),
    (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1"),
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
    exact = [(r, row) for r, row in enumerate(problem.rows) if row.exact]
    assert exact
    for r, row in exact:
        value = sum((c * g[i][j] for (i, j), c in row.coeffs.items()), Fr(0))
        assert abs(applied[r] - float(value)) <= 1e-12 * max(1.0, abs(float(value)))
        assert rhs[r] == float(row.rhs)


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
    g = snap.snap(_random_rational_symmetric(rng, problem.dim))
    assert g is not None and _meets_every_row(snap.rows, g)
    assert snap.snap(g) == g
    if len(factors) == 1:
        # basis 1, x, w on the unit circle: 1 + x^2 is the diagonal (1, 1, 0)
        diag = [[Fr(int(i == j and i < 2)) for j in range(3)] for i in range(3)]
        assert _meets_every_row(snap.rows, diag)
        assert snap.snap(diag) == diag
