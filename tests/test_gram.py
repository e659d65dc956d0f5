import sys
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

from soscurves import gram
from soscurves.certify import full_certify
from soscurves.curve import analyze_curve
from soscurves.points import AlgebraicPoint
from soscurves.polyparse import parse_bipoly as B
from soscurves.ringfn import CircleFn, LineFn, restrict_to_chart, value_at_algebraic
from soscurves.unipoly import BoxedValue, UniPoly, isolate_real_roots

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from bench_instances import compact_gram_draw, load_data  # noqa: E402


def _problem(factors, target, degree):
    analysis = analyze_curve([B(f) for f in factors])
    cids = [c.label for c in analysis.components]
    F = B(target)
    targets = {cid: restrict_to_chart(F, analysis.component(cid).chart) for cid in cids}
    return gram.build_gram_problem(analysis, targets, cids, degree)


def _charts(factors):
    return {c.label: c.chart for c in analyze_curve([B(f) for f in factors]).components}


def _basis(block):
    """The block's basis functions: t^k on a line; x^k, then x^k w on a circle."""
    mono = [UniPoly([Fr(0)] * k + [Fr(1)]) for k in range(block.degree + 1)]
    if block.kind == "line":
        return [LineFn(m) for m in mono]
    zero = UniPoly.zero()
    return [CircleFn(m, zero, block.q) for m in mono] + [CircleFn(zero, m, block.q) for m in mono[: block.degree]]


PROBLEMS = [
    (["x^2 + y^2 - 1"], "x^2 + 1"),
    (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1"),
    # four rational shared points whose kernel rows make the snap's rows dependent
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
    ghat, other = (_random_rational_symmetric(rng, problem.dim) for _ in range(2))
    g = snap.snap(ghat)
    assert g is not None and _meets_every_row(snap.rows, g)
    assert snap.snap(g) == g
    # nearest point: ghat - g is orthogonal to the slice in the symmetric
    # metric, so to the difference of any two points on it
    h = snap.snap(other)
    assert h is not None and _meets_every_row(snap.rows, h)
    n = problem.dim
    assert sum(
        (ghat[i][j] - g[i][j]) * (h[i][j] - g[i][j]) for i in range(n) for j in range(n)
    ) == 0
    if len(factors) == 4:
        # the dependent rows leave pivots out of the elimination
        assert len(snap.pivots) < len(snap.rows)
    if len(factors) == 1:
        # basis 1, x, w on the unit circle: 1 + x^2 is the diagonal (1, 1, 0)
        diag = [[Fr(int(i == j and i < 2)) for j in range(3)] for i in range(3)]
        assert _meets_every_row(snap.rows, diag)
        assert snap.snap(diag) == diag


def test_snap_of_inconsistent_rows_is_none():
    rows = [gram.Row({(0, 0): Fr(1)}, Fr(1)), gram.Row({(0, 0): Fr(1)}, Fr(2))]
    assert gram._ExactAffineSnap(rows).snap([[Fr(0)]]) is None


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
        pivots = gram._rational_ldl(g)
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
            assert gram._rational_ldl(bad) is None


def test_rational_ldl_beyond_float_range():
    # entries overflow a float: the factorization stays exact
    big = Fr(10) ** 400
    g = [[big, big, 0], [big, 2 * big, big], [0, big, big]]
    pivots = gram._rational_ldl(g)
    assert pivots is not None and _rebuild(pivots, 3) == g
    g[2][2] -= 1
    assert gram._rational_ldl(g) is None


def _two_circle_draw(k):
    base = next(b for b in load_data()["compact-gram"]["bases"] if b["name"] == "two-circles")
    inst = compact_gram_draw(base, k)
    return list(inst.factors), inst.target


def _null_space(rows, n):
    """A basis of the rational vectors l with row . l = 0 for every row."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        at = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if at is None:
            continue
        top = len(pivots)
        m[top], m[at] = m[at], m[top]
        inv = 1 / m[top][col]
        m[top] = [c * inv for c in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fr(0)] * n
        v[free] = Fr(1)
        for i, col in enumerate(pivots):
            v[col] = -m[i][free]
        basis.append(v)
    return basis


def _summands_agree(problem, charts, vectors):
    """The per-summand reference: every summand takes one value at every
    algebraic kernel point, tested with value_at_algebraic."""
    for fns in gram._vectors_to_summands(problem, vectors):
        for kp in problem.kernel_points:
            if not isinstance(kp.point, AlgebraicPoint):
                continue
            base = kp.components[0]
            for other in kp.components[1:]:
                va = value_at_algebraic(fns[base], charts[base], kp.point)
                vb = value_at_algebraic(fns[other], charts[other], kp.point)
                if not (va - vb).is_zero():
                    return False
    return True


AGREEMENT_PROBLEMS = [
    (["x^2 + y^2 - 1", "x^2 + y^2 - 2*x"], "x^2 + y^2 + 1", 2),
    (*_two_circle_draw(3), 2),
    (*_two_circle_draw(17), 3),
]


@pytest.mark.parametrize(
    "factors, target, degree",
    AGREEMENT_PROBLEMS,
    ids=["circle-pair", "two-circles-draw3", "two-circles-draw17"],
)
def test_exact_kernel_check_matches_per_summand_agreement(factors, target, degree):
    problem = _problem(factors, target, degree)
    n = problem.dim
    algebraic = [kp for kp in problem.kernel_points if isinstance(kp.point, AlgebraicPoint)]
    assert len(algebraic) == 2 and all(kp.relations for kp in algebraic)
    coefficient_rows = [
        [rel[s].coords[k] if s in rel else Fr(0) for s in range(n)]
        for kp in algebraic
        for rel in kp.relations
        for k in range(kp.point.x.modulus.degree)
    ]
    null = _null_space(coefficient_rows, n)
    assert 0 < len(null) < n
    rng = np.random.default_rng(41)

    def rational():
        return Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))

    def agreeing():
        out = [Fr(0)] * n
        for v in null:
            c = rational()
            out = [a + c * b for a, b in zip(out, v)]
        return out

    def candidate(vectors):
        g = [[Fr(0)] * n for _ in range(n)]
        for l in vectors:
            for i in range(n):
                for j in range(n):
                    g[i][j] += l[i] * l[j]
        return g

    charts = _charts(factors)
    for trial in range(12):
        good = [agreeing() for _ in range(1 + trial % 3)]
        bad = good[: trial % 2] + [[rational() for _ in range(n)]]
        for vectors, agree in ((good, True), (bad, False)):
            assert _summands_agree(problem, charts, vectors) is agree
            assert gram._agrees_at_algebraic_points(problem, candidate(vectors)) is agree


def test_failed_agreement_skips_the_exact_elimination(monkeypatch):
    # two circles meeting at (1/2, +-sqrt(3)/2): no rounded candidate agrees
    # exactly at the irrational shared points, and the exact kernel check
    # rejects each before any LDL^T runs
    calls = []
    original = gram._rational_ldl

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gram, "_rational_ldl", counted)
    analysis = analyze_curve([B("x^2 + y^2 - 1"), B("x^2 + y^2 - 2*x")])
    full_certify(analysis, B("x^2 + y^2 + 1"))
    assert not calls


def _apply(phi, g):
    return sum((c * g[i][j] for (i, j), c in phi.items()), Fr(0))


@pytest.mark.parametrize(
    "factors, target, degree",
    AGREEMENT_PROBLEMS + [(*PROBLEMS[2], 1)],
    ids=["circle-pair", "two-circles-draw3", "two-circles-draw17", "four-circles"],
)
def test_pull_back_matches_the_snap(factors, target, degree):
    problem = _problem(factors, target, degree)
    snap, n = problem.snap, problem.dim
    if len(factors) == 4:
        # dependent rows: the solve reads the pivot rows only
        assert (len(snap.rows), len(snap.pivots)) == (68, 58)
    rng = np.random.default_rng(29)

    def rational():
        return Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))

    kp = next(kp for kp in problem.kernel_points if kp.relations)
    rel = kp.relations[0]
    degree_p = kp.point.x.modulus.degree
    # the screen's maps, coordinate k of row 0 of G times the first relation,
    # then maps on seeded upper-triangle entries, diagonal and off-diagonal
    phis = [
        {(0, s): w.coords[k] for s, w in rel.items() if w.coords[k]} for k in range(degree_p)
    ]
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    for _ in range(3):
        picks = rng.choice(len(keys), size=8, replace=False)
        phis.append({keys[p]: rational() for p in picks})
    pulled = [snap.pull_back(phi) for phi in phis]
    assert problem.screen.box is kp.point.u
    assert problem.screen.modulus is kp.point.x.modulus
    assert problem.screen.terms == tuple(
        (c, tuple((i, j, x) for (i, j), x in psi.items())) for c, psi in pulled[:degree_p]
    )
    rejected = 0
    for _ in range(6):
        ghat = _random_rational_symmetric(rng, n)
        g = snap.snap(ghat)
        assert g is not None
        for phi, (c, psi) in zip(phis, pulled):
            assert c + _apply(psi, ghat) == _apply(phi, g)
        # the screen is the first agreement test on the snapped matrix
        first = UniPoly.lincomb([g[0][s] for s in rel], [w.poly for w in rel.values()])
        fails = not BoxedValue(first, kp.point.u, kp.point.x.modulus).is_zero()
        assert problem.screen.rejects(ghat) is fails
        if fails:
            rejected += 1
            assert not gram._agrees_at_algebraic_points(problem, g)
    assert rejected


def test_screen_skips_snaps_and_keeps_the_certificate(monkeypatch):
    # two circles meeting at (1/2, +-sqrt(3)/2): rounded candidates fail the
    # agreement there, and the screen turns most of them away before the snap
    snaps = []
    original = gram._ExactAffineSnap.snap

    def counted(self, ghat):
        snaps.append(ghat)
        return original(self, ghat)

    monkeypatch.setattr(gram._ExactAffineSnap, "snap", counted)

    def certify():
        snaps.clear()
        analysis = analyze_curve([B("x^2 + y^2 - 1"), B("x^2 + y^2 - 2*x")])
        cert = full_certify(analysis, B("x^2 + y^2 + 1"))
        return len(snaps), (cert.exact, cert.residual, cert.provenance, repr(cert.summands))

    screened, result = certify()
    with monkeypatch.context() as m:
        m.setattr(gram._AgreementScreen, "build", staticmethod(lambda snap, kernel_points: None))
        unscreened, reference = certify()
    assert unscreened == 9
    assert screened < unscreened
    assert result == reference


def test_screen_rejects_only_a_nonzero_value_at_the_point():
    # at sqrt(2), a root of the reducible (u^2 - 2)(u - 3), the screened
    # polynomial g00 * (u^2 + m) vanishes for m = -2 although it is nonzero
    box = isolate_real_roots(UniPoly([6, -2, -3, 1]))[1]
    assert box.low < Fr(3, 2) < box.high

    def screen(m):
        terms = ((Fr(0), ((0, 0, Fr(m)),)), (Fr(0), ()), (Fr(0), ((0, 0, Fr(1)),)))
        return gram._AgreementScreen(box, box.poly, terms)

    assert not screen(-2).rejects([[Fr(1)]])
    assert screen(-3).rejects([[Fr(1)]])
    assert not screen(-3).rejects([[Fr(0)]])

    # mixed denominators in psi and in ghat: u^2 - 1 - k, zero at sqrt(2) for k = 1 only
    def mixed(k):
        c0 = ((0, 0, Fr(-2, 3)), (0, 1, Fr(-7 * k, 5)))
        return gram._AgreementScreen(
            box, box.poly, ((Fr(0), c0), (Fr(0), ()), (Fr(0), ((0, 0, Fr(2, 3)),)))
        )

    ghat = [[Fr(3, 2), Fr(5, 7)], [Fr(5, 7), Fr(0)]]
    assert not mixed(1).rejects(ghat)
    assert mixed(2).rejects(ghat)


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


def test_ldl_pivots_match_fraction_elimination():
    rng = np.random.default_rng(2042)
    verdicts = set()
    for g in _ldl_cases(rng):
        before = [row[:] for row in g]
        got = gram._ldl_pivots(g)
        assert g == before
        assert got == ref_ldl_pivots(g)
        verdicts.add(got is None)
    assert verdicts == {True, False}
    # ties keep the first index; a zero diagonal with a nonzero entry is not psd
    assert [p for p, _, _ in gram._ldl_pivots([[Fr(1), Fr(0)], [Fr(0), Fr(1)]])] == [0, 1]
    assert gram._ldl_pivots([[Fr(0), Fr(1, 3)], [Fr(1, 3), Fr(0)]]) is None


# -- lazy rounding against rounding every entry up front -------------------------


def ref_round_to_exact(problem, matrix, ladder):
    """Every entry rounded first, then the full candidate at every rung."""
    n = problem.dim
    upper = [
        [gram.limit_denominators(x, ladder) for x in row[i:]]
        for i, row in enumerate(matrix.tolist())
    ]
    for rung in range(len(ladder)):
        g = [[Fr(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = upper[i][j - i][rung]
        if problem.screen is not None and problem.screen.rejects(g):
            continue
        snapped = problem.snap.snap(g)
        found = None if snapped is None else gram._promote(problem, snapped)
        if found is not None:
            return found
    return None


def _solver_matrices(problem, monkeypatch):
    """(matrix, ladder) of every rounding the solver and the extraction ask for."""
    seen = []
    lazy = gram._round_to_exact

    def recorded(problem, matrix, ladder):
        seen.append((matrix.copy(), ladder))
        return lazy(problem, matrix, ladder)

    with monkeypatch.context() as m:
        m.setattr(gram, "_round_to_exact", recorded)
        try:
            gram.extract_summands(gram.alternating_projections(problem))
        except gram.NoConvergence:
            pass
    return seen


class _EveryOtherRung:
    """A stand-in screen with the real screen's keys that passes every
    second rung, so screened problems build full candidates too."""

    def __init__(self, screen):
        self.keys = screen.keys
        self.calls = 0

    def rejects(self, ghat):
        self.calls += 1
        return self.calls % 2 == 1


def _rounding_run(round_fn, problem, matrix, ladder, monkeypatch):
    """The result of a rounding and every candidate it hands to the snap."""
    candidates = []
    original = gram._ExactAffineSnap.snap

    def recorded(self, ghat):
        candidates.append([row[:] for row in ghat])
        return original(self, ghat)

    with monkeypatch.context() as m:
        m.setattr(gram._ExactAffineSnap, "snap", recorded)
        return round_fn(problem, matrix, ladder), candidates


LAZY_PROBLEMS = AGREEMENT_PROBLEMS + [(*PROBLEMS[0], 2)]


@pytest.mark.parametrize(
    "factors, target, degree",
    LAZY_PROBLEMS,
    ids=["circle-pair", "two-circles-draw3", "two-circles-draw17", "unit-circle"],
)
def test_lazy_rounding_matches_eager_rounding(factors, target, degree, monkeypatch):
    problem = _problem(factors, target, degree)
    screen = problem.screen
    assert (screen is None) is (len(factors) == 1)
    seen = _solver_matrices(problem, monkeypatch)
    assert seen
    rng = np.random.default_rng(53)
    n = problem.dim
    # the solver's iterates, and each one nudged off its rounding
    cases = seen + [(m + 1e-7 * _random_symmetric(rng, n), ladder) for m, ladder in seen]
    makers = [lambda: screen]
    if screen is not None:
        makers.append(lambda: _EveryOtherRung(screen))
    found = candidates = 0
    for matrix, ladder in cases:
        for make in makers:
            runs = []
            for round_fn in (gram._round_to_exact, ref_round_to_exact):
                problem.screen = make()
                runs.append(_rounding_run(round_fn, problem, matrix, ladder, monkeypatch))
            assert runs[0] == runs[1]
            found += runs[0][0] is not None
            candidates += len(runs[0][1])
    assert candidates
    if screen is None:
        assert found


def test_rejected_rungs_round_only_the_screens_entries(monkeypatch):
    factors, target = _two_circle_draw(3)
    problem = _problem(factors, target, 2)
    keys = problem.screen.keys
    n = problem.dim
    assert 0 < len(keys) < n * (n + 1) // 2
    assert set(keys) == {(i, j) for _, psi in problem.screen.terms for i, j, _ in psi}
    matrix, ladder = _solver_matrices(problem, monkeypatch)[0]
    assert ref_round_to_exact(problem, matrix, ladder) is None
    entries = matrix.tolist()
    upper = [
        [gram.limit_denominators(x, ladder) for x in row[i:]] for i, row in enumerate(entries)
    ]
    for rung in range(len(ladder)):
        g = [[upper[min(i, j)][abs(j - i)][rung] for j in range(n)] for i in range(n)]
        assert problem.screen.rejects(g)
    rounded = []
    original = gram.limit_denominators

    def counted(x, ladder):
        rounded.append(x)
        return original(x, ladder)

    monkeypatch.setattr(gram, "limit_denominators", counted)
    assert gram._round_to_exact(problem, matrix, ladder) is None
    assert rounded == [entries[i][j] for i, j in keys]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize(
    "factors, target",
    [PROBLEMS[0], PROBLEMS[1], (["y", "x^2 + y^2 - 1"], "x^2 + 1")],
    ids=["unit-circle", "circle-pair", "line-and-circle"],
)
def test_summands_from_coordinates_match_the_basis(factors, target, degree):
    """Each block read off its coordinates is sum c_k * basis_k."""
    problem = _problem(factors, target, degree)
    assert {b.kind for b in problem.blocks} == ({"line", "circle"} if "y" in factors else {"circle"})
    rng = np.random.default_rng(11 + degree)
    vectors = [
        [Fr(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(problem.dim)]
        for _ in range(3)
    ] + [[Fr(0)] * problem.dim]
    for vec, summand in zip(vectors, gram._vectors_to_summands(problem, vectors)):
        for block in problem.blocks:
            coords = vec[block.offset : block.offset + block.size]
            basis = _basis(block)
            assert len(basis) == block.size
            chain = basis[0].scale(0)
            for c, b in zip(coords, basis):
                chain = chain + b.scale(c)
            assert summand[block.component] == chain


ROW_CASES = [
    ("unit-circle-constant", ["x^2 + y^2 - 1"], "1", (0, 1)),
    ("unit-circle", *PROBLEMS[0], (1, 2, 3)),
    ("circle-pair", *PROBLEMS[1], (1, 2, 3)),
    ("line-and-circle", ["y", "x^2 + y^2 - 1"], "x^2 + 1", (1, 2, 3)),
    ("line-and-parabola", ["y", "x - 2*y^2"], "x^2 + 1", (2, 3)),
]


@pytest.mark.parametrize(
    "factors, target, degree",
    [pytest.param(f, t, d, id=f"{name}-{d}") for name, f, t, degrees in ROW_CASES for d in degrees],
)
def test_coefficient_rows_match_pairwise_basis_products(factors, target, degree):
    """The coefficient-matching rows, read off exponent sums, are the rows
    of the pairwise products of the basis functions: slots, coefficients and
    order."""
    problem = _problem(factors, target, degree)
    rows = []
    for block in problem.blocks:
        basis = _basis(block)
        slots = {}
        for k in range(block.size):
            for l in range(k, block.size):
                i, j = block.offset + k, block.offset + l
                for slot, c in gram._coeff_slots(basis[k] * basis[l]).items():
                    slots.setdefault(slot, {})[(i, j)] = c if i == j else 2 * c
        wanted = gram._coeff_slots(problem.targets[block.component])
        rows += [(list(coeffs.items()), wanted.get(slot, Fr(0))) for slot, coeffs in sorted(slots.items())]
    assert [(list(r.coeffs.items()), r.rhs) for r in problem.rows[: len(rows)]] == rows
    assert all(r.exact for r in problem.rows[: len(rows)])
