"""Seeded property checks of the certificate and witness paths on random
rational configurations.

- stars of lines (a hub crossed by parallel lines) and paths (two parallel
  lines and a transversal) with a target of two squared affine forms plus a
  positive constant decide Yes, certify exactly and pass the checker;
- triangles and 2x2 grids of lines get a cycle witness that passes;
- a rational secant of the unit circle through two rational points of the
  circle certifies exactly: the Gram summands on the circle are aligned at
  two prescribed points.
"""
import random
from fractions import Fraction as Fr

import pytest

from soscurves.bipoly import BiPoly
from soscurves.certify import full_certify
from soscurves.configuration import Cycle, extract_C_prime, is_forest
from soscurves.curve import analyze_curve, to_configuration
from soscurves.decide import decide_psd_eq_sos
from soscurves.tribool import TriBool
from soscurves.verify import verify_certificate, verify_witness
from soscurves.witness import cycle_witness

DRAWS = 6


def _q(rng: random.Random, nonzero: bool = False) -> Fr:
    while True:
        c = Fr(rng.randint(-5, 5), rng.randint(1, 3))
        if c or not nonzero:
            return c


def _line(a, b, c) -> BiPoly:
    return BiPoly({(1, 0): a, (0, 1): b, (0, 0): c})


def _direction(rng: random.Random) -> tuple[Fr, Fr]:
    while True:
        a, b = _q(rng), _q(rng)
        if a or b:
            return a, b


def _crossing(rng: random.Random, hub: tuple[Fr, Fr]) -> tuple[Fr, Fr]:
    while True:
        a, b = _direction(rng)
        if a * hub[1] != b * hub[0]:
            return a, b


def _offsets(rng: random.Random, n: int) -> list[Fr]:
    out: list[Fr] = []
    while len(out) < n:
        c = _q(rng)
        if c not in out:
            out.append(c)
    return out


def _target(rng: random.Random) -> BiPoly:
    l1 = _line(_q(rng), _q(rng), _q(rng))
    l2 = _line(_q(rng), _q(rng), _q(rng))
    return l1 * l1 + l2 * l2 + BiPoly.const(Fr(rng.randint(1, 9), rng.randint(1, 4)))


def _certifies_exactly(factors: list[BiPoly], F: BiPoly) -> None:
    analysis = analyze_curve(factors)
    verdict = decide_psd_eq_sos(to_configuration(analysis))
    assert verdict.answer is TriBool.YES, verdict.failed_conditions
    cert = full_certify(analysis, F)
    assert cert.exact
    report = verify_certificate(analysis, F, cert)
    assert report.ok, report.failures()


def _star(rng: random.Random, spokes: int) -> list[BiPoly]:
    hub = _direction(rng)
    a, b = _crossing(rng, hub)
    return [_line(*hub, _q(rng))] + [_line(a, b, c) for c in _offsets(rng, spokes)]


@pytest.mark.parametrize("seed", range(DRAWS))
@pytest.mark.parametrize("spokes", [1, 2, 3, 4])
def test_line_star_certifies_exactly(spokes, seed):
    rng = random.Random(1000 * spokes + seed)
    _certifies_exactly(_star(rng, spokes), _target(rng))


@pytest.mark.parametrize("seed", range(DRAWS))
def test_line_path_certifies_exactly(seed):
    rng = random.Random(5000 + seed)
    hub, *parallel = _star(rng, 2)
    _certifies_exactly(parallel + [hub], _target(rng))


def _witness_verifies(factors: list[BiPoly]) -> None:
    analysis = analyze_curve(factors)
    config = to_configuration(analysis)
    verdict = decide_psd_eq_sos(config)
    assert verdict.answer is TriBool.NO
    cycle = is_forest(config, extract_C_prime(config).members)
    assert isinstance(cycle, Cycle)
    assert verify_witness(analysis, cycle_witness(analysis, cycle)).ok


@pytest.mark.parametrize("seed", range(DRAWS))
def test_line_triangle_witness_verifies(seed):
    rng = random.Random(6000 + seed)
    while True:
        dirs = [_direction(rng) for _ in range(3)]
        lines = [_line(a, b, _q(rng)) for a, b in dirs]
        if any(
            p[0] * q[1] == p[1] * q[0] for i, p in enumerate(dirs) for q in dirs[i + 1:]
        ):
            continue
        # not concurrent: the 3x3 coefficient determinant is nonzero
        (a1, b1), (a2, b2), (a3, b3) = dirs
        c1, c2, c3 = (ln.terms.get((0, 0), Fr(0)) for ln in lines)
        det = a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2) + c1 * (a2 * b3 - a3 * b2)
        if det:
            break
    _witness_verifies(lines)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_line_grid_witness_verifies(seed):
    rng = random.Random(7000 + seed)
    first = _direction(rng)
    second = _crossing(rng, first)
    _witness_verifies(
        [_line(*first, c) for c in _offsets(rng, 2)]
        + [_line(*second, c) for c in _offsets(rng, 2)]
    )


def _circle_point(t: Fr) -> tuple[Fr, Fr]:
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


@pytest.mark.parametrize("seed", range(DRAWS))
def test_circle_secant_certifies_exactly(seed):
    rng = random.Random(8000 + seed)
    t1, t2 = _offsets(rng, 2)
    (x1, y1), (x2, y2) = _circle_point(t1), _circle_point(t2)
    secant = _line(y2 - y1, x1 - x2, -(y2 - y1) * x1 + (x2 - x1) * y1)
    circle = BiPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
    _certifies_exactly([circle, secant], _target(rng))
