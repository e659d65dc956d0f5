"""Benchmark instances: fixed data plus seeded generators, as plain strings.

Every instance is a list of factor polynomials, an optional target and the
verdict it must get.  Generators use only `random.Random(seed)` and string
formatting, never the library, so the library receives nothing but the
generated polynomial strings.  Expected verdicts hold by construction: star
and cycle shapes for `line-forest`, and for the affine images the verdict of
the base instance, which rational affine changes of coordinates preserve.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "instances.json"
LINE_FOREST_COUNT = 288  # stars and cycles per line-forest seed
COMPACT_GRAM_REPS = 20  # seeded draws per compact-gram base
SHEAR_ELIM_IMAGES = 12  # seeded affine images per shear-elim base


@dataclass(frozen=True)
class Instance:
    name: str
    factors: tuple[str, ...]
    target: str | None
    verdict: str  # "YES" or "NO"
    outcome: str | None = None  # expected outcome, recorded for fixed instances only


def load_data() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def _fixed(entries: list[dict]) -> list[Instance]:
    return [
        Instance(e["name"], tuple(e["factors"]), e.get("target"), e["verdict"], e.get("outcome"))
        for e in entries
    ]


def rat(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"({q.numerator}/{q.denominator})" if q.denominator != 1 else f"({q.numerator})"


def _nonzero(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3)) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.choice(dens))
        if q:
            return q


def affine_image(poly: str, m: tuple[Fraction, ...]) -> str:
    """Substitute x -> a*x+b*y+e, y -> c*x+d*y+f into a polynomial string."""
    a, b, c, d, e, f = (rat(v) for v in m)
    sub = {"x": f"({a}*x+{b}*y+{e})", "y": f"({c}*x+{d}*y+{f})"}
    return re.sub(r"[xy]", lambda t: sub[t.group()], poly)


def random_affine(rng: random.Random) -> tuple[Fraction, ...]:
    while True:
        a, b, c, d = (Fraction(rng.choice((-2, -1, 1, 2, 3))) for _ in range(4))
        if a * d - b * c:
            e, f = (Fraction(rng.choice((-1, 0, 1)), 2) for _ in range(2))
            return a, b, c, d, e, f


def _random_squares(rng: random.Random, degree: int) -> list[list[tuple[int, int, int]]]:
    """Two random polynomials of degree <= degree/2, as (coefficient, i, j) terms."""
    half = degree // 2
    monos = [(i, j) for i in range(half + 1) for j in range(half + 1 - i)]
    parts = []
    for _ in range(2):
        terms = [(rng.choice((-2, -1, 1, 2)), i, j) for i, j in monos if rng.random() < 0.6]
        top = [(i, j) for i, j in monos if i + j == half]
        i, j = rng.choice(top)
        terms.append((rng.choice((-1, 1)), i, j))
        parts.append(terms)
    return parts


def _linear_parts_independent(parts: list[list[tuple[int, int, int]]]) -> bool:
    """Whether the x and y coefficients of two affine polynomials are linearly independent."""
    (ax, ay), (bx, by) = (
        (sum(c for c, i, j in t if (i, j) == (1, 0)), sum(c for c, i, j in t if (i, j) == (0, 1)))
        for t in parts
    )
    return ax * by != ay * bx


def random_sos(rng: random.Random, degree: int, rank_three: bool = False) -> str:
    """Sum of two squares of random polynomials of degree <= degree/2, plus a positive constant.

    Terms may cancel, so a square can collapse to a constant and the two can
    be proportional.  With `rank_three` (degree 2 only), draws are repeated
    until the target's quadratic form in (x, y, 1) has full rank 3.
    """
    while True:
        parts = _random_squares(rng, degree)
        const = rng.randint(1, 3)
        if not rank_three or _linear_parts_independent(parts):
            break
    squares = ("(" + "+".join(f"{c}*x^{i}*y^{j}" for c, i, j in t) + ")^2" for t in parts)
    return "+".join(squares) + f"+{const}"


# -- line-forest ---------------------------------------------------------------

HUBS = ("line", "parabola", "hyperbola")


def _line_forest_one(rng: random.Random, i: int) -> Instance:
    """Star of vertical lines on one hub; every third star gets a second hub, closing a cycle."""
    hub = HUBS[i % 3]
    cyclic = (i // 3) % 3 == 2
    k = 2 + (i // 9) % 3
    xs: list[Fraction] = []
    while len(xs) < k:
        a = _nonzero(rng, -6, 6)
        if a not in xs:
            xs.append(a)
    if hub == "hyperbola":
        c = _nonzero(rng, -4, 4)
        hubs = [f"x*y-{rat(c)}"]
    else:
        coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)]
        if hub == "parabola":
            coeffs.append(_nonzero(rng, -2, 2, (1, 2)))
        p = "+".join(f"{rat(q)}*x^{e}" for e, q in enumerate(coeffs))
        hubs = [f"y-({p})"]
    if cyclic:
        while True:
            alpha, beta = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
            x0 = -beta / alpha
            if x0 not in xs and (hub != "hyperbola" or c + beta != 0):
                break
        if hub == "hyperbola":
            hubs.append(f"x*y-({rat(c)}+{rat(alpha)}*x+{rat(beta)})")
        else:
            hubs.append(f"y-({p}+{rat(alpha)}*x+{rat(beta)})")
    factors = tuple(hubs + [f"x-{rat(a)}" for a in xs])
    # A hyperbola star whose target is rank-deficient can get a numeric
    # certificate that fails the agreement check: a known defect, reproduced
    # by the line-forest entries under known_defects in data/instances.json.
    target = None if cyclic else random_sos(rng, 2, rank_three=hub == "hyperbola")
    return Instance(
        f"line-forest/{hub}-{'cycle' if cyclic else 'star'}-{k}-{i}",
        factors,
        target,
        "NO" if cyclic else "YES",
    )


def line_forest(seed: int) -> list[Instance]:
    rng = random.Random(f"line-forest/{seed}")
    return [_line_forest_one(rng, i) for i in range(LINE_FOREST_COUNT)]


# -- compact-gram --------------------------------------------------------------


def compact_gram_draw(base: dict, k: int) -> Instance:
    """Draw k of a base's pool: a rational affine image of the base with a random psd target."""
    rng = random.Random(f"compact-gram/{base['name']}/{k}")
    m = random_affine(rng)
    return Instance(
        f"compact-gram/{base['name']}-deg{base['degree']}-draw{k}",
        tuple(affine_image(f, m) for f in base["factors"]),
        random_sos(rng, base["degree"]),
        base["verdict"],
    )


def compact_gram(seed: int) -> list[Instance]:
    """The fixed instances, then COMPACT_GRAM_REPS draws from each base's screened pool.

    A base's pool is its draws 0 .. pool-1, less those listed as excluded:
    the ones on which an operation failed or ran near the budget when the
    pool was screened (perfbench/screen_pool.py).
    """
    data = load_data()["compact-gram"]
    rng = random.Random(f"compact-gram/{seed}")
    out = _fixed(data["fixed"])
    for base in data["bases"]:
        pool = sorted(set(range(base["pool"])) - set(base["excluded"]))
        out += [compact_gram_draw(base, k) for k in rng.sample(pool, COMPACT_GRAM_REPS)]
    return out


# -- shear-elim ----------------------------------------------------------------


def shear_elim(seed: int) -> list[Instance]:
    data = load_data()["shear-elim"]
    rng = random.Random(f"shear-elim/{seed}")
    out = _fixed(data["fixed"])
    for base in data["bases"]:
        for r in range(SHEAR_ELIM_IMAGES):
            m = random_affine(rng)
            target = base.get("target")
            out.append(
                Instance(
                    f"shear-elim/{base['name']}-{r}",
                    tuple(affine_image(f, m) for f in base["factors"]),
                    affine_image(target, m) if target else None,
                    base["verdict"],
                )
            )
    return out


def known_defects(workload: str) -> list[Instance]:
    """The workload's reproducers of known defects, which fail by design.

    They are not among the measured instances; a run checks them once,
    after its measurement, and reports whether each still reproduces.
    """
    return _fixed(load_data().get(workload, {}).get("known_defects", []))


GENERATORS = {
    "line-forest": line_forest,
    "compact-gram": compact_gram,
    "shear-elim": shear_elim,
}


def generate(workload: str, seed: int) -> list[Instance]:
    """The workload's instances in a seeded order.

    A run goes through the list in passes and may stop part-way through the
    last one; in a shuffled list that part is a random subset, not always
    the same leading instances.
    """
    instances = GENERATORS[workload](seed)
    random.Random(f"order/{workload}/{seed}").shuffle(instances)
    return instances
