import random

import pytest

from soscurves.configuration import (
    ConfigComponent,
    ConfigPoint,
    ConfigurationError,
    CurveConfiguration,
    Cycle,
    Forest,
    connected_pieces,
    extract_C_prime,
    induced_subconfiguration,
    is_forest,
)
from soscurves.tribool import TriBool

Y, N, U = TriBool.YES, TriBool.NO, TriBool.UNKNOWN


def comp(cid, bounded=Y, **kw):
    return ConfigComponent(
        id=cid,
        label=kw.get("label", cid),
        is_real=kw.get("is_real", Y),
        has_real_points=kw.get("has_real_points", Y),
        bounded_ring_trivial=bounded,
        rational_open_A1=kw.get("rational_open_A1", Y),
        own_singularities=kw.get("own_singularities", ()),
    )


def point(pid, comps, realness=Y, ompit=Y):
    return ConfigPoint(pid, realness, tuple(comps), ompit)


def triangle():
    return CurveConfiguration(
        (comp("C1"), comp("C2"), comp("C3")),
        (
            point("P1", ["C1", "C2"]),
            point("P2", ["C1", "C3"]),
            point("P3", ["C2", "C3"]),
        ),
    )


def test_validation_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        CurveConfiguration((comp("C1"),), (point("P1", ["C1", "C1"]),))
    with pytest.raises(ConfigurationError):
        CurveConfiguration((comp("C1"),), (point("P1", ["C1", "C9"]),))
    with pytest.raises(ConfigurationError):
        CurveConfiguration((comp("C1"), comp("C1")), ())


def test_triangle_is_a_six_cycle():
    got = is_forest(triangle(), ["C1", "C2", "C3"])
    assert isinstance(got, Cycle)
    assert len(got.nodes) == 6
    assert got.nodes[0] == "C1"  # canonical ordering starts at the least node


def test_two_components_two_points_is_a_four_cycle():
    config = CurveConfiguration(
        (comp("C1"), comp("C2")),
        (point("P1", ["C1", "C2"]), point("P2", ["C1", "C2"])),
    )
    got = is_forest(config, ["C1", "C2"])
    assert isinstance(got, Cycle)
    assert len(got.nodes) == 4


def test_concurrent_star_is_a_forest():
    config = CurveConfiguration(
        (comp("C1"), comp("C2"), comp("C3")),
        (point("P1", ["C1", "C2", "C3"]),),
    )
    got = is_forest(config, ["C1", "C2", "C3"])
    assert isinstance(got, Forest)
    # the hub point is reached from C1, so both others join there from it
    assert [(j.component, j.point, j.donor) for j in got.joins] == [
        ("C1", None, None), ("C2", "P1", "C1"), ("C3", "P1", "C1")
    ]


def test_forest_is_invariant_under_relabeling():
    relabeled = CurveConfiguration(
        (comp("Q3"), comp("Q1"), comp("Q2")),
        (
            point("P1", ["Q3", "Q1"]),
            point("P2", ["Q3", "Q2"]),
            point("P3", ["Q1", "Q2"]),
        ),
    )
    assert isinstance(is_forest(relabeled, ["Q1", "Q2", "Q3"]), Cycle)


def _joins_are_valid(config, ids, forest):
    """Every chosen component appears once; a root has no point; any other
    join's point holds the component and its donor, placed before it, and
    is the only point where the component meets the components before it."""
    order = [j.component for j in forest.joins]
    if sorted(order) != sorted(ids):
        return False
    placed = []
    for j in forest.joins:
        shared = {
            pt.id
            for pt in config.points
            if j.component in pt.components and any(p in pt.components for p in placed)
        }
        if j.point is None:
            if j.donor is not None or shared:
                return False
        else:
            pt = next(pt for pt in config.points if pt.id == j.point)
            if j.component not in pt.components or j.donor not in pt.components:
                return False
            if j.donor not in placed or shared != {j.point}:
                return False
        placed.append(j.component)
    return True


def test_chain_attachment_order():
    config = CurveConfiguration(
        (comp("C1"), comp("C2"), comp("C3")),
        (point("P1", ["C1", "C2"]), point("P2", ["C2", "C3"])),
    )
    got = is_forest(config, ["C1", "C2", "C3"])
    assert isinstance(got, Forest)
    assert _joins_are_valid(config, ["C1", "C2", "C3"], got)


def test_triangle_attachment_returns_the_cycle():
    got = is_forest(triangle(), ["C1", "C2", "C3"])
    assert isinstance(got, Cycle)


def test_attachment_matches_forest_on_random_structures():
    rng = random.Random(20260816)
    forests = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        comps = tuple(comp(f"C{i+1}") for i in range(n))
        ids = [c.id for c in comps]
        pts = []
        for j in range(rng.randint(0, 6)):
            if n < 2:
                break
            k = rng.randint(2, n)
            pts.append(point(f"P{j+1}", rng.sample(ids, k)))
        config = CurveConfiguration(comps, tuple(pts))
        got = is_forest(config, ids)
        if isinstance(got, Forest):
            forests += 1
            assert _joins_are_valid(config, ids, got)
    assert 0 < forests < 300


def test_extract_C_prime_splits_by_bounded_flag():
    config = CurveConfiguration(
        (comp("C1", bounded=N), comp("C2", bounded=Y), comp("C3", bounded=U)),
        (),
    )
    split = extract_C_prime(config)
    assert split.members == ("C2",)
    assert split.unknown == ("C3",)
    ids = set(split.members) | set(split.unknown) | {"C1"}
    assert ids == set(config.component_ids())


def test_connected_pieces():
    config = CurveConfiguration(
        (comp("C1"), comp("C2"), comp("C3"), comp("C4")),
        (point("P1", ["C2", "C3"]), point("P2", ["C1", "C2", "C4"])),
    )
    assert connected_pieces(config, ["C1", "C2", "C3", "C4"]) == (("C1", "C2", "C3", "C4"),)
    # without C2, P1 joins nothing while P2 still joins C1 and C4
    assert connected_pieces(config, ["C1", "C3", "C4"]) == (("C1", "C4"), ("C3",))
    assert connected_pieces(config, ["C3", "C4"]) == (("C3",), ("C4",))


def test_induced_subconfiguration_drops_orphan_points():
    sub = induced_subconfiguration(triangle(), ["C1", "C2"])
    assert [c.id for c in sub.components] == ["C1", "C2"]
    assert [p.id for p in sub.points] == ["P1"]
    assert isinstance(is_forest(sub, ["C1", "C2"]), Forest)


def test_points_with_unknown_realness_still_count_as_edges():
    config = CurveConfiguration(
        (comp("C1"), comp("C2")),
        (point("P1", ["C1", "C2"], realness=U), point("P2", ["C1", "C2"], realness=U)),
    )
    assert isinstance(is_forest(config, ["C1", "C2"]), Cycle)

