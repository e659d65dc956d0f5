from dataclasses import replace
from itertools import combinations

import pytest

from soscurves.configuration import (
    ConfigComponent,
    ConfigPoint,
    CurveConfiguration,
    OwnSingularity,
    induced_subconfiguration,
)
from soscurves.curve import analyze_curve, to_configuration
from soscurves.decide import PreconditionViolated, decide_psd_eq_sos, explain
from soscurves.glue import forest_assemble
from soscurves.polyparse import parse_bipoly as B
from soscurves.tribool import TriBool

Y, N, U = TriBool.YES, TriBool.NO, TriBool.UNKNOWN

VERDICT_TABLE = [
    (["x", "y", "1 - x - y"], N, ("MT4",)),
    (["y - x^2", "y + 1"], N, ("MT2",)),
    (["y - x^2", "y"], N, ("MT1",)),
    (["y - x^2", "y - 1"], N, ("MT4",)),
    (["(x^2 + y^2 - 1)", "y"], Y, ()),
    (["x", "y"], Y, ()),
    (["x^2 + y^2 - 1", "(x-1)^2 + y^2 - 1"], Y, ()),
    (["x^2 + y^2 - 1", "(x-3)^2 + y^2 - 1"], N, ("MT2",)),
    (["x*y - 1", "x - y"], N, ("MT4",)),
    (["y", "y^2 - x^3"], N, ("MT1",)),
    (["x^2 + y^2 + 1", "x^2 + y^2 - 1"], Y, ()),
]


def config_for(polys):
    return to_configuration(analyze_curve([B(s) for s in polys]))


@pytest.mark.parametrize("polys,answer,failed", VERDICT_TABLE)
def test_verdict_table(polys, answer, failed):
    v = decide_psd_eq_sos(config_for(polys))
    assert v.answer is answer
    assert v.failed_conditions == failed
    if answer is N:
        assert v.witness_hint is not None
    if answer is Y:
        assert v.failed_conditions == ()


def test_triangle_witness_is_the_cycle():
    v = decide_psd_eq_sos(config_for(["x", "y", "1 - x - y"]))
    assert v.witness_hint is not None
    assert v.witness_hint.count("C") == 3 and v.witness_hint.count("P") == 3


def test_unknown_cubic_gives_unknown_with_consulted_flags():
    v = decide_psd_eq_sos(config_for(["y - x^3"]))
    assert v.answer is U
    assert "MT3" in v.failed_conditions
    assert "NR-Points" in v.failed_conditions


def test_metadata_settles_the_cubic():
    # flags known from outside the analysis settle the undetermined cubic
    config = config_for(["y - x^3"])
    (cubic,) = config.components
    settled = replace(cubic, is_real=Y, bounded_ring_trivial=Y, rational_open_A1=Y)
    v = decide_psd_eq_sos(CurveConfiguration((settled,), config.points))
    assert v.answer is Y


def test_definite_failure_beats_unknown_flags():
    # the cusp classification is definite even though the cubic's global
    # attributes stay undetermined
    v = decide_psd_eq_sos(config_for(["y", "y^2 - x^3"]))
    assert v.answer is N
    assert v.failed_conditions == ("MT1",)


def abstract_star(ompit=Y):
    comps = tuple(
        ConfigComponent(f"C{i}", f"C{i}", Y, Y, Y, Y) for i in (1, 2, 3)
    )
    pts = (ConfigPoint("P1", Y, ("C1", "C2", "C3"), ompit),)
    return CurveConfiguration(comps, pts)


def test_abstract_star_with_ompit_flag_passes():
    v = decide_psd_eq_sos(abstract_star())
    assert v.answer is Y


def test_abstract_star_without_ompit_fails_mt1():
    v = decide_psd_eq_sos(abstract_star(ompit=N))
    assert v.answer is N
    assert v.failed_conditions == ("MT1",)


def test_virtually_compact_wrapper():
    # no wrapper restricts the virtually compact case: the general engine
    # decides it
    two_circles = config_for(["x^2 + y^2 - 1", "(x-1)^2 + y^2 - 1"])
    assert decide_psd_eq_sos(two_circles).answer is Y
    far = config_for(["x^2 + y^2 - 1", "(x-3)^2 + y^2 - 1"])
    got = decide_psd_eq_sos(far)
    assert got.answer is N and got.failed_conditions == ("MT2",)
    single = config_for(["x^2 + y^2 - 1"])
    assert decide_psd_eq_sos(single).answer is Y


def test_unbounded_wrapper():
    # no wrapper restricts the unbounded case: the general engine decides it
    assert decide_psd_eq_sos(config_for(["x", "y"])).answer is Y
    got = decide_psd_eq_sos(config_for(["x*y - 1", "x - y"]))
    assert got.answer is N and got.failed_conditions == ("MT4",)


def test_wrappers_agree_with_general_engine():
    # on curves of open line pieces, forest_assemble's own checks refuse
    # exactly the curves the engine answers No for
    for polys in (["x", "y"], ["x*y - 1", "x - y"], ["x", "y", "1 - x - y"], ["y - x^2", "y"]):
        analysis = analyze_curve([B(s) for s in polys])
        config = to_configuration(analysis)
        try:
            forest_assemble(analysis, B("x^2 + 1"), config)
            glued = Y
        except PreconditionViolated:
            glued = N
        assert decide_psd_eq_sos(config).answer is glued


def test_nonreal_component_with_real_point_is_refused():
    v = decide_psd_eq_sos(config_for(["x^2 + y^2", "x - 5"]))
    assert v.answer is N
    assert "NR-Points" in v.failed_conditions
    assert "NR-Touch" in v.failed_conditions  # the conjugate pair over x = 5


def test_yes_verdicts_are_monotone_under_subcurves():
    for polys, answer, _ in VERDICT_TABLE:
        if answer is not Y:
            continue
        config = config_for(polys)
        ids = config.component_ids()
        for r in range(1, len(ids) + 1):
            for keep in combinations(ids, r):
                sub = induced_subconfiguration(config, keep)
                assert decide_psd_eq_sos(sub).answer is Y


def test_verdict_invariant_under_point_relabeling():
    config = config_for(["x", "y", "1 - x - y"])
    renamed = CurveConfiguration(
        config.components,
        tuple(
            ConfigPoint(f"Q{9 - i}", p.realness, p.components, p.ompit)
            for i, p in enumerate(config.points)
        ),
    )
    assert decide_psd_eq_sos(renamed).answer is N
    assert decide_psd_eq_sos(renamed).failed_conditions == ("MT4",)


def test_explain_mentions_the_clauses():
    triangle = explain(decide_psd_eq_sos(config_for(["x", "y", "1 - x - y"])))
    assert "forest" in triangle
    circle_line = explain(decide_psd_eq_sos(config_for(["x^2 + y^2 - 1", "y"])))
    assert "C' = {C2}" in circle_line
    cusp = explain(decide_psd_eq_sos(config_for(["y", "y^2 - x^3"])))
    assert "ordinary multiple point" in cusp


def test_own_singularity_with_unknown_ompit_is_consulted():
    c = ConfigComponent(
        "C1", "C1", Y, Y, N, N, own_singularities=(OwnSingularity("P9", U),)
    )
    v = decide_psd_eq_sos(CurveConfiguration((c,), ()))
    assert v.answer is U
    assert v.failed_conditions == ("MT1",)
