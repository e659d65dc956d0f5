"""Verdict engine: does psd equal sos on the coordinate ring of the curve?

The decision is purely combinatorial on a CurveConfiguration.  Six conditions
are evaluated three-valued, then aggregated: any definite failure makes the
answer No (a single broken necessary condition suffices), otherwise any
Unknown flag that was consulted makes the answer Unknown, otherwise Yes.

Conditions:

* NR-Points: no non-real component carries real points.
* NR-Touch: no intersection point involves a non-real component.
* MT1: every real singular point (own singularities and real intersection
  points alike) is an ordinary multiple point with independent tangents.
* MT2: every intersection point is real.
* MT3: every component of C' is a rational curve whose real points form an
  open subset of the affine line.  C' collects the components on which only
  constants are bounded.
* MT4: the incidence graph of C' is a forest; only points joining two or
  more C' components count.

The engine never recomputes geometry: it trusts the flags on the
configuration, so an abstract configuration (say, a star of three concurrent
lines in space, flagged as an ordinary multiple point) is decided on its own
terms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .configuration import (
    CurveConfiguration,
    Cycle,
    extract_C_prime,
    is_forest,
)
from .tribool import TriBool, all_of, any_of, neg

CONDITION_ORDER = ("NR-Points", "NR-Touch", "MT1", "MT2", "MT3", "MT4")

_CLAUSE_TEXT = {
    "NR-Points": "a non-real component carries real points",
    "NR-Touch": "an intersection point involves a non-real component",
    "MT1": "a real singular point is not an ordinary multiple point "
    "with independent tangents",
    "MT2": "not every intersection point is real",
    "MT3": "a component of C' is not a rational curve whose real points "
    "form an open subset of the affine line",
    "MT4": "the graph on C' is not a forest",
}


class PreconditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    answer: TriBool
    failed_conditions: tuple[str, ...]
    witness_hint: str | None
    notes: tuple[str, ...]


def _nr_points(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    worst = TriBool.NO
    hint = None
    for comp in config.components:
        violated = all_of([neg(comp.is_real), comp.has_real_points])
        if violated is TriBool.YES:
            return TriBool.NO, f"{comp.id} ({comp.label})"
        if violated is TriBool.UNKNOWN:
            worst = TriBool.UNKNOWN
    return (TriBool.UNKNOWN if worst is TriBool.UNKNOWN else TriBool.YES), hint


def _nr_touch(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    saw_unknown = False
    for pt in config.points:
        flag = any_of(neg(config.component(cid).is_real) for cid in pt.components)
        if flag is TriBool.YES:
            return TriBool.NO, pt.id
        if flag is TriBool.UNKNOWN:
            saw_unknown = True
    return (TriBool.UNKNOWN if saw_unknown else TriBool.YES), None


def _mt1(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    saw_unknown = False
    for comp in config.components:
        for sing in comp.own_singularities:
            bad = sing.ompit
            if bad is TriBool.NO:
                return TriBool.NO, f"{sing.point} on {comp.id}"
            if bad is TriBool.UNKNOWN:
                saw_unknown = True
    for pt in config.points:
        # a point only fails MT1 when it is real and not OMPIT
        bad = all_of([pt.realness, neg(pt.ompit)])
        if bad is TriBool.YES:
            return TriBool.NO, pt.id
        if bad is TriBool.UNKNOWN:
            saw_unknown = True
    return (TriBool.UNKNOWN if saw_unknown else TriBool.YES), None


def _mt2(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    saw_unknown = False
    for pt in config.points:
        if pt.realness is TriBool.NO:
            return TriBool.NO, pt.id
        if pt.realness is TriBool.UNKNOWN:
            saw_unknown = True
    return (TriBool.UNKNOWN if saw_unknown else TriBool.YES), None


def _mt3(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    saw_unknown = False
    for comp in config.components:
        # passes when the component is outside C' or is an open line piece
        ok = any_of([neg(comp.bounded_ring_trivial), comp.rational_open_A1])
        if ok is TriBool.NO:
            return TriBool.NO, f"{comp.id} ({comp.label})"
        if ok is TriBool.UNKNOWN:
            saw_unknown = True
    return (TriBool.UNKNOWN if saw_unknown else TriBool.YES), None


def _mt4(config: CurveConfiguration) -> tuple[TriBool, str | None]:
    split = extract_C_prime(config)
    definite = is_forest(config, split.members)
    if isinstance(definite, Cycle):
        return TriBool.NO, str(definite)
    if not split.unknown:
        return TriBool.YES, None
    widened = is_forest(config, split.members + split.unknown)
    if isinstance(widened, Cycle):
        return TriBool.UNKNOWN, str(widened)
    return TriBool.YES, None


def decide_psd_eq_sos(config: CurveConfiguration) -> Verdict:
    split = extract_C_prime(config)
    checks = {
        "NR-Points": _nr_points(config),
        "NR-Touch": _nr_touch(config),
        "MT1": _mt1(config),
        "MT2": _mt2(config),
        "MT3": _mt3(config),
        "MT4": _mt4(config),
    }
    failed = tuple(n for n in CONDITION_ORDER if checks[n][0] is TriBool.NO)
    unknown = tuple(n for n in CONDITION_ORDER if checks[n][0] is TriBool.UNKNOWN)

    notes = [
        "C' = {" + ", ".join(split.members) + "}"
        + (f" (undetermined: {', '.join(split.unknown)})" if split.unknown else "")
    ]
    for name in CONDITION_ORDER:
        value, hint = checks[name]
        if value is TriBool.YES:
            notes.append(f"{name}: holds")
        elif value is TriBool.NO:
            notes.append(f"{name}: fails, {_CLAUSE_TEXT[name]} ({hint})")
        else:
            notes.append(f"{name}: undetermined")

    if failed:
        answer = TriBool.NO
        listed = failed
    elif unknown:
        answer = TriBool.UNKNOWN
        listed = unknown
    else:
        answer = TriBool.YES
        listed = ()

    hint = None
    for name in CONDITION_ORDER:
        value, h = checks[name]
        if value is (TriBool.NO if failed else TriBool.UNKNOWN) and h is not None:
            hint = h
            break
    if answer is TriBool.YES:
        hint = None
    return Verdict(answer, listed, hint, tuple(notes))


def explain(verdict: Verdict) -> str:
    answer = {TriBool.YES: "Yes", TriBool.NO: "No", TriBool.UNKNOWN: "Unknown"}[
        verdict.answer
    ]
    lines = [f"psd = sos: {answer}"]
    if verdict.answer is TriBool.NO:
        for name in verdict.failed_conditions:
            lines.append(f"  {name} fails: {_CLAUSE_TEXT[name]}")
    elif verdict.answer is TriBool.UNKNOWN:
        lines.append(
            "  undetermined flags: " + ", ".join(verdict.failed_conditions)
        )
    if verdict.witness_hint:
        lines.append(f"  witness: {verdict.witness_hint}")
    lines.extend(f"  {note}" for note in verdict.notes)
    return "\n".join(lines)
