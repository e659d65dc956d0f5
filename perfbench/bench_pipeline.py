"""One benchmark operation: parse -> analyze -> decide -> certify/witness -> verify.

`run_operation` runs one instance end to end under an in-process time budget
and records exactly one outcome:

* ``exact``    an exact certificate or witness that the checker accepted;
* ``numeric``  a certificate with ``exact=False`` that the checker accepted
               within its tolerance;
* ``refused``  a typed refusal (see REFUSALS), or a No verdict that no
               witness construction covers;
* ``failed``   a verdict other than the expected one (Unknown included), a
               rejected artifact, an expired budget, ``ValueNormMismatch``
               on a Yes instance, or any other exception.

A definite Yes or No that differs from the expected verdict, or an artifact
claimed exact that the checker rejects, also marks the operation ``wrong``:
the program asserted something false.  An Unknown verdict asserts nothing,
and a numeric certificate outside the checker's tolerance claims no
exactness, so both are only ``failed``.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer entry points are called through their modules, so the wrappers that
# bench_trace installs on those modules see these calls too.
from soscurves import certify, curve, decide, verify, witness
from soscurves.certify import Inconclusive
from soscurves.configuration import Cycle, extract_C_prime, is_forest
from soscurves.polyparse import parse_bipoly
from soscurves.ringfn import IrrationalAttachment
from soscurves.witness import UnsupportedObstruction

from bench_instances import Instance

REFUSALS = (IrrationalAttachment, Inconclusive, UnsupportedObstruction)
OUTCOMES = ("exact", "numeric", "refused", "failed")


class BudgetExpired(BaseException):
    """Raised by the timer signal; a BaseException so no library handler swallows it."""


@contextmanager
def time_budget(seconds: float):
    """Interrupt the enclosed block with BudgetExpired after `seconds` of wall time.

    The library keeps no module-level state, so unwinding it from any point
    leaves nothing half-updated behind.
    """

    def expire(signum, frame):
        raise BudgetExpired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class OpResult:
    outcome: str
    detail: str
    seconds: float
    wrong: bool = False
    timed_out: bool = False


def _witness(analysis, config, failed: tuple[str, ...]):
    """The first witness construction that applies to the failed conditions, or None."""
    refusal = None
    if "MT4" in failed:
        cycle = is_forest(config, extract_C_prime(config).members)
        if isinstance(cycle, Cycle):
            try:
                return witness.cycle_witness(analysis, cycle)
            except REFUSALS as exc:
                refusal = exc
    if "MT2" in failed:
        try:
            return witness.nonreal_intersection_witness(analysis)
        except REFUSALS as exc:
            refusal = exc
    if refusal is not None:
        raise refusal
    return None


def _pipeline(inst: Instance) -> tuple[str, str, bool]:
    factors = [parse_bipoly(s) for s in inst.factors]
    analysis = curve.analyze_curve(factors)
    config = curve.to_configuration(analysis)
    verdict = decide.decide_psd_eq_sos(config)
    answer = verdict.answer.name
    if answer == "UNKNOWN":
        return "failed", f"verdict UNKNOWN, expected {inst.verdict}", False
    if answer != inst.verdict:
        return "failed", f"wrong verdict {answer}, expected {inst.verdict}", True
    if answer == "YES":
        if inst.target is None:
            raise ValueError(f"{inst.name}: a Yes instance needs a target")
        target = parse_bipoly(inst.target)
        cert = certify.full_certify(analysis, target)
        report = verify.verify_certificate(analysis, target, cert)
        if not report.ok:
            bad = ", ".join(c.name for c in report.failures())
            return "failed", f"checker rejected the certificate: {bad}", cert.exact
        return ("exact" if cert.exact else "numeric"), "certificate verified", False
    obstruction = _witness(analysis, config, verdict.failed_conditions)
    if obstruction is None:
        failed = "+".join(verdict.failed_conditions)
        return "refused", f"no witness construction applies ({failed})", False
    report = verify.verify_witness(analysis, obstruction)
    if not report.ok:
        bad = ", ".join(c.name for c in report.failures())
        return "failed", f"checker rejected the witness: {bad}", True
    return "exact", f"{type(obstruction).__name__} verified", False


def run_operation(inst: Instance, budget_s: float) -> OpResult:
    t0 = time.perf_counter()
    try:
        with time_budget(budget_s):
            outcome, detail, wrong = _pipeline(inst)
    except BudgetExpired:
        elapsed = time.perf_counter() - t0
        return OpResult("failed", f"timeout after {budget_s} s", elapsed, timed_out=True)
    except REFUSALS as exc:
        outcome, detail, wrong = "refused", f"{type(exc).__name__}: {exc}", False
    except Exception as exc:  # boundary: every other exception is a failed operation
        outcome, detail, wrong = "failed", f"{type(exc).__name__}: {exc}", False
    return OpResult(outcome, detail[:160], time.perf_counter() - t0, wrong)
