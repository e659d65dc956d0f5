"""Dump every benchmark instance's output, or diff two such dumps.

A change that should leave results alone is checked by dumping before and
after and diffing the two files:

    python3 tools/compare_outputs.py dump --root <old checkout> old.jsonl
    python3 tools/compare_outputs.py dump new.jsonl
    python3 tools/compare_outputs.py diff old.jsonl new.jsonl

`dump` runs, from the checkout at --root (default: this one), every
instance `generate(workload, seed)` gives for the chosen seeds (default 1
and 2) of the three perfbench workloads, plus each workload's known-defect
reproducers, through the perfbench operation itself.  One JSON line per
instance records the outcome and detail; the curve analysis (the shear,
and per point its realness, incidences, own singularities, `ompit` flag
and classification kind and detail); when one was built, the
certificate (`exact`, residual, provenance, the `repr` of every summand) or
the witness (`repr`); when the checker ran, its report (`ok`, residual,
the names of the failed checks), so a change to the checker is diffed too;
and the Gram rounding ladder's trail: per exact snap whether it returned a
matrix, and per exact L D L^T (`gram._rational_ldl`) None or the largest
bit length of p*q over its pivots p/q.  A snap that wrongly fails leaves the
certificate numeric with the same summands, and only the trail shows it.
An operation that ran out of its budget gets no trail, because the clock
cut it.  Every hook is wrapped by its name in its module or class, so
`dump --root` reads older checkouts the same way.
`diff` prints every instance whose record differs, then per workload the
count of each outcome transition (for example `compact-gram numeric ->
exact: 23`), then one line with the number of records that differ in each
field (outcome, detail, analysis; the artifact's summands, `exact`,
provenance, residual and witness, each its own field; the report's `ok`
and failed names, the report's residual, ladder), and exits 1 when any
record differs.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in perfbench/run.py

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("line-forest", "compact-gram", "shear-elim")
BUDGET_S = {"line-forest": 8.0, "compact-gram": 4.0, "shear-elim": 40.0}


def _load(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import bench_instances
    import bench_pipeline
    from soscurves import certify, curve, gram, verify, witness

    return bench_instances, bench_pipeline, certify, curve, gram, witness, verify


def _capture(module, name: str, built: list) -> None:
    """Wrap module.name (a module or class attribute) so each artifact it
    returns is appended to built."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        built.append(out)
        return out

    setattr(module, name, wrapper)


def _artifact(obj) -> dict | None:
    if obj is None:
        return None
    if hasattr(obj, "summands"):
        return {
            "exact": obj.exact,
            "residual": repr(obj.residual),
            "provenance": list(obj.provenance),
            "summands": [
                {cid: repr(fn) for cid, fn in sorted(s.items())} for s in obj.summands
            ],
        }
    return {"witness": repr(obj)}


def _analysis(an) -> dict | None:
    if an is None:
        return None
    points = []
    for rec in an.points:
        cls = rec.classification
        points.append({
            "real": rec.is_real,
            "components": list(rec.components),
            "singular_on": list(rec.singular_on),
            "ompit": None if rec.ompit is None else rec.ompit.value,
            "kind": None if cls is None else cls.kind.value,
            "detail": None if cls is None else cls.detail,
        })
    return {"shear": None if an.shear is None else str(an.shear), "points": points}


def _ladder(snaps: list, ldls: list, timed_out: bool) -> dict | None:
    if timed_out:
        return None
    return {
        "snapped": [out is not None for out in snaps],
        "ldl_bits": [
            None if pivots is None
            else max(((d.numerator * d.denominator).bit_length() for d, _ in pivots), default=0)
            for pivots in ldls
        ],
    }


def _report(report) -> dict | None:
    if report is None:
        return None
    return {
        "ok": report.ok,
        "residual": repr(report.residual),
        "failed": [c.name for c in report.failures()],
    }


def dump(root: Path, seeds: list[int], out: Path) -> int:
    instances, pipeline, certify, curve, gram, witness, verify = _load(root)
    analyses: list = []
    _capture(curve, "analyze_curve", analyses)
    built: list = []
    _capture(certify, "full_certify", built)
    _capture(witness, "cycle_witness", built)
    _capture(witness, "nonreal_intersection_witness", built)
    reports: list = []
    _capture(verify, "verify_certificate", reports)
    _capture(verify, "verify_witness", reports)
    snaps: list = []
    _capture(gram._ExactAffineSnap, "snap", snaps)
    ldls: list = []
    _capture(gram, "_rational_ldl", ldls)
    runs = [
        (w, str(s), inst) for w in WORKLOADS for s in seeds for inst in instances.generate(w, s)
    ]
    runs += [(w, "known-defect", inst) for w in WORKLOADS for inst in instances.known_defects(w)]
    with open(out, "w") as fh:
        for workload, seed, inst in runs:
            analyses.clear()
            built.clear()
            reports.clear()
            snaps.clear()
            ldls.clear()
            res = pipeline.run_operation(inst, BUDGET_S[workload])
            record = {
                "key": f"{workload}/{seed}/{inst.name}",
                "outcome": res.outcome,
                "detail": res.detail,
                "analysis": _analysis(analyses[-1] if analyses else None),
                "artifact": _artifact(built[-1] if built else None),
                "report": _report(reports[-1] if reports else None),
                "ladder": _ladder(snaps, ldls, res.timed_out),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{len(runs)} instances written to {out}")
    return 0


def _read(path: Path) -> dict[str, dict]:
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    return {r["key"]: r for r in records}


def _part(name: str):
    """The getter of one entry of a record's artifact (None without one)."""
    return lambda r: (r.get("artifact") or {}).get(name)


FIELDS = {
    "outcome": lambda r: r["outcome"],
    "detail": lambda r: r["detail"],
    "analysis": lambda r: r.get("analysis"),
    **{name: _part(name) for name in ("summands", "exact", "provenance", "residual", "witness")},
    "report ok/failed": lambda r: r.get("report") and (r["report"]["ok"], r["report"]["failed"]),
    "report residual": lambda r: r.get("report") and r["report"]["residual"],
    "ladder": lambda r: r.get("ladder"),
}


def diff(a: Path, b: Path) -> int:
    old, new = _read(a), _read(b)
    changed = 0
    moves: Counter[tuple[str, str, str]] = Counter()
    fields: Counter[str] = Counter()
    for key in sorted(old.keys() | new.keys()):
        ra, rb = old.get(key), new.get(key)
        if ra == rb:
            continue
        changed += 1
        if ra is None or rb is None:
            print(f"{key}: only in {a if rb is None else b}")
            continue
        print(f"{key}: {ra['outcome']} ({ra['detail']}) -> {rb['outcome']} ({rb['detail']})")
        for part in ("analysis", "artifact", "report", "ladder"):
            if ra.get(part) != rb.get(part):
                print(f"  {part} differs")
        if ra["outcome"] != rb["outcome"]:
            moves[(key.split("/")[0], ra["outcome"], rb["outcome"])] += 1
        fields.update(name for name, get in FIELDS.items() if get(ra) != get(rb))
    print(f"{len(old.keys() | new.keys())} instances, {changed} differ")
    for (workload, before, after), count in sorted(moves.items()):
        print(f"{workload} {before} -> {after}: {count}")
    print("differing by field: " + ", ".join(f"{name} {fields[name]}" for name in FIELDS))
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="run every instance and write one JSON line each")
    d.add_argument("out", type=Path)
    d.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    c = sub.add_parser("diff", help="print the instances whose records differ")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.root.resolve(), args.seeds, args.out)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
