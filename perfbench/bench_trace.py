"""Per-layer tracing from outside the library.

`LayerTrace.install()` wraps the public entry points of each layer (L0-L6).
A function imported with ``from .x import f`` is bound once per importing
module, so the wrapper replaces the name in every ``soscurves.*`` module that
holds the original object; `uninstall()` puts every original back.

Timed wrappers record calls, total time and self time (total minus the time
spent in wrapped children).  L0 arithmetic only gets call counters, because
timing every polynomial product would cost more than the product.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

TOP_N = 8  # functions listed by self time after a traced run

# (metric prefix, module, attribute path, timed)
TARGETS = (
    ("L0.unipoly_mul", "soscurves.unipoly", "UniPoly.__mul__", False),
    ("L0.bipoly_mul", "soscurves.bipoly", "BiPoly.__mul__", False),
    ("L0.unipoly_divmod", "soscurves.unipoly", "UniPoly.divmod", False),
    ("L1.isolate_real_roots", "soscurves.unipoly", "isolate_real_roots", True),
    ("L1.box_sign", "soscurves.unipoly", "box_sign", True),
    ("L1.sturm_count", "soscurves.unipoly", "sturm_count", True),
    ("L1.squarefree_part", "soscurves.unipoly", "squarefree_part", True),
    ("L2.resultant_y", "soscurves.bipoly", "resultant_y", True),
    ("L2.have_common_factor", "soscurves.bipoly", "have_common_factor", True),
    ("L3.analyze_curve", "soscurves.curve", "analyze_curve", True),
    ("L3.build_component", "soscurves.components", "build_component", True),
    ("L3.fast_intersection", "soscurves.intersect", "fast_intersection", True),
    ("L3.choose_shear", "soscurves.intersect", "choose_shear", True),
    ("L3.shear_score", "soscurves.intersect", "shear_score", True),
    ("L3.classify_point", "soscurves.curve", "classify_point", True),
    ("L4.to_configuration", "soscurves.curve", "to_configuration", True),
    ("L4.decide_psd_eq_sos", "soscurves.decide", "decide_psd_eq_sos", True),
    ("L5.build_gram_problem", "soscurves.gram", "build_gram_problem", True),
    ("L5.alternating_projections", "soscurves.gram", "alternating_projections", True),
    ("L5.extract_summands", "soscurves.gram", "extract_summands", True),
    ("L5.jacobi_eigh", "soscurves.gram", "jacobi_eigh", True),
    ("L5.forest_assemble", "soscurves.glue", "forest_assemble", True),
    ("L5.line_fn_sos", "soscurves.squares", "line_fn_sos", True),
    ("L5.int_square_list", "soscurves.numbers", "int_square_list", True),
    ("L5.cycle_witness", "soscurves.witness", "cycle_witness", True),
    ("L5.nonreal_intersection_witness", "soscurves.witness", "nonreal_intersection_witness", True),
    ("L6.verify_certificate", "soscurves.verify", "verify_certificate", True),
    ("L6.verify_witness", "soscurves.verify", "verify_witness", True),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0


class LayerTrace:
    """Call counts and times per wrapped function, plus a few derived counters."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.counters = {
            "shear_pairs": 0,
            "fast_hits": 0,
            "gram_iterations": 0,
            "extract_exact": 0,
        }
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- observers for the derived counters --------------------------------

    def _observe(self, name, args, result, exc) -> None:
        c = self.counters
        if name == "L3.choose_shear":
            c["shear_pairs"] += len(args[0])
        elif name == "L3.fast_intersection":
            c["fast_hits"] += result is not None
        elif name == "L5.alternating_projections":
            src = result if exc is None else exc
            c["gram_iterations"] += getattr(src, "iterations", 0)
        elif name == "L5.extract_summands" and exc is None:
            c["extract_exact"] += bool(result.exact)

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name: str, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - child[0]
                if stat.depth == 0:  # count recursive calls once in total time
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt
                observe(name, args, result, exc)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("trace already installed")
        # a budget interrupt can land inside a wrapper's bookkeeping; start clean
        self._stack.clear()
        for stat in self.stats.values():
            stat.depth = 0
        modules = [m for n, m in sys.modules.items() if n.startswith("soscurves") and m]
        for name, module, path, timed in TARGETS:
            holder = sys.modules[module]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                holder = getattr(holder, part)
            original = getattr(holder, attr)
            wrapper = (self._timed if timed else self._counted)(name, original)
            if owner_path:  # a method: patch the class, which every module shares
                self._patch(holder, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ----------------------------------------------------------------

    def metrics(self, operations: int) -> dict[str, float]:
        """Per-layer metrics, each normalised per traced operation where it is a sum."""
        ops = max(operations, 1)
        s, c = self.stats, self.counters
        out: dict[str, float] = {}
        for name in ("L0.unipoly_mul", "L0.bipoly_mul", "L0.unipoly_divmod", "L4.to_configuration"):
            out[f"{name}.calls"] = s[name].calls / ops
        for name in (
            "L1.isolate_real_roots", "L1.box_sign", "L1.sturm_count", "L1.squarefree_part",
            "L2.resultant_y", "L2.have_common_factor",
            "L3.classify_point", "L3.build_component", "L4.decide_psd_eq_sos",
            "L5.build_gram_problem", "L5.alternating_projections", "L5.extract_summands",
            "L5.jacobi_eigh", "L5.forest_assemble", "L5.line_fn_sos", "L5.int_square_list",
        ):
            out[f"{name}.calls"] = s[name].calls / ops
            out[f"{name}.self_s"] = s[name].self_s / ops
        for name in ("L3.analyze_curve", "L5.cycle_witness", "L5.nonreal_intersection_witness"):
            out[f"{name}.total_s"] = s[name].total_s / ops
        for name in ("L6.verify_certificate", "L6.verify_witness"):
            out[f"{name}.self_s"] = s[name].self_s / ops
        out["L3.shear_score.calls"] = s["L3.shear_score"].calls / ops
        out["L3.shear_score_per_pair"] = s["L3.shear_score"].calls / max(c["shear_pairs"], 1)
        out["L3.fast_intersection.hit_ratio"] = c["fast_hits"] / max(s["L3.fast_intersection"].calls, 1)
        out["L5.gram_iterations"] = c["gram_iterations"] / ops
        out["L5.extract_exact_ratio"] = c["extract_exact"] / max(s["L5.extract_summands"].calls, 1)
        return out

    def top_self_time(self) -> list[tuple[str, float, float]]:
        """The TOP_N wrapped functions by self time, as (name, self_s, total_s)."""
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [(k, v.self_s, v.total_s) for k, v in ranked[:TOP_N]]
