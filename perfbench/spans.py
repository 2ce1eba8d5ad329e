"""Spans at confprod's module boundaries, for the traced benchmark run.

A `Tracer`, while installed, rebinds in each confprod module the names that
module imported from another confprod module to wrappers that time the call.
A span therefore marks a call crossing into a layer; a function's calls
inside its own module (recursion in `differentiate`, one check calling
another) are not split out.  Four names are also rebound in their own
module: the public entry points (`cli.main`,
`catalog.run_scenario`, `geometry.curvature`) and `curvature_batch`, whose
callers inside geometry are the Hessian and Laplacian helpers.  The
evaluators that `compile_expr` returns are wrapped as `expressions.eval`.

Span durations are CPU time of the main thread (`time.thread_time`), not
scaled for processor speed.  Each span's self time is its duration minus the
durations of the spans it directly contains.  Spans are aggregated per layer
as they close, so the tracer holds counts and sums, not a span list.  Uninstalling restores every
rebound name; evaluators already wrapped and held in confprod's own caches
pass straight through once the tracer is inactive.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter
from dataclasses import dataclass
from time import thread_time

import numpy as np

MODULES = ("expressions", "geometry", "constructions", "checkers", "catalog", "cli")

# layer -> (defining module, function names); a name a later commit removes
# is skipped, so the benchmark keeps running across refactors
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "expressions.compile": ("expressions", ("compile_expr",)),
    "expressions.differentiate": ("expressions", ("differentiate",)),
    "geometry.curvature_batch": ("geometry", ("curvature_batch",)),
    "geometry.fields": ("geometry", (
        "hessian_lc_batch", "laplacian_batch", "grad_norm_sq_batch", "gradient_batch",
        "metric_values", "expr_values", "coordinate_hessian_batch",
    )),
    "geometry.curvature": ("geometry", ("curvature", "christoffel")),
    "constructions.build": ("constructions", (
        "as_metric", "joint_chart", "product", "conformal_metric", "warped_metric",
        "twisted_metric", "doubly_twisted_metric", "function_rescaled_metric",
        "constant_rescale", "joint_sum", "reciprocal",
    )),
    "constructions.formula": ("constructions", (
        "conformal_ricci_formula", "conformal_scalar_formula", "conformal_connection",
        "require_positive_factor",
    )),
    "checkers.sample": ("checkers", ("sample",)),
    "checkers.check": ("checkers", (
        "einstein_check", "conformally_einstein_check", "mixed_ricci_flat_check",
        "split_factor", "summand_spread", "require_nonconstant", "summand_laplacian_fit",
        "summand_hessian_check", "factor_hessian_check", "warped_einstein_check",
        "warped_presentation_check", "constancy",
    )),
    "catalog.run_scenario": ("catalog", ("run_scenario",)),
    "cli.main": ("cli", ("main",)),
}
EVAL = "expressions.eval"
OWN_MODULE = {("cli", "main"), ("catalog", "run_scenario"),
              ("geometry", "curvature"), ("geometry", "curvature_batch")}

# the catalog at the commit that defined the benchmark; per-scenario counts
# are reported for these names only, so the metric set stays fixed
SCENARIOS = ("cosh_cylinder", "doubly_twisted_einstein", "flat_quadratic", "non_splitting",
             "sphere_hyperbolic", "twisted_split", "warped_sphere")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    points: int = 0


class Tracer:
    """Install with `with Tracer() as tracer:`; read `tracer.metrics()` after."""

    def __init__(self):
        self.active = False
        self.stats = {name: LayerStats() for name in (*LAYERS, EVAL)}
        self._open: list[float] = []          # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self._scenario: str | None = None
        self._scenario_runs: Counter = Counter()
        self._curvature_per_scenario: Counter = Counter()
        self._curvature_keys: set = set()
        self._curvature_bytes = 0

    # --- install / uninstall ---------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {m: importlib.import_module(f"confprod.{m}") for m in MODULES}
        targets: dict[int, tuple[object, str]] = {}
        for layer, (home, names) in LAYERS.items():
            for name in names:
                fn = getattr(modules[home], name, None)
                if callable(fn):
                    targets[id(fn)] = (fn, layer)
        for mname, module in modules.items():
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                own = getattr(value, "__module__", None) == module.__name__
                if own and (mname, attr) not in OWN_MODULE:
                    continue
                self._saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, hit[1]))
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # --- spans -------------------------------------------------------------

    def _wrap(self, fn, layer: str):
        stats = self.stats[layer]
        after = {
            "expressions.compile": self._after_compile,
            "geometry.curvature_batch": self._after_curvature_batch,
        }.get(layer)
        is_scenario = layer == "catalog.run_scenario"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outer = self._scenario
            if is_scenario:
                self._scenario = args[0] if args else kwargs.get("name")
                self._scenario_runs[self._scenario] += 1
            self._open.append(0.0)
            returned = False
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = thread_time()
                stats.calls += 1
                stats.self_s += end - start - self._open.pop()
                self._scenario = outer
                if returned and after is not None:
                    result = after(args, kwargs, result)
                if self._open:
                    # the caller's self time excludes this span and its bookkeeping
                    self._open[-1] += thread_time() - start
            return result

        return span

    def _after_compile(self, args, kwargs, evaluator):
        stats = self.stats[EVAL]

        @functools.wraps(evaluator)
        def evaluate(points):
            if not self.active:
                return evaluator(points)
            self._open.append(0.0)
            start = thread_time()
            try:
                return evaluator(points)
            finally:
                end = thread_time()
                stats.calls += 1
                stats.points += len(points)
                stats.self_s += end - start - self._open.pop()
                if self._open:
                    self._open[-1] += end - start

        return evaluate

    def _after_curvature_batch(self, args, kwargs, batch):
        stats = self.stats["geometry.curvature_batch"]
        metric = args[0] if args else kwargs["metric"]
        digest = hashlib.blake2b(batch.points.tobytes(), digest_size=16).digest()
        self._curvature_keys.add((metric, batch.points.shape, digest))
        stats.points += len(batch.points)
        self._curvature_bytes += sum(
            v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))
        if self._scenario is not None:
            self._curvature_per_scenario[self._scenario] += 1
        return batch

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for layer, st in self.stats.items():
            out[f"{layer}.calls"] = st.calls
            out[f"{layer}.self_s"] = st.self_s
        out[f"{EVAL}.points"] = self.stats[EVAL].points
        batch = self.stats["geometry.curvature_batch"]
        out["geometry.curvature_batch.points"] = batch.points
        out["geometry.curvature_batch.distinct"] = len(self._curvature_keys)
        out["geometry.curvature_batch.reuse_ratio"] = (
            len(self._curvature_keys) / batch.calls if batch.calls else 0.0)
        out["geometry.curvature_batch.out_bytes"] = self._curvature_bytes
        for name in SCENARIOS:
            runs = self._scenario_runs[name]
            out[f"geometry.curvature_batch.calls.{name}"] = (
                self._curvature_per_scenario[name] / runs if runs else 0.0)
        return out
