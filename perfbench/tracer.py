"""Outside-in tracer: spans around the package's public functions.

``install`` replaces each public function of the traced modules with a
timing wrapper, at every module attribute of the package that holds it.
The package resolves these names as module globals at call time, so the
wrappers see every call without any edit to the package's source.

A span is ``[name, start, end, parent, run_id, attrs]``, kept in memory and
written out by the caller when the run ends.  ``layer_metrics`` turns the
spans of one run into the benchmark's per-layer metrics.  Standard library
only: it runs in the traced child (which has the package imported) and in
the benchmark's parent (which reads the spans back).
"""

from __future__ import annotations

import functools
import sys
import time
import types

MODULES = ("grid", "norms", "kernels", "mfg", "carleman", "cip", "stability", "io", "cli")

# Leaf helpers called once per written number or similar; wrapping them
# would make the tracer, not the package, the cost being measured.
SKIP = {"io.fmt"}

GRID_CALCULUS = ("dt", "dtt", "gradient", "laplacian", "mixed_xixj", "first_derivative",
                 "second_derivative", "trace", "snapshot", "time_integral_from_t0")

# span name -> layer key; spans of other functions fall into "<module>.other".
LAYER = {
    "mfg.solve_hjb": "mfg.hjb",
    "mfg.solve_fokker_planck": "mfg.fp",
    "mfg.solve_mfg_picard": "mfg.picard",
    "mfg.manufacture_triple": "mfg.manufacture",
    "kernels.apply_kernel": "kernels.apply",
    "kernels.apply_kernel_spatial": "kernels.apply",
    "kernels.apply_G": "kernels.apply",
    "kernels.apply_G_spatial": "kernels.apply",
    "kernels.kernel_matrix": "kernels.matrix",
    "norms.norm": "norms",
    "norms.norm_spatial": "norms",
    "norms.trace_norm": "norms",
    "norms.weighted_sum": "norms",
    "norms.lateral_norm": "norms",
    "carleman.estimate_c0": "carleman.estimate_c0",
    "carleman.scaled_weight_values": "carleman.weights",
    "carleman.verify_lemma": "carleman.verify_lemma",
    "carleman.random_family": "carleman.random_family",
    "cip.extract": "cip.extract",
    "cip.measure_delta": "cip.measure_delta",
    "stability.form_difference": "stability.form_difference",
    "stability.holder_sweep": "stability.holder_sweep",
}
LAYER.update({f"grid.{n}": "grid.calculus" for n in GRID_CALCULUS})


def layer_of(name: str) -> str:
    if name in LAYER:
        return LAYER[name]
    module, func = name.split(".", 1)
    if module == "io" and func.startswith("save_"):
        return "io.write"
    if module == "cli":
        return "cli"
    return f"{module}.other"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn, after=None, before=None):
        """Timing wrapper for ``fn``.  ``before(fn)`` runs ahead of the call;
        ``after(args, result_or_exception, fn, before_state)`` returns the
        counts recorded on the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            state = before(fn) if before else None
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[2] = clock()
                stack.pop()
                rec[5] = {"error": type(e).__name__}
                if after:
                    rec[5].update(after(args, e, fn, state))
                raise
            rec[2] = clock()
            stack.pop()
            if after:
                rec[5] = after(args, out, fn, state)
            return out

        return traced


# ---------------------------------------------------------------------------
# counts recorded at the boundaries


def _march_steps(args, out, fn, state):
    if isinstance(out, BaseException):
        return {}
    return {"steps": args[0].grid.nt - 1}


def _picard(args, out, fn, state):
    if isinstance(out, BaseException):
        return {"evaluations": len(getattr(out, "history", ())) + 1, "converged": 0}
    return {"evaluations": out.report["evaluations"], "converged": 1}


def _cache_misses(fn):
    return fn.cache_info().misses


def _matrix_build(args, out, fn, misses_before):
    if isinstance(out, BaseException):
        return {}
    built = fn.cache_info().misses - misses_before
    return {"builds": built, "bytes": out.nbytes if built else 0}


def _carleman_rows(args, out, fn, state):
    if isinstance(out, BaseException):
        return {}
    return {"rows": sum(len(r.lambdas) for r in out[2])}


# span name -> (after, before)
PROBES = {
    "mfg.solve_hjb": (_march_steps, None),
    "mfg.solve_fokker_planck": (_march_steps, None),
    "mfg.solve_mfg_picard": (_picard, None),
    "kernels.kernel_matrix": (_matrix_build, _cache_misses),
    "carleman.estimate_c0": (_carleman_rows, None),
}


def _traceable(obj, module_name: str) -> bool:
    fn = getattr(obj, "__wrapped__", obj)  # unwraps lru_cache
    return isinstance(fn, types.FunctionType) and fn.__module__ == module_name


def install(tracer: Tracer, package: str = "mfglab") -> None:
    """Wrap the public functions of ``MODULES`` wherever the package holds them."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for short in MODULES:
        mod = sys.modules[f"{package}.{short}"]
        for attr, fn in sorted(vars(mod).items()):
            name = f"{short}.{attr}"
            if attr.startswith("_") or name in SKIP or not _traceable(fn, mod.__name__):
                continue
            wrapper = tracer.wrap(name, fn, *PROBES.get(name, (None, None)))
            for holder in modules:
                for hattr, hval in list(vars(holder).items()):
                    if hval is fn:
                        setattr(holder, hattr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run_id, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], io_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (all its spans)."""
    selfs = self_times(spans)
    t: dict[str, float] = {}
    n: dict[str, int] = {}
    a: dict[str, float] = {}
    build_s = 0.0
    estimate_inclusive = 0.0
    for span, own in zip(spans, selfs):
        name, start, end, parent, run_id, attrs = span
        layer = layer_of(name)
        t[layer] = t.get(layer, 0.0) + own
        n[layer] = n.get(layer, 0) + 1
        for key, val in (attrs or {}).items():
            if key != "error":
                a[f"{layer}.{key}"] = a.get(f"{layer}.{key}", 0) + val
        if name == "kernels.kernel_matrix" and attrs and attrs.get("builds"):
            build_s += own
        if name == "carleman.estimate_c0":
            estimate_inclusive += end - start

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    hjb_steps = a.get("mfg.hjb.steps", 0)
    fp_steps = a.get("mfg.fp.steps", 0)
    solves = n.get("mfg.picard", 0)
    rows = a.get("carleman.estimate_c0.rows", 0)
    io_s = t.get("io.write", 0.0)
    return {
        "mfg.hjb.self_s": t.get("mfg.hjb", 0.0),
        "mfg.hjb.step_us": per(t.get("mfg.hjb", 0.0), hjb_steps, 1e6),
        "mfg.fp.self_s": t.get("mfg.fp", 0.0),
        "mfg.fp.step_us": per(t.get("mfg.fp", 0.0), fp_steps, 1e6),
        "mfg.picard.solves": solves,
        "mfg.picard.evaluations": a.get("mfg.picard.evaluations", 0),
        "mfg.picard.converged_ratio": per(a.get("mfg.picard.converged", 0), solves),
        "mfg.picard.self_s": t.get("mfg.picard", 0.0),
        "mfg.manufacture.self_s": t.get("mfg.manufacture", 0.0),
        "kernels.apply.calls": n.get("kernels.apply", 0),
        "kernels.apply.self_s": t.get("kernels.apply", 0.0),
        "kernels.matrix.builds": a.get("kernels.matrix.builds", 0),
        "kernels.matrix.build_s": build_s,
        "kernels.matrix.bytes": a.get("kernels.matrix.bytes", 0),
        "grid.calculus.calls": n.get("grid.calculus", 0),
        "grid.calculus.self_s": t.get("grid.calculus", 0.0),
        "norms.calls": n.get("norms", 0),
        "norms.self_s": t.get("norms", 0.0),
        "carleman.rows": rows,
        "carleman.row_ms": per(estimate_inclusive, rows, 1e3),
        "carleman.estimate_c0.self_s": t.get("carleman.estimate_c0", 0.0),
        "carleman.weights.calls": n.get("carleman.weights", 0),
        "carleman.weights.self_s": t.get("carleman.weights", 0.0),
        "carleman.verify_lemma.self_s": t.get("carleman.verify_lemma", 0.0),
        "carleman.random_family.self_s": t.get("carleman.random_family", 0.0),
        "cip.extract.self_s": t.get("cip.extract", 0.0),
        "cip.measure_delta.self_s": t.get("cip.measure_delta", 0.0),
        "stability.form_difference.self_s": t.get("stability.form_difference", 0.0),
        "stability.holder_sweep.self_s": t.get("stability.holder_sweep", 0.0),
        "io.write.self_s": io_s,
        "io.bytes": io_bytes,
        "io.write_MBps": per(io_bytes, io_s, 1e-6),
        "cli.self_s": t.get("cli", 0.0),
        "trace.run_s": sum(s[2] - s[1] for s in spans if s[3] < 0),
        "trace.spans": len(spans),
    }
