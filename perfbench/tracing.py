"""Span recorder that wraps emwave's public entry points from the outside.

Nothing in the package is edited: `Tracer.install` replaces each entry point
listed in `ENTRY_POINTS` with a wrapper, in the module that defines it and in
every emwave module that imported it by name, and `Tracer.uninstall` puts the
originals back.  Spans are kept in memory as dicts with a name, the module
(layer) that owns the function, a metric bucket, start and end on the
system-wide monotonic clock, and the index of the enclosing span.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time

# (module, function names, bucket).  The bucket names the per-layer metric
# that the function's self time is charged to.
ENTRY_POINTS = (
    ("grids", ("build_spatial_grid", "build_scale_grid", "build_cone_grid",
               "build_cartesian_cone_grid", "build_from_record"), "grids"),
    ("fieldcore", ("amplitude_from_scalar", "amplitude_from_vectors"), "fieldcore.amplitude"),
    ("fieldcore", ("evaluate_field", "_evaluate_many"), "fieldcore.eval"),
    ("wavelet", ("eval_kernel", "eval_wavelet", "scaling_check", "wavelet_momentum"), "wavelet"),
    ("ast", ("ast_line", "ast_line_with_tail", "ast_fourier"), "ast"),
    ("oracle", ("cone_inner_product", "wavelet_by_quadrature", "kernel_by_quadrature",
                "ast_by_quadrature"), "oracle"),
    ("transform", ("analyze",), "transform.analyze"),
    ("transform", ("save_coefficients",), "transform.save"),
    ("transform", ("load_coefficients",), "transform.load"),
    ("transform", ("synthesize_many",), "transform.synth_many"),
    ("transform", ("synthesize", "reproduce_complex_time"), "transform.synth_point"),
    ("transform", ("norm_momentum", "norm_euclidean", "inner_product", "norm_report"),
     "transform.norms"),
    ("transform", ("norm_nonlocal_t0",), "transform.nonlocal"),
)


def _annotate(bucket: str, args, result) -> dict:
    """Sizes and outcomes that per-layer ratios need, read off a call."""
    if bucket in ("transform.analyze", "transform.load"):
        return {"slices": int(result.values.shape[0]), "bytes": int(result.values.nbytes)}
    if bucket == "transform.save":
        return {"bytes": int(args[0].values.nbytes)}
    if bucket == "oracle":
        return {"converged": bool(result.converged)}
    return {}


class Tracer:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self, layers=None):
        # layers: module names to wrap on install (None wraps all of them)
        self.layers = layers
        self.spans: list[dict] = []
        self.phase = "setup"
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, layer: str, bucket: str) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "layer": layer,
            "bucket": bucket,
            "phase": self.phase,
            "parent": stack[-1] if stack else None,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, bucket: str):
        record = self._open(name, layer, bucket)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, fn, name: str, layer: str, bucket: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name, layer, bucket)
            try:
                result = fn(*args, **kwargs)
                record.update(_annotate(bucket, args, result))
                return result
            finally:
                self._close(record)

        return wrapper

    def install(self) -> None:
        """Swap every listed entry point for its recording wrapper."""
        if self._patched:
            return
        wanted = [e for e in ENTRY_POINTS if self.layers is None or e[0] in self.layers]
        homes = {layer: importlib.import_module(f"emwave.{layer}") for layer, _, _ in wanted}
        loaded = [m for k, m in sys.modules.items() if k == "emwave" or k.startswith("emwave.")]
        for layer, names, bucket in wanted:
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, f"{layer}.{name}", layer, bucket)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def merge(self, spans: list[dict], phase: str) -> None:
        """Append spans recorded by another process, re-based onto this list."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, phase=phase, remote=True)
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)


def self_time(spans: list[dict]) -> list[float]:
    """Duration minus the part covered by direct child spans, per span."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def bucket_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per phase and bucket: summed self time ``s``, span count ``n``, the
    summed annotations (slices, bytes, converged), and ``calls``, the calls
    that enter the bucket's layer from another layer (a wavelet function
    calling another wavelet function is one call into the layer)."""
    own = self_time(spans)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for sp, s in zip(spans, own):
        rec = out.setdefault(sp["phase"], {}).setdefault(
            sp["bucket"], {"s": 0.0, "calls": 0, "n": 0, "slices": 0, "bytes": 0, "converged": 0}
        )
        rec["s"] += s
        rec["n"] += 1
        parent = sp["parent"]
        if parent is None or spans[parent]["layer"] != sp["layer"]:
            rec["calls"] += 1
        for key in ("slices", "bytes", "converged"):
            rec[key] += int(sp.get(key, 0))
    return out


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
