"""Span recording around the library's layers, installed from outside.

The library has no tracing of its own, so the benchmark wraps module
attributes: each wrapper records one span (name, start, end, parent) per call
while a Tracer is switched on.  A function is wrapped where it is defined and
wherever another compalg module imported it by name, so calls through either
binding are seen.  Spans live in memory until aggregated at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

#: Layers whose self time and calls the traced run reports, as
#: "<module>.<function>" under the compalg package.
TIMED_LAYERS = (
    "numerics.nullspace",
    "derivations.leibniz_matrix",
    "algebra.double_sign",
    "derivations.trivial_submodule",
    "derivations._structure",
    "derivations.decompose",
    "derivations.is_irreducible",
    "derivations.commutant_basis",
    "classify.canonical",
    "normal_form.nf_TxT",
    "normal_form.nf_M1",
    "normal_form.nf_pair",
    "d1133.canonical_1133",
    "algebra.from_isotope",
    "maps.tau_map",
    "maps.T_map",
    "maps.kappa_hat_map",
    "maps.g2_from_triples",
    "classify.witness_residual",
    "triality.triality_pair",
    "triality.solve_triality_components",
)

#: Layers reported by call count only.
COUNTED_LAYERS = ("classify._params_close", "octonion.quat_mul")


def svd_flops(shape):
    """Flops of a full SVD (U and V) of an m x n matrix, Golub & Van Loan's
    count 4 m^2 n + 8 m n^2 + 9 n^3 for m >= n, transposed otherwise.
    Computed from the shape, not measured."""
    m, n = (int(x) for x in shape[:2])
    if m < n:
        m, n = n, m
    return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3


def _nullspace_observer(tracer, args, result):
    tracer.extra["numerics.nullspace.flops"] += svd_flops(np.shape(args[0]))


def _irreducible_observer(tracer, args, result):
    if not result:
        tracer.extra["derivations.is_irreducible.false"] += 1


OBSERVERS = {
    "numerics.nullspace": _nullspace_observer,
    "derivations.is_irreducible": _irreducible_observer,
}


class Tracer:
    """In-memory span recorder.  Spans are lists [name, start, end, parent]
    where parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = False
        self.extra = {"numerics.nullspace.flops": 0, "derivations.is_irreducible.false": 0}
        self._restore = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name` (a root span when none is open)."""
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if observer is not None:
                observer(tracer, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every layer at its definition and at each by-name import.
        A layer the library no longer has is listed in self.missing."""
        for layer in TIMED_LAYERS + COUNTED_LAYERS:
            module_name, attr = layer.split(".", 1)
            module = importlib.import_module(f"compalg.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, OBSERVERS.get(layer))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "compalg" or mod_name.startswith("compalg.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.
    Siblings never overlap (one thread, properly nested calls), so the covered
    time is the sum of the children's durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _) in enumerate(spans)]


def nesting_errors(spans):
    """Spans that end before they start, stick out of their parent, or whose
    children cover more than the parent's duration."""
    bad = []
    for k, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append((k, name, "ends before it starts"))
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad.append((k, name, "outside its parent"))
    for k, value in enumerate(self_times(spans)):
        if value < -1e-9:
            bad.append((k, spans[k][0], f"children exceed parent by {-value:g} s"))
    return bad


def layer_metrics(tracer, n_ops, roots):
    """Per-operation per-layer figures from the recorded spans.

    roots names the harness's own operation spans; coverage is the share of
    their duration covered by layer spans.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_ms = {}
    calls = {}
    root_total = root_self = 0.0
    for (name, start, end, _), value in zip(spans, selfs):
        if name in roots:
            root_total += end - start
            root_self += value
            continue
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * value
        calls[name] = calls.get(name, 0) + 1
    per = 1.0 / max(n_ops, 1)
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0) * per, "ms")
        out[f"{layer}.calls"] = (calls.get(layer, 0) * per, "count")
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0) * per, "count")
    out["numerics.nullspace.flops"] = (tracer.extra["numerics.nullspace.flops"] * per, "flop")
    irreducible = calls.get("derivations.is_irreducible", 0)
    false = tracer.extra["derivations.is_irreducible.false"]
    out["derivations.is_irreducible.false_ratio"] = (
        false / irreducible if irreducible else 0.0, "ratio")
    pairs = calls.get("triality.triality_pair", 0)
    out["triality.solver_share"] = (
        calls.get("triality.solve_triality_components", 0) / pairs if pairs else 0.0, "ratio")
    out["trace.coverage"] = (1.0 - root_self / root_total if root_total else 0.0, "ratio")
    return out
