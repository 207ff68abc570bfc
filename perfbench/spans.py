"""Spans around calls into loglap's layers, installed from outside the program.

`install` replaces functions at the names where callers look them up (a
module global such as `hyperbolic.heat_kernel` is seen by the module's own
callers too) and returns an `ExitStack` that puts the originals back.  Each
wrapped call records a span: name, start, end and the span that was open in
the same thread when it began.  Spans live in flat arrays and are written out
once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

SPECFUN = ("gamma", "gamma_ln", "digamma", "upper_gamma", "exp_integral_e1", "bessel_k", "erf")
EUCLID_ROUTES = {
    "pointwise": ("log_pointwise", "frac_pointwise"),
    "bochner": ("log_bochner_point", "frac_bochner_point"),
    "multiplier": ("log_multiplier", "frac_multiplier", "heat_apply", "laplacian_multiplier"),
    "periodization_shift": ("log_periodization_shift", "frac_periodization_shift"),
}
HYPER_POINTWISE = ("log_pointwise_h", "log_bochner_h", "split_check", "kernel_norms")
SUITES = ("specfun", "identities", "euclid", "hyperbolic", "spectral")
TABLE_KINDS = ("heat", "log1", "log2", "frac", "frac_bessel")


class Tracer:
    """Span store.  A span's `layer` marks it nested when a span of the same
    layer is already open in its thread, so busy time counts each layer once."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open_layers = defaultdict(int)
        return local

    def begin(self, name: str, layer: str) -> int:
        local = self._state()
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(local.stack[-1][0] if local.stack else -1)
            self.nested.append(1 if local.open_layers[layer] else 0)
            self.end.append(float("nan"))
            self.start.append(self.clock())
        local.stack.append((idx, layer))
        local.open_layers[layer] += 1
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        local = self._state()
        _, layer = local.stack.pop()
        local.open_layers[layer] -= 1

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def record_max(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.counters.get(key, 0.0):
                self.counters[key] = value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def summarize(tracer: Tracer) -> dict:
    """{name: (spans, busy_s, self_s)}; busy counts spans not nested in their own layer."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name_id"] == nid
        top = mask & (a["nested"] == 0)
        out[name] = (int(mask.sum()), float(dur[top].sum()), float(own[mask].sum()))
    return out


def _spanned(tracer: Tracer, fn, name, layer, before=None, after=None):
    """fn inside a span; `before` may rewrite the arguments, `after` sees the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        idx = tracer.begin(span_name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _quadrature_wrapper(tracer: Tracer, fn):
    sig = inspect.signature(fn)

    def integrand(f):
        return _spanned(tracer, f, "quadrature.integrand", "quadrature.integrand")

    def before(args, kwargs):
        # nesting depth of integrals: the open quadrature spans plus this one
        tracer.record_max("quadrature.max_depth", tracer._state().open_layers["quadrature"] + 1)
        return (integrand(args[0]), *args[1:]), kwargs

    def after(args, kwargs, result):
        cfg = sig.bind(*args, **kwargs)
        cfg.apply_defaults()
        cfg = cfg.arguments["cfg"]
        tracer.count("quadrature.calls")
        tracer.count("quadrature.evals", result.evaluations)
        if not result.converged:
            tracer.count("quadrature.unconverged")
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(result.value))
        tracer.record_max("quadrature.worst_err_ratio", result.error_estimate / tol)

    return _spanned(tracer, fn, "quadrature." + fn.__name__, "quadrature", before, after)


def install(tracer: Tracer) -> contextlib.ExitStack:
    """Wrap loglap's layer entry points (loglap must already be importable);
    closing the returned stack puts the originals back."""
    from unittest import mock  # imports asyncio: ~4 MB that untraced runs need not carry

    with contextlib.ExitStack() as stack:
        _install(tracer, lambda owner, attr, value: stack.enter_context(
            mock.patch.object(owner, attr, value)))
        return stack.pop_all()


def _install(tracer: Tracer, patch) -> None:
    from loglap import cli, euclid, hyperbolic, quadrature, reporting, specfun, spectral, verification

    callers = (quadrature, euclid, hyperbolic, spectral, verification, cli)

    for fname in SPECFUN:
        original = getattr(specfun, fname)
        wrapped = _spanned(tracer, original, "specfun." + fname, "specfun",
                           after=lambda a, k, r: tracer.count("specfun.calls"))
        for module in callers:
            if module.__dict__.get(fname) is original:
                patch(module, fname, wrapped)

    for fname in ("integrate", "integrate_semiinfinite"):
        original = getattr(quadrature, fname)
        wrapped = _quadrature_wrapper(tracer, original)
        for module in callers:
            if module.__dict__.get(fname) is original:
                patch(module, fname, wrapped)

    def heat_after(args, kwargs, result):
        n = args[0]
        tracer.count("hyperbolic.heat_kernel.calls")
        tracer.count(f"hyperbolic.heat_kernel.points.n{n}", np.size(args[2] if len(args) > 2 else kwargs["t"]))

    patch(hyperbolic, "heat_kernel", _spanned(
        tracer, hyperbolic.heat_kernel, lambda a, k: f"hyperbolic.heat_kernel.n{a[0]}",
        "hyperbolic.heat_kernel", after=heat_after))
    patch(hyperbolic, "log_kernel_values", _spanned(
        tracer, hyperbolic.log_kernel_values, "hyperbolic.log_kernel_values",
        "hyperbolic.log_kernel_values",
        after=lambda a, k, r: tracer.count("hyperbolic.log_kernel_values.radii", np.size(a[1]))))
    for fname in HYPER_POINTWISE:
        patch(hyperbolic, fname, _spanned(
            tracer, getattr(hyperbolic, fname), "hyperbolic.pointwise." + fname, "hyperbolic.pointwise"))

    def table_name(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        if kind == "frac" and kwargs.get("route") == "bessel_closed_form":
            kind = "frac_bessel"
        return f"hyperbolic.table.{kind}"

    def table_after(args, kwargs, result):
        tracer.count(table_name(args, kwargs) + ".rows", len(result.r_grid))

    patch(hyperbolic, "build_kernel_table", _spanned(
        tracer, hyperbolic.build_kernel_table, table_name, "hyperbolic.table", after=table_after))

    def sphere_after(args, kwargs, result):
        tracer.count("euclid.sphere_average.calls")
        tracer.count("euclid.sphere_average.points", np.size(args[2]))

    patch(euclid, "sphere_average", _spanned(
        tracer, euclid.sphere_average, "euclid.sphere_average", "euclid.sphere_average",
        after=sphere_after))
    for route, fnames in EUCLID_ROUTES.items():
        for fname in fnames:
            patch(euclid, fname, _spanned(
                tracer, getattr(euclid, fname), f"euclid.{route}.{fname}", f"euclid.{route}"))
    grid_cls = euclid.PeriodicGridFunction
    sample = grid_cls.__dict__["from_function"].__func__
    patch(grid_cls, "from_function", classmethod(_spanned(
        tracer, sample, "euclid.multiplier.from_function", "euclid.multiplier")))

    for fname in ("massloss_vs", "frac_discrepancy_halfline"):
        patch(spectral, fname, _spanned(
            tracer, getattr(spectral, fname), "spectral." + fname, "spectral"))

    for suite in SUITES:
        patch(verification, "suite_" + suite, _spanned(
            tracer, getattr(verification, "suite_" + suite), "verification." + suite,
            "verification." + suite,
            after=lambda a, k, r: tracer.count("verification.checks", len(r.checks))))

    patch(cli, "main", _spanned(tracer, cli.main, "cli.main", "cli"))

    def file_bytes(args, kwargs, result):
        tracer.count("reporting.bytes_written", os.path.getsize(args[0]))

    for fname in ("write_csv", "write_json"):
        patch(reporting, fname, _spanned(
            tracer, getattr(reporting, fname), "reporting." + fname, "reporting", after=file_bytes))
    patch(reporting.VerifyReport, "to_json", _spanned(
        tracer, reporting.VerifyReport.to_json, "reporting.to_json", "reporting",
        after=lambda a, k, r: tracer.count("reporting.bytes_written", len(r.encode()))))
