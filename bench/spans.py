"""Spans around the calls into conelab's layers, for the traced run.

``Tracer.install()`` replaces each traced public function with a wrapper that
records one span per call: layer, parent span, start, end, self time, and,
for the solvers, the iteration count and whether the returned certificate gap
exceeds the solver's own stopping tolerance.  The wrapper is bound in every
``conelab`` module that imported the function by name (``gallery.project_hull``,
``hull_constants.project_conic_generators``, ...), because patching only the
defining module would miss those calls.  ``FaceHandle.contains`` is wrapped
on the class.  ``uninstall()`` restores every binding.

Spans stay in memory; the caller summarises them and writes them out when the
run ends.  A layer's self time is its span's duration minus the durations of
its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Every iterative kernel in conelab stops at a certificate gap of 1e-10,
# scaled by max(1, ||x||) where the kernel scales it.
STOP_TOL = 1e-10


def _scale(x) -> float:
    return max(1.0, float(np.linalg.norm(np.asarray(x, dtype=float))))


def _hull_stats(args, kwargs, ret):
    res = ret[0] if isinstance(ret, tuple) else ret
    gap_tol = kwargs.get("gap_tol", args[2] if len(args) > 2 else STOP_TOL)
    return res.iterations, res.certificate_gap > gap_tol


def _generator_stats(args, kwargs, ret):
    return None, ret[2] > STOP_TOL * _scale(args[1])


def _project_stats(args, kwargs, ret):
    return ret.iterations, ret.certificate_gap > STOP_TOL * _scale(args[1])


def _dykstra_stats(args, kwargs, ret):
    tol_change = kwargs.get("tol_change", args[3] if len(args) > 3 else STOP_TOL)
    return ret.iterations, ret.certificate_gap > tol_change


# (module, function, result inspector); layers are named <module>.<function>.
FUNCTIONS = (
    ("projection_engine", "project_hull", _hull_stats),
    ("projection_engine", "project_conic_generators", _generator_stats),
    ("projection_engine", "project", _project_stats),
    ("projection_engine", "moreau_decompose", None),
    ("projection_engine", "dykstra_projectors", _dykstra_stats),
    ("linalg_core", "sym_to_vec", None),
    ("linalg_core", "vec_to_sym", None),
    ("facial_structure", "face_projection", None),
    ("facial_structure", "is_exposed", None),
    ("cone_algebra", "sample_points", None),
    ("cone_algebra", "membership", None),
    ("proj_exposed", "build_rank_one_projection", None),
    ("proj_exposed", "build_rank_two_projection", None),
    ("gallery", "curve_cloud", None),
    ("amenability_probe", "estimate_kappa", None),
    ("hull_constants", "verify_slice_bound", None),
)
# (module, class, method) wrapped on the class itself.
METHODS = (("facial_structure", "FaceHandle", "contains"),)
# Call sites with a layer of their own, nested around the function's layer:
# amenability_probe.project counts the probes' ratio evaluations.
CALL_SITES = (("amenability_probe", "project"),)


class Tracer:
    """Records spans while installed.  Not thread-safe: conelab is serial."""

    def __init__(self):
        self.layers: list[str] = []  # layer names, indexed by layer id
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: str, fn, inspect):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            ret = None
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
                return ret
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                iters, uncertified = (
                    inspect(args, kwargs, ret) if inspect and ret is not None else (None, False)
                )
                spans[idx] = (layer_id, parent, t0, t1, t1 - t0 - frame[0], iters, uncertified)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, *_ in FUNCTIONS + METHODS + CALL_SITES:
            importlib.import_module(f"conelab.{mod_name}")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "conelab" or name.startswith("conelab.")
        ]
        for mod_name, fn_name, inspect in FUNCTIONS:
            orig = getattr(sys.modules[f"conelab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, inspect)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"conelab.{mod_name}"], cls_name)
            wrapper = self._wrap(f"{mod_name}.{cls_name}.{meth}", cls.__dict__[meth], None)
            self._patch(cls, meth, wrapper)
        for mod_name, fn_name in CALL_SITES:
            mod = sys.modules[f"conelab.{mod_name}"]
            wrapper = self._wrap(f"{mod_name}.{fn_name}", getattr(mod, fn_name), None)
            self._patch(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_stats(layers: list[str], instances: list[list]) -> dict:
    """Per-layer metrics over the traced instances of one run.

    Counts (calls, iters, uncertified) come from the first instance, whose
    inputs depend on the seed alone, so they repeat exactly at one seed.
    self_s is the median over instances of the layer's summed self time;
    p50_ms and p90_ms are taken over every span of the layer.
    """
    n = len(layers)
    calls = [0] * n
    uncertified = [0] * n
    iters = [[] for _ in range(n)]
    self_s = np.zeros((len(instances), n))
    durations = [[] for _ in range(n)]
    for k, spans in enumerate(instances):
        for layer_id, _, t0, t1, own, it, unc in spans:
            self_s[k, layer_id] += own
            durations[layer_id].append((t1 - t0) * 1e3)
            if k == 0:
                calls[layer_id] += 1
                uncertified[layer_id] += unc
                if it is not None:
                    iters[layer_id].append(it)
    return {
        layer: {
            "calls": calls[j],
            "self_s": float(np.median(self_s[:, j])),
            "p50_ms": float(np.percentile(durations[j], 50)) if durations[j] else 0.0,
            "p90_ms": float(np.percentile(durations[j], 90)) if durations[j] else 0.0,
            "iters": float(np.mean(iters[j])) if iters[j] else 0.0,
            "uncertified": uncertified[j],
        }
        for j, layer in enumerate(layers)
    }
