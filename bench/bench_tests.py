"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/bench_tests.py

Workloads run here at tiny sizes, in-process; the timed runs live in run.py.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, moreau_residual  # noqa: E402

from conelab import gallery, projection_engine  # noqa: E402
from conelab.cone_algebra import SecondOrderCone, dual_cone  # noqa: E402
from conelab.facial_structure import FaceHandle  # noqa: E402

TINY = {
    "gallery_probe": {"n_samples": 2},
    "slice_bound": {"n_gallery": 10, "n_polytope": 10},
    "pointwise": {"n_points": 40, "n_certify": 100},
}


@lru_cache(maxsize=None)
def tiny(name: str):
    """The workload at tiny size and its fixed objects."""
    workload = copy.copy(WORKLOADS[name])
    for attr, value in TINY[name].items():
        setattr(workload, attr, value)
    return workload, workload.setup()


def tiny_record(name: str, trace: bool) -> dict:
    workload, ctx = tiny(name)
    record, _ = child.measure(workload, ctx, seed=7, seconds=0, trace=trace, minimum=1)
    return record


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = run.summarise(tiny_record(name, trace), [0.5], trace)
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_counts_repeat_at_one_seed(name):
    def counts():
        layers = tiny_record(name, trace=True)["layers"]
        return {k: (v["calls"], v["iters"], v["uncertified"]) for k, v in layers.items()}

    first = counts()
    assert first == counts()
    assert sum(calls for calls, _, _ in first.values()) > 0
    # the wrappers are gone again after the traced instance
    assert gallery.project_hull is projection_engine.project_hull
    assert not hasattr(FaceHandle.contains, "__wrapped__")


def test_trace_attributes_the_probe_to_project_hull_and_pointwise_elsewhere():
    probe = tiny_record("gallery_probe", trace=True)["layers"]
    assert probe["projection_engine.project_hull"]["calls"] > 0
    assert probe["projection_engine.project_conic_generators"]["calls"] == 0
    ratio_evaluations = probe["amenability_probe.project"]["calls"]
    assert ratio_evaluations == probe["projection_engine.project"]["calls"] > 0
    pointwise = tiny_record("pointwise", trace=True)["layers"]
    assert pointwise["projection_engine.project_hull"]["calls"] == 0
    assert pointwise["facial_structure.FaceHandle.contains"]["calls"] > 0


def test_slice_gate_rejects_a_violation():
    workload, ctx = tiny("slice_bound")
    reports = workload.run(ctx, workload.inputs(0, 0))
    assert workload.gate(reports) == (20, 0)
    doctored = (dataclasses.replace(reports[0], violations=1), reports[1])
    assert workload.gate(doctored) == (20, 1)


def test_probe_gate_rejects_an_inconclusive_verdict():
    workload, ctx = tiny("gallery_probe")
    est = workload.run(ctx, workload.inputs(0, 0))
    assert workload.gate(est) == (1, 0)
    assert workload.gate(dataclasses.replace(est, verdict="inconclusive")) == (1, 1)


def test_pointwise_gate_rejects_a_moreau_residual_of_1e_9():
    workload, _ = tiny("pointwise")
    K = SecondOrderCone(3)
    x = np.array([0.3, -0.2, 0.1])
    split = projection_engine.moreau_decompose(K, x)
    clean = moreau_residual(split, dual_cone(K))
    doctored = moreau_residual(dataclasses.replace(split, residual=1e-9), dual_cone(K))
    maps = [(0.0, 0)] * 6
    assert workload.gate((np.array([clean]), maps)) == (7, 0)
    assert workload.gate((np.array([doctored]), maps)) == (7, 1)
    assert workload.gate((np.array([clean]), [(2e-12, 0)] + maps[1:])) == (7, 1)


def test_an_instance_that_raises_fails_all_its_outputs():
    class Broken:
        def run(self, ctx, inputs):
            raise FloatingPointError("doctored")

        def n_outputs(self, inputs):
            return 5

    _, _, checked, failed = child._instance(Broken(), None, None)
    assert (checked, failed) == (5, 5)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(WORKLOADS) == run.WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pointwise", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
