"""The slice-bound reports, pinned bit for bit.

slice_bound_reports.json holds, for both clouds of the `slice_bound` check
(the body's conic hull at density 512 and the 40-point shifted polytope) at
seeds 0-4 with 200 samples each, every SliceBoundReport field (floats as
float.hex) and a sha256 of the sampled query points, in the order the bound
visits them. To pin new values after an intended change, run this file as a
script: `PYTHONPATH=src python tests/test_slice_bound_reports.py`.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conelab import ConicHull, SliceSpec, gallery, hull_constants

PINNED = Path(__file__).with_name("slice_bound_reports.json")
SEEDS = range(5)
N_SAMPLES = 200


def _polytope() -> ConicHull:
    pts = np.column_stack([np.random.default_rng(3).normal(2.0, 0.6, size=(40, 4)), np.ones(40)])
    return ConicHull(SliceSpec(e=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), sampler=lambda n: pts))


CLOUDS = {
    "gallery": (lambda: gallery.conic_hull_of_body(512), {"density": 512}),
    "polytope": (_polytope, {"density": 40, "spread": 2.0}),
}


def _pin(value):
    return float(value).hex() if isinstance(value, float) else value


def _report(name: str, seed: int) -> dict:
    """The report's fields and the hash of the points handed to the cone
    projection, each of which is one sampled query."""
    make, kwargs = CLOUDS[name]
    digest = hashlib.sha256()
    solve = hull_constants.project_conic_generators

    def recording(cloud, x, *args, **kw):
        digest.update(np.ascontiguousarray(x, dtype=float).tobytes())
        return solve(cloud, x, *args, **kw)

    hull_constants.project_conic_generators = recording
    try:
        rep = hull_constants.verify_slice_bound(make(), n_samples=N_SAMPLES, seed=seed, **kwargs)
    finally:
        hull_constants.project_conic_generators = solve
    out = {f.name: _pin(getattr(rep, f.name)) for f in dataclasses.fields(rep)}
    out["points_sha256"] = digest.hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CLOUDS)
def test_report_is_pinned(name, seed):
    assert _report(name, seed) == json.loads(PINNED.read_text())[f"{name}/{seed}"]


if __name__ == "__main__":
    pinned = {f"{name}/{seed}": _report(name, seed) for name in CLOUDS for seed in SEEDS}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
