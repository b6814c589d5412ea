"""The body projection, pinned bit for bit.

body_projection_reports.json holds a sha256 of the `_project_body` answers
(point bytes, then distance, iterations and certificate gap as float.hex) on
two query sets, the refinement tests' queries and 360 witness points for t in
[0.01, 0.3], at densities 128 and 512 and with 1 and 3 refinement rounds. It
also holds `kappa_hat`, `refine_gain` (as float.hex), `verdict` and the sample
count of `estimate_kappa` on the top disk of body(128), called as the
`gallery_probe` benchmark workload calls it, at seeds 0-4. To pin new values
after an intended change, run this file as a script:
`PYTHONPATH=src python tests/test_body_projection_reports.py`.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conelab import gallery as G
from conelab.amenability_probe import estimate_kappa
from conelab.linalg_core import BoundedRegion

from test_gallery import _refinement_queries

PINNED = Path(__file__).with_name("body_projection_reports.json")
DENSITIES = (128, 512)
ROUNDS = (1, 3)
SEEDS = range(5)

QUERY_SETS = {
    "refinement": _refinement_queries,
    "witness": lambda: np.vstack([G.witness_w(t) for t in np.linspace(0.01, 0.3, 360)]),
}


def _answers_sha256(name: str, density: int, rounds: int) -> str:
    digest = hashlib.sha256()
    for x in QUERY_SETS[name]():
        res = G._project_body(x, density, rounds=rounds)
        digest.update(np.ascontiguousarray(res.point, dtype=float).tobytes())
        digest.update(
            f"{res.distance.hex()} {res.iterations} {float(res.certificate_gap).hex()};".encode()
        )
    return digest.hexdigest()


def _estimate(seed: int) -> dict:
    """estimate_kappa with the gallery_probe workload's arguments for its
    first instance at this seed."""
    body = G.body(128)
    t = float(np.random.default_rng([seed, 0]).uniform(0.02, 0.06))
    est = estimate_kappa(
        body, G.face_disk_top(body),
        BoundedRegion(center=np.array([0.0, 0.0, 1.0]), radius=1.2),
        n_samples=4, sampler_seed=0, refine_from=G.witness_w(t),
        refine_rounds=1, refine_cycles=1,
    )
    return {
        "kappa_hat": float(est.kappa_hat).hex(),
        "refine_gain": float(est.refine_gain).hex(),
        "verdict": est.verdict,
        "n_samples": len(est.samples),
    }


CASES = [f"{n}/{d}/{r}" for n in QUERY_SETS for d in DENSITIES for r in ROUNDS]


@pytest.mark.parametrize("case", CASES)
def test_answers_are_pinned(case):
    name, density, rounds = case.split("/")
    got = _answers_sha256(name, int(density), int(rounds))
    assert got == json.loads(PINNED.read_text())["answers"][case]


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_is_pinned(seed):
    assert _estimate(seed) == json.loads(PINNED.read_text())["estimates"][str(seed)]


if __name__ == "__main__":
    pinned = {
        "answers": {c: _answers_sha256(c.split("/")[0], *map(int, c.split("/")[1:])) for c in CASES},
        "estimates": {str(s): _estimate(s) for s in SEEDS},
    }
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
