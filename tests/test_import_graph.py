"""conelab imports numpy alone and loads scipy on the first call that needs it.

Each case runs in a fresh interpreter, because this test process already
holds scipy. The case's last line of output is a JSON object holding the
scipy modules loaded by then.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = """
import json as _json, sys as _sys
_out = dict(globals().get("extra", {}))
_out["scipy"] = sorted(m for m in _sys.modules if m == "scipy" or m.startswith("scipy."))
print(_json.dumps(_out))
"""


def _run_fresh(code: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    out = _run_fresh("import conelab, conelab.cli, conelab.checks, conelab.gallery")
    assert out["scipy"] == []


def test_gallery_probe_loads_no_scipy():
    out = _run_fresh(
        "import numpy as np\n"
        "from conelab import amenability_probe, gallery\n"
        "from conelab.linalg_core import BoundedRegion\n"
        "C = gallery.body(128)\n"
        "est = amenability_probe.estimate_kappa(\n"
        "    C, gallery.face_disk_top(C),\n"
        "    BoundedRegion(center=np.array([0.0, 0.0, 1.0]), radius=1.2),\n"
        "    n_samples=4, refine_from=gallery.witness_w(0.04),\n"
        "    refine_rounds=1, refine_cycles=1)\n"
        "extra = {'verdict': est.verdict}\n"
    )
    assert out["verdict"] == "growth_detected"
    assert out["scipy"] == []


@pytest.mark.parametrize("name", ["sturm", "witness_asymptotics", "det_M", "dual_sum", "moreau"])
def test_numpy_only_checks_load_no_scipy(name):
    out = _run_fresh(
        "from conelab.checks import run_check\n"
        f"extra = {{'passed': run_check({name!r}).passed}}\n"
    )
    assert out["passed"] is True
    assert out["scipy"] == []


def test_cli_project_onto_orthant_loads_no_scipy(tmp_path):
    spec = tmp_path / "orthant3.json"
    spec.write_text('{"type": "orthant", "dim": 3}\n')
    out = _run_fresh(
        "from conelab import cli\n"
        f"extra = {{'code': cli.main(['project', '--spec', {str(spec)!r}, '--point', '1,-2,0'])}}\n"
    )
    assert out["code"] == 0
    assert out["scipy"] == []


def test_conic_hull_projection_loads_scipy_and_matches_nnls():
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    x = np.array([3.0, 1.0, 0.5])
    out = _run_fresh(
        "import numpy as np\n"
        "from conelab import ConicHull, SliceSpec, project\n"
        f"pts = np.array({pts.tolist()!r})\n"
        "K = ConicHull(SliceSpec(e=np.array([0.0, 0.0, 1.0]), sampler=lambda n: pts))\n"
        f"extra = {{'point': project(K, np.array({x.tolist()!r})).point.tobytes().hex()}}\n"
    )
    assert "scipy.optimize" in out["scipy"]
    ref = pts.T @ nnls(pts.T, x, maxiter=3 * pts.shape[0])[0]
    assert not np.allclose(ref, x)  # not a member, so no snap to x
    assert bytes.fromhex(out["point"]) == ref.tobytes()
