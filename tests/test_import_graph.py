"""conelab imports numpy alone and loads scipy on the first call that needs it:
only the minimisation routes of facial_structure and the gallery's exposing
normals do. Projections, generator cones among them, never load it. Nor do
the numpy-only routes load numpy.ma, which np.unique imports on its first call
(linalg_core.sorted_unique stands in for it).

Each case runs in a fresh interpreter, because this test process already
holds scipy. The case's last line of output is a JSON object holding the
scipy and numpy.ma modules loaded by then.
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
_out["numpy_ma"] = sorted(m for m in _sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
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
    assert out["numpy_ma"] == []


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


def test_conic_hull_projection_loads_no_scipy_and_matches_nnls():
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    x = np.array([3.0, 1.0, 0.5])
    out = _run_fresh(
        "import numpy as np\n"
        "from conelab import ConicHull, SliceSpec, project\n"
        f"pts = np.array({pts.tolist()!r})\n"
        "K = ConicHull(SliceSpec(e=np.array([0.0, 0.0, 1.0]), sampler=lambda n: pts))\n"
        f"extra = {{'point': project(K, np.array({x.tolist()!r})).point.tobytes().hex()}}\n"
    )
    assert out["scipy"] == []
    p = np.frombuffer(bytes.fromhex(out["point"]))
    ref = pts.T @ nnls(pts.T, x)[0]
    assert not np.allclose(ref, x)  # not a member, so no snap to x
    assert abs(np.linalg.norm(x - p) - np.linalg.norm(x - ref)) <= 1e-15
    np.testing.assert_allclose(p, ref, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("cone", ["gallery", "polytope"])
def test_verify_slice_bound_loads_no_scipy(cone):
    out = _run_fresh(
        "import numpy as np\n"
        "from conelab import ConicHull, SliceSpec, gallery\n"
        "from conelab.hull_constants import verify_slice_bound\n"
        "if " + repr(cone) + " == 'gallery':\n"
        "    r = verify_slice_bound(gallery.conic_hull_of_body(512), n_samples=10, density=512, seed=3)\n"
        "else:\n"
        "    pts = np.column_stack([np.random.default_rng(3).normal(2.0, 0.6, size=(40, 4)),\n"
        "                           np.ones(40)])\n"
        "    K = ConicHull(SliceSpec(e=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), sampler=lambda n: pts))\n"
        "    r = verify_slice_bound(K, n_samples=10, density=40, seed=3, spread=2.0)\n"
        "extra = {'kept': r.n_kept, 'violations': r.violations}\n"
    )
    assert out["kept"] > 0 and out["violations"] == 0
    assert out["scipy"] == []
    assert out["numpy_ma"] == []


def test_generator_faces_and_polyhedral_projections_load_no_scipy():
    out = _run_fresh(
        "import numpy as np\n"
        "from conelab import PolyhedralCone, project\n"
        "from conelab.facial_structure import face_projection, minimal_face\n"
        "G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])\n"
        "K = PolyhedralCone(generators=G)\n"
        "F = minimal_face(K, G[0] + G[1])\n"
        "x = np.array([3.0, 1.0, 0.5])\n"
        "extra = {'kind': F.descriptor['kind'], 'in': bool(F.contains(2.0 * G[0] + G[1])),\n"
        "         'out': bool(F.contains(x)), 'proj': face_projection(F, x).tolist(),\n"
        "         'gens': project(K, x).point.tolist(),\n"
        "         'ineq': project(PolyhedralCone(inequalities=G), x).point.tolist()}\n"
    )
    assert out["kind"] == "poly_gens" and out["in"] and not out["out"]
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
    x = np.array([3.0, 1.0, 0.5])
    np.testing.assert_allclose(out["gens"], G.T @ nnls(G.T, x)[0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(out["proj"], [1.75, 0.0, 1.75], rtol=0.0, atol=1e-15)
    assert out["scipy"] == []


# Each case de-duplicates rows: face_sphere_directions (called by the rank-two
# construction on a face without stored generators) and the PSD dual rays.
NUMPY_MA_CASES = {
    "rank_two_projections": (
        "from conelab.checks import _diagonal_psd_face\n"
        "from conelab.cone_algebra import NonnegativeOrthant, PsdCone\n"
        "from conelab.facial_structure import minimal_face\n"
        "from conelab.proj_exposed import build_rank_two_projection\n"
        "K, O = PsdCone(2), NonnegativeOrthant(3)\n"
        "maps = [build_rank_two_projection(K, _diagonal_psd_face(K)),\n"
        "        build_rank_two_projection(O, minimal_face(O, np.array([1.0, 1.0, 0.0])))]\n"
        "extra = {'ok': all(m.certified for m in maps)}\n"
    ),
    "face_sphere_directions": (
        "from conelab.cone_algebra import PsdCone\n"
        "from conelab.facial_structure import minimal_face\n"
        "from conelab.hull_constants import face_sphere_directions\n"
        "from conelab.linalg_core import sym_to_vec\n"
        "F = minimal_face(PsdCone(3), sym_to_vec(np.diag([1.0, 1.0, 0.0])))\n"
        "extra = {'ok': face_sphere_directions(F, 256).shape[1] == 6}\n"
    ),
    "psd_dual_rays": (
        "from conelab.cone_algebra import PsdCone\n"
        "from conelab.proj_exposed import extreme_ray_samples\n"
        "extra = {'ok': extreme_ray_samples(PsdCone(2), 64).shape[1] == 3}\n"
    ),
}


@pytest.mark.parametrize("name", list(NUMPY_MA_CASES))
def test_row_deduplication_loads_no_numpy_ma(name):
    out = _run_fresh("import numpy as np\n" + NUMPY_MA_CASES[name])
    assert out["ok"] is True
    assert out["numpy_ma"] == []


BENCH = SRC.parent / "bench"


@pytest.mark.parametrize("name", ["slice_bound", "pointwise"])
def test_benchmark_instances_load_no_scipy(name):
    # one instance of the workload, set up and gated as the benchmark runs it
    out = _run_fresh(
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from workloads import WORKLOADS\n"
        f"w = WORKLOADS[{name!r}]\n"
        "checked, failed = w.gate(w.run(w.setup(), w.inputs(0, 0)))\n"
        "extra = {'checked': checked, 'failed': failed}\n"
    )
    assert out["checked"] > 0 and out["failed"] == 0
    assert out["scipy"] == []
    assert out["numpy_ma"] == []
