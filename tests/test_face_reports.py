"""The `conelab face minimal|conjugate|exposed` reports, pinned byte for byte.

face_reports.json holds the stdout of each command for one spec of every
kind with a face calculus (orthant, second-order, PSD, both polyhedral
representations, a product, and a gallery named face), plus the full and
zero faces whose conjugates swap. To pin new bytes after an intended change,
run this file as a script: `PYTHONPATH=src python tests/test_face_reports.py`.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conelab import cli

PINNED = Path(__file__).with_name("face_reports.json")

# name: (spec file text, or a gallery name; --face argument)
SPECS = {
    "orthant": ('{"type": "orthant", "dim": 3}', "1,1,0"),
    "orthant_full": ('{"type": "orthant", "dim": 3}', "1,1,1"),
    "soc": ('{"type": "soc", "dim": 3}', "0.6,0.8,1"),
    "soc_zero": ('{"type": "soc", "dim": 3}', "0,0,0"),
    "psd": ('{"type": "psd", "n": 2}', "1,0,0"),
    "poly_ineq": ('{"type": "polyhedral", "inequalities": [[1,0,0],[0,1,0],[1,1,1]]}', "0,2,1"),
    "poly_gens": (
        '{"type": "polyhedral", "generators": [[1,0,1],[0,1,1],[-1,0,1],[0,-1,1]]}',
        "1,0,1",
    ),
    "product": (
        '{"type": "product", "left": {"type": "orthant", "dim": 2}, '
        '"right": {"type": "soc", "dim": 3}}',
        "1,0,0.6,0.8,1",
    ),
    "gallery": ("cylinder_K_tilde", "seam_ray_top"),
}
KINDS = ("minimal", "conjugate", "exposed")


def _report(name: str, kind: str, tmp: Path) -> str:
    spec, face = SPECS[name]
    if spec.startswith("{"):
        path = tmp / f"{name}.json"
        path.write_text(spec + "\n")
        spec = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["face", kind, "--spec", spec, "--face", face, "--samples", "256"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("kind", KINDS)
def test_face_report_bytes(name, kind, tmp_path):
    expected = json.loads(PINNED.read_text())[f"{name}-{kind}"]
    assert _report(name, kind, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {f"{n}-{k}": _report(n, k, Path(tmp)) for n in SPECS for k in KINDS}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} reports to {PINNED}", file=sys.stderr)
