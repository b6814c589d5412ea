"""conelab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload gallery_probe --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (``src/conelab`` next to ``bench/``).
Every measurement happens in a fresh child process with the BLAS and OpenMP
pools pinned to one thread; the load is closed-loop and serial, one instance
after another, for ``--seconds`` seconds (at least three instances, or two
traced/untraced pairs).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median, over five fresh processes, of the time to import
  conelab and build the workload's fixed objects (after one untimed process
  has compiled the bytecode and warmed the file cache);
* ``wall_s`` / ``cpu_s``: median wall and user+sys CPU time of one instance,
  from its first call to its verdict;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` runs each instance twice on the same inputs, once with spans
around the calls into conelab's layers (see spans.py) and once without, and
prints the per-layer metrics plus ``trace_overhead`` (traced over untraced
median wall time).  The spans of the first traced instance are written to
``.bench_out/spans-<workload>-<seed>.json``.

Every instance's outputs go through the workload's correctness gate; an
instance that raises counts all its outputs as failed and the run goes on.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is not
0, and no result is printed, when a process fails or the run overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gallery_probe", "slice_bound", "pointwise")
SETUP_RUNS = 5
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
STAT_UNITS = {
    "calls": "count", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms",
    "iters": "count", "uncertified": "count",
}
# Layer -> the stats reported for it; every workload reports every one.
LAYERS = {
    "projection_engine.project_hull":
        ("calls", "self_s", "p50_ms", "p90_ms", "iters", "uncertified"),
    "projection_engine.project_conic_generators":
        ("calls", "self_s", "p50_ms", "p90_ms", "uncertified"),
    "projection_engine.project": ("calls", "self_s", "uncertified"),
    "projection_engine.moreau_decompose": ("calls", "self_s"),
    "projection_engine.dykstra_projectors": ("calls", "self_s", "iters"),
    "linalg_core.sym_to_vec": ("calls", "self_s"),
    "linalg_core.vec_to_sym": ("calls", "self_s"),
    "facial_structure.FaceHandle.contains": ("calls", "self_s"),
    "facial_structure.face_projection": ("calls", "self_s"),
    "facial_structure.is_exposed": ("calls", "self_s"),
    "cone_algebra.sample_points": ("calls", "self_s"),
    "cone_algebra.membership": ("calls", "self_s"),
    "proj_exposed.build_rank_one_projection": ("calls", "self_s"),
    "proj_exposed.build_rank_two_projection": ("calls", "self_s"),
    "gallery.curve_cloud": ("calls", "self_s"),
    "amenability_probe.estimate_kappa": ("calls", "self_s"),
    "amenability_probe.project": ("calls",),
    "hull_constants.verify_slice_bound": ("calls", "self_s"),
}


def per_layer_units() -> dict:
    units = {
        f"{layer}.{stat}": STAT_UNITS[stat]
        for layer, stats in LAYERS.items() for stat in stats
    }
    units["trace_overhead"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    # The children import conelab from this checkout only, and may write
    # bytecode, so that the warm-up process compiles it for the timed ones.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), workload, str(seed),
           str(seconds), mode]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process overran the {DEADLINE_S:.0f} s limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarise(main: dict, setups: list[float], trace: bool) -> dict:
    """The result line of a run from the measuring child's record and the
    set-up times of every child."""
    runs = main["instances"] + main["traced"]
    attempted = sum(r[2] for r in runs)
    failed = sum(r[3] for r in runs)
    wall = statistics.median(r[0] for r in main["instances"])
    if trace:
        units = per_layer_units()
        values = {
            f"{layer}.{stat}": main["layers"][layer][stat]
            for layer, stats in LAYERS.items() for stat in stats
        }
        values["trace_overhead"] = statistics.median(r[0] for r in main["traced"]) / wall
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(r[1] for r in main["instances"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result line, run record)."""
    if not (ROOT / "src" / "conelab" / "__init__.py").is_file():
        raise BenchError(f"no conelab sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    _child(workload, seed, seconds, "setup", deadline)  # bytecode and file-cache warm-up
    setups = [_child(workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    main = _child(workload, seed, seconds, "trace" if trace else "run", deadline)
    setups.append(main["setup_s"])

    result = summarise(main, setups, trace)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "instances": len(main["instances"]),
        "fail_frac": result["failed"] / result["attempted"],
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        **main["environment"],
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("run " + json.dumps(record))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac {record['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} checked outputs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
