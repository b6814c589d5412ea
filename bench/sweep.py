"""Run the benchmark over several workloads and seeds and summarise it.

    python3 bench/sweep.py --seeds 0 1 2 --trace 0 1 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed, trace mode), one run at a
time, with the ``run_seconds`` of ``BENCHMARK.json``.  For each workload and
metric it prints the median over seeds and the spread, the distance between
the first and third quartiles as a share of the median.  ``--out`` writes the
same summary, each run's environment record included, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance over the median; 0 for a single value."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("run "))[4:])
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        entry = summary["workloads"][workload] = {"attempted": 0, "failed": 0, "runs": []}
        for trace in args.trace:
            values: dict[str, list] = {}
            units = {}
            for seed in args.seeds:
                result, record = one_run(workload, seed, seconds, trace)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["runs"].append(record)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            block = entry["end_to_end" if trace == 0 else "per_layer"] = {}
            for name, vals in values.items():
                block[name] = {
                    "median": statistics.median(vals),
                    "spread": spread(vals),
                    "unit": units[name],
                    "values": vals,
                }
                print(f"{workload:14s} {name:52s} median {block[name]['median']:12.6g} "
                      f"{units[name]:6s} spread {block[name]['spread']:.3f}", flush=True)
        print(f"{workload:14s} failed {entry['failed']} of {entry['attempted']} checked outputs",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
