"""One measured process of the benchmark; started by run.py, never by hand.

Usage: child.py ROOT WORKLOAD SEED SECONDS MODE, with MODE one of
``setup`` (build the fixed objects and stop), ``run`` (untraced instances)
or ``trace`` (traced and untraced instances in pairs on the same inputs).
Prints one JSON object on its last line of standard output.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _instance(workload, ctx, inputs):
    """Run one instance; returns (wall_s, cpu_s, checked, failed)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        outputs = workload.run(ctx, inputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        n = workload.n_outputs(inputs)
        return time.perf_counter() - w0, time.process_time() - c0, n, n
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    checked, failed = workload.gate(outputs)
    return wall, cpu, checked, failed


def _traced_instance(tracer, spans, workload, ctx, inputs):
    """Run one instance with the tracer installed; appends its spans."""
    tracer.install()
    try:
        return _instance(workload, ctx, inputs)
    finally:
        tracer.uninstall()
        spans.append(tracer.take())


def measure(workload, ctx, seed: int, seconds: float, trace: bool, minimum: int | None = None):
    """Run instances for ``seconds`` seconds (at least ``minimum``: three, or
    two traced/untraced pairs).  Returns the run record and, when traced, the
    spans of each traced instance."""
    tracer = None
    if trace:
        from spans import Tracer, layer_stats

        tracer = Tracer()
    if minimum is None:
        minimum = 2 if trace else 3
    instances, traced, spans = [], [], []
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        inputs = workload.inputs(seed, i)
        if tracer is None:
            instances.append(_instance(workload, ctx, inputs))
        else:
            # Traced and untraced instances alternate which goes first, so
            # that warm-up effects fall on both sides of trace_overhead.
            for with_trace in (True, False) if i % 2 == 0 else (False, True):
                if with_trace:
                    traced.append(_traced_instance(tracer, spans, workload, ctx, inputs))
                else:
                    instances.append(_instance(workload, ctx, inputs))
        i += 1
    record = {
        "instances": instances,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = layer_stats(tracer.layers, spans)
        record["layer_names"] = tracer.layers
    return record, spans


def main(argv) -> int:
    root, name, seed, seconds, mode = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4]
    src = root / "src"
    sys.path.insert(0, str(src))
    import conelab

    if Path(conelab.__file__).resolve().parent != (src / "conelab").resolve():
        print(f"imported conelab from {conelab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ctx = workload.setup()
    result = {"setup_s": time.perf_counter() - T_START}
    if mode != "setup":
        record, spans = measure(workload, ctx, seed, seconds, mode == "trace")
        result.update(record, environment=_environment())
        if spans:
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            with open(out / f"spans-{name}-{seed}.json", "w") as fh:
                json.dump({"layers": record["layer_names"],
                           "fields": ["layer", "parent", "start", "end", "self", "iters",
                                      "uncertified"],
                           "spans": spans[0]}, fh, default=lambda v: v.item())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
