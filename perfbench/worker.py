"""One benchmark process: import osnrprobe in a fresh interpreter, set a
workload up, then run its operations for the given number of seconds.

Prints one JSON line on stdout: the monotonic time set-up finished, and
unless --setup-only the run's counts, timings, checks and (with --trace 1)
per-layer metrics. Writes the run's dataset CSVs and a summary (spans and
host facts when traced) under perfbench/out/.
"""

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def host_facts(experiment, workloads) -> dict:
    import numpy
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    fft_param = inspect.signature(experiment.run_dataset).parameters.get("fft_workers")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": workloads.FFT_WORKERS,
        "fft_workers_program_default": None if fft_param is None else fft_param.default,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (import cost is part of set-up)
    import scipy  # noqa: F401
    import osnrprobe
    from osnrprobe import experiment

    if not Path(osnrprobe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"osnrprobe imported from {osnrprobe.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import layertrace
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT / f"{args.workload}-seed{args.seed}")
    wl.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = layertrace.Tracer() if args.trace else None
    op_ms, traced_ms, untraced_ms, walls, digests, failures = [], [], [], [], [], []
    rows = failed = k = 0
    timed_s = 0.0
    # A traced run needs an untraced and a traced operation at least.
    min_ops = wl.min_ops if tracer is None else max(wl.min_ops, 2)
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced operations, so the two
        # medians give the tracing overhead under the same conditions.
        traced = tracer is not None and k % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            span = tracer.open("op")
        try:
            res = wl.op(k, tracer if traced else None)
        except Exception:
            failed += 1
            traceback.print_exc()
            res = None
        finally:
            if traced:
                tracer.close(span)
                tracer.uninstall()
        walls.append(time.perf_counter() - t0)
        if res is not None:
            rows += len(res.rows)
            timed_s += res.timed_s
            op_ms.append(res.timed_s * 1e3)
            (traced_ms if traced else untraced_ms).append(res.timed_s * 1e3)
            if res.csv_sha256:
                digests.append(res.csv_sha256)
            failures += [f"op {k}: {msg}" for msg in res.failures]
        k += 1
        # Stop where another operation would end nearer past the budget
        # than this one ends short of it.
        elapsed = time.perf_counter() - start
        if k >= min_ops and elapsed + statistics.median(walls) / 2 > args.seconds:
            break

    if tracer:
        tracer.install()
    try:
        finish_s, finish_fails, extra = wl.finish()
    finally:
        if tracer:
            tracer.uninstall()
    timed_s += finish_s
    failures += finish_fails
    verify_fails, verify_extra = wl.verify()
    failures += verify_fails
    extra.update(verify_extra)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    result = {
        "ready": ready,
        "attempted": k,
        "failed": failed,
        "correct": not failures and rows > 0,
        "rows": rows,
        "timed_s": timed_s,
        "finish_s": finish_s,
        "op_ms": op_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               **result, "failures": failures, "csv_sha256": digests, **extra}
    if tracer:
        result["per_layer"] = tracer.metrics(len(traced_ms), traced_ms, untraced_ms)
        summary.update(per_layer=result["per_layer"], untraced=tracer.untraced,
                       host=host_facts(experiment, workloads), spans=tracer.span_records())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
