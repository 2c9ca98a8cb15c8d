"""osnrprobe benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload desk_unit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Set-up is timed in fresh
interpreters: with --trace 0 the one that runs the timed work and four that
stop when ready, two before it and two after, median reported. Operation
times are reported by their median over the run, and rows_per_s at that
median (see perfbench/README.md). The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones; the
traced run also writes perfbench/out/<workload>-seed<n>-trace1.json with its
spans and the host facts. Workload and metric names and the metrics' units
come from BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_worker(args, env, setup_only: bool) -> dict:
    """Start a fresh interpreter; return its result with setup_s filled in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("benchmark worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "osnrprobe" / "__init__.py").is_file():
        print(f"no osnrprobe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = worker_env()
    # The set-up-only interpreters run half before and half after the timed
    # one, so the median samples the machine across the whole run.
    extra = 0 if args.trace else SETUPS - 1
    setups = [run_worker(args, env, True)["setup_s"] for _ in range(extra // 2)]
    res = run_worker(args, env, False)
    setups.append(res["setup_s"])
    setups += [run_worker(args, env, True)["setup_s"] for _ in range(extra - extra // 2)]

    if args.trace:
        values = res["per_layer"]
    else:
        op_ms = res["op_ms"]
        p50_ms = statistics.median(op_ms)
        values = {
            "setup_s": statistics.median(setups),
            # A stall of the shared machine lengthens a few operations; the
            # median operation leaves it out, a sum of all would not.
            "rows_per_s": res["rows"] / (len(op_ms) * p50_ms / 1e3 + res["finish_s"]),
            "op_p50_ms": p50_ms,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
