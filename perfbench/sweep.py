"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py [--write perfbench/baseline.json]

Run from the repository root. It runs every workload in BENCHMARK.json with
seeds 0 to SEEDS - 1, and for every workload and metric prints the median,
the quartiles (statistics.quantiles, n=4) and the spread, i.e. the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from BENCHMARK.json. With --write it also stores the
environment and these figures as the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import blas_threads

SEEDS = 10  # runs per workload behind each median and spread


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),  # what run.py sets
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", metavar="PATH", help="store environment and figures")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m: [] for m in bounds}
        for seed in range(SEEDS):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            print(f"{workload} seed {seed}: failed_ratio "
                  f"{result['failed'] / result['attempted']:.4f}, " + ", ".join(
                      f"{m} {metrics[m]['value']:.4g} {metrics[m]['unit']}"
                      for m in bounds), flush=True)
            if not result["correct"] or result["failed"]:
                print(out.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: run was not correct")
            for m in bounds:
                values[m].append(metrics[m]["value"])
        summary[workload] = {}
        for m, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[workload][m] = {"median": statistics.median(vals),
                                    "q1": q1, "q3": q3, "spread": spread,
                                    "runs": len(vals)}
            print(f"  {workload:<14} {m:<12} median {statistics.median(vals):.4g} "
                  f"q1 {q1:.4g} q3 {q3:.4g} spread {spread:.4f} "
                  f"(a third of bound {bounds[m] / 3:.4f})", flush=True)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"environment": environment(),
                       "seeds": SEEDS,
                       "run_seconds": spec["run_seconds"], "workloads": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
