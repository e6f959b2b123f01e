#!/usr/bin/env python3
"""Layered benchmark of vismem.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recall-50k --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 measures the end-to-end metrics; --trace 1 makes a traced run and
reports the per-layer metrics. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs each workload in its own process,
one after another, and prefixes each metric with its workload's name.

The library is imported from src/ of the same checkout; without it the
benchmark exits with code 2 before printing a result. Bank and index files
go to .perfbench_work/ and are removed at the end; a JSON record of each run
(environment, metrics, sample counts and, for traced runs, every span) goes
to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("recall-50k", "scene-22k", "loo-dense")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Run BLAS and OpenMP single-threaded; must run before numpy is imported.

    Ops make only small BLAS calls, and idle OpenBLAS workers spin: with two
    threads an op used about 1.5x its wall time in CPU and was preempted
    tens of times, which made latencies swing with the machine's other load.
    Set-up, the only part with large matrix products, took at most about 15%
    longer on one thread. Returns the CPU count, which is recorded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu": cpu_model(),
    }


def run_one(args) -> int:
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import vismem

    if Path(vismem.__file__).resolve().parent != ROOT / "src" / "vismem":
        print(f"error: imported vismem from {vismem.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import harness

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = harness.run_traced if args.trace else harness.run_untraced
        result, details = run(args.workload, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(nproc)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "environment": env, "result": result,
                                  "details": details}, indent=1))

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed (failed_frac "
          f"{result['failed'] / max(result['attempted'], 1):.4g})")
    if not args.trace:
        print(f"# latency_tail_ms is p{details['latency_tail_percentile']:.1f} of "
              f"{details['latency_samples']} samples; setup_s is the median of "
              f"{len(details['setup_s_samples'])}, load_s the median of "
              f"{len(details['load_s_samples'])}")
        print(f"# times are scaled to a probe time of {details['probe_ref_ms']:g} ms; "
              f"this run's probe median was {details['probe_median_ms']:.4g} ms; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in details["raw"].items()))
    elif details["missing_spans"]:
        print(f"# spans omitted, names not found: {', '.join(details['missing_spans'])}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"# record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of vismem.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="op time measured per run (default 18)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vismem" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'vismem'} not found; run from a vismem checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
