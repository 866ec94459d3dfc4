"""Benchmark of the compalg library and CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library is imported from ./src, with
BLAS pinned to one thread in the worker's environment before numpy loads.
Prints a report (environment, the named figures with units, failures) and,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "workloads.py"
WORKLOADS = ("analyze-mix", "iso-pairs", "enumerate", "verify")

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKER_TIMEOUT_S = 170


def bench_env():
    """The worker's environment: BLAS on one thread (two threads halve
    throughput on a two-core host) and the checkout's sources first."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "compalg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args):
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu_model(), "python": platform.python_version(),
            "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
            "src_sha256": source_digest(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def worker(args, *extra):
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def time_setups(args, env, count, times):
    """Append the wall times of `count` fresh interpreters that import compalg
    and build the workload's inputs."""
    for _ in range(count):
        start = perf_counter()
        # with pipes, run() waits on them instead of polling the child's exit
        # status every 50 ms, which would quantize the times
        subprocess.run(worker(args, "--setup-only"), cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=WORKER_TIMEOUT_S)
        times.append(perf_counter() - start)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "compalg" / "__init__.py").is_file():
        print(f"error: no compalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = bench_env()
    try:
        # set-up is timed on both sides of the worker, so that its median
        # samples the host at two moments rather than one
        setups = []
        if not args.trace:
            time_setups(args, env, SETUP_REPEATS // 2, setups)
        proc = subprocess.run(worker(args), cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if not args.trace:
            time_setups(args, env, SETUP_REPEATS - SETUP_REPEATS // 2, setups)
    except (subprocess.SubprocessError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = environment(args) | result["env"]
    metrics = result["metrics"]
    report = result["report"]
    if setups:
        metrics["setup_s"] = report["setup_s"] = [statistics.median(setups), "s"]

    print("env " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in sorted(report.items()):
        print(f"report {name} {fmt(value)} {unit}")
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"layer {name} {fmt(value)} {unit}")
    for message in result["messages"]:
        print(f"failure {message}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
