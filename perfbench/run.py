#!/usr/bin/env python3
"""switchlab benchmark: run one named workload in one process.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/`` next
to this directory. The run prints an environment stamp, the hash of the
final teacher parameters, the outcome of every output check and every
metric with its unit. Its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The traced run also writes its spans to
``perfbench/out/trace-<workload>-seed<seed>.json``. See README.md.
"""

import time

T0 = time.perf_counter()  # set-up and pipeline times count from here, imports included

import argparse
import json
import os
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the usable cores (or a lower value already set)."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def import_program() -> None:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import switchlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import switchlab from {src}: {exc}")
    if not os.path.abspath(switchlab.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: switchlab was imported from {switchlab.__file__}, not from {src}")


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc, threads = pin_blas_threads()
    import_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import bench  # after the BLAS pin and the import check: loads numpy and switchlab

    if args.workload not in bench.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"work-{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        result = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, T0,
            {"nproc": nproc, "blas_threads": threads, "git_sha": git_sha()},
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in result.values:
            metrics[m["name"]] = {"value": result.values[m["name"]], "unit": m["unit"]}
            print(f"metric {m['name']} = {result.values[m['name']]:.6g} {m['unit']}")
        else:
            print(f"metric {m['name']} absent")
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        result.tracer.write(path, result.stamp)
        print(f"trace written to {os.path.relpath(path, ROOT)} ({len(result.tracer.spans)} spans)")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"process peak RSS at exit {peak:.1f} MiB")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": 0,  # a pipeline command that fails raises: the run ends without a result
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
