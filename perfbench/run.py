"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload drop-heavy --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it measures the per-layer metrics from a traced
run.  Every role runs in a fresh single-threaded worker process, one at a
time.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a worker that
crashes makes the run exit non-zero without printing it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Hard limit on one worker process, in seconds.
WORKER_TIMEOUT = 160
#: Native thread pools pinned to one thread, so a run uses one core.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_worker(role, args):
    """Run one role in a fresh process and return its JSON result."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    command = [sys.executable, os.path.join(HERE, "worker.py"), role,
               args.workload, str(args.seed), str(args.seconds)]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with {done.returncode}")
    return json.loads(lines[-1])


def collect(args):
    """Run the workers of one benchmark run; return (result, extra)."""
    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        worker = run_worker("trace", args)
        values = dict(worker["metrics"])
        values["host.fold_kernel_us"] = worker["fold_kernel_us"]
        extra = {"spans": worker["spans"]}
    else:
        setups = [run_worker("setup", args)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        worker = run_worker("measure", args)
        values = dict(worker["metrics"])
        values["setup_s"] = statistics.median(setups)
        values["ok_frac"] = 1.0 - worker["failed"] / worker["attempted"]
        extra = {"host.fold_kernel_us": worker["fold_kernel_us"],
                 "host_kernel_ms": worker["host_kernel_ms"],
                 "wall_tasks_per_s": worker["wall_tasks_per_s"],
                 "setup_samples_s": setups}
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, extra


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repro benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a smoke-test size")
    args = parser.parse_args(argv)
    try:
        result, extra = collect(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
