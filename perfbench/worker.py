"""One benchmark role in a fresh process; prints one JSON line.

    python3 perfbench/worker.py setup|measure|trace WORKLOAD SEED SECONDS [--tiny]

``setup`` times, from process start, importing ``repro``, building the
workload and constructing the system up to its first event.  ``measure``
is the untraced run, ``trace`` the traced one (see ``workloads.py``).
Started by ``perfbench/run.py``, which sets the thread variables first.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402

#: Where traced runs write their spans, one file per workload (the last
#: traced run of a workload overwrites it).
TRACE_DIR = os.path.join(ROOT, ".perfbench", "traces")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()

    if args.role == "setup":
        workloads.setup_probe(workload, args.seed)
        result = {"setup_s": time.perf_counter() - _STARTED}
    elif args.role == "measure":
        result = workloads.measure(workload, args.seed, args.seconds)
    else:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{args.workload}.csv.gz")
        if os.path.exists(path):
            os.remove(path)
        result = workloads.trace(workload, args.seed, args.seconds, path)
        result["spans"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
