"""icicsim benchmark: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload desk_sim --seed 23 --seconds 24 --trace 0

Run from the repository root. Each run starts fresh worker processes
(perfbench/worker.py) with BLAS threads pinned to 1:

  --trace 0  3 to 9 processes that only set up, then one that sets up
             and repeats the timed part at least twice, and again while
             another repeat fits in --seconds. Prints
             the end-to-end metrics: wall_s (median repeat), setup_s
             (median set-up), peak_rss_mb and checks_passed_share.
  --trace 1  one process that traces set-up and one repeat, after one
             untraced repeat. Prints the per-layer metrics.

Every repeat's outputs are checked (see workloads.py) and must be
byte-identical across repeats and between traced and untraced repeats.
The last stdout line is {"correct", "attempted", "failed", "metrics"};
a results file with the run record goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src", "icicsim")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("desk_sim", "round57", "gapbench", "reuse_sim")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up-only processes besides the timed one: at least SETUP_MIN, and
# more, up to SETUP_MAX, while their set-up times sum to under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, mode, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_done" in report:
        report["setup_s"] = report["setup_done"] - spawned
    return report


def _git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _consistency(report):
    """Checks that repeats agree: same output bytes, same quality."""
    same = len(set(report["digests"])) == 1 \
        and all(q == report["quality"][0] for q in report["quality"])
    return [["repeats byte-identical", same]]


def run(args):
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_VARS})
    if args.trace:
        workers = [_worker(args, "trace", env)]
        setups = []
    else:
        workers = []
        while len(workers) < SETUP_MIN or (
                len(workers) < SETUP_MAX
                and sum(w["setup_s"] for w in workers) < SETUP_BUDGET_S):
            workers.append(_worker(args, "setup", env))
        workers.append(_worker(args, "time", env))
        setups = [w["setup_s"] for w in workers]
    main = workers[-1]
    checks = main["checks"] + _consistency(main)
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in main["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(main["walls"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "checks_passed_share": {
                "value": (attempted - failed) / attempted, "unit": "share"},
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": platform.node(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": main["python"], "numpy": main["numpy"],
        "scipy": main["scipy"], "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "threads": {v: env[v] for v in THREAD_VARS},
        "worker_pids": [w["pid"] for w in workers],
        "walls_s": main["walls"], "setups_s": setups,
        "quality": main["quality"][0] if main["quality"] else {},
        "failed_checks": [n for n, ok in checks if not ok],
        "result": result,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(SRC):
        print(f"icicsim sources not found under {os.path.dirname(SRC)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
