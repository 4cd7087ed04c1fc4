"""One fresh process of one workload; started by run.py, one JSON line out.

Modes:
  setup  build the inputs, report when set-up ended, exit
  time   set up, then timed repeats: at least MIN_REPS, and more while
         another one fits in the time budget
  trace  set up and one repeat under the tracer, preceded by one untraced
         repeat, so tracing overhead and output equality can be checked
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:                    # before numpy loads BLAS
    os.environ.setdefault(_var, "1")
sys.path[:0] = [os.path.join(REPO, "src"), HERE]
MIN_REPS = 2


def _rep(workload, tracer=None):
    """One timed repeat; the outcome is read back outside the timing."""
    t0 = time.perf_counter()
    if tracer is None:
        workload.run()
    else:
        with tracer.span("bench.rep"):
            workload.run()
    wall = time.perf_counter() - t0
    return wall, workload.outcome()


def _summary(outcomes):
    return {"checks": [[n, ok] for o in outcomes for n, ok in o.checks],
            "quality": [o.quality for o in outcomes],
            "digests": [o.digest for o in outcomes],
            "csv_bytes": [o.csv_bytes for o in outcomes]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"),
                    required=True)
    args = ap.parse_args(argv)

    import numpy as np
    from importlib.metadata import version
    import tracing
    from workloads import WORKLOADS

    os.makedirs(RESULTS, exist_ok=True)
    report = {"pid": os.getpid(), "python": sys.version.split()[0],
              "numpy": np.__version__, "scipy": version("scipy")}
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        if args.mode == "trace":
            tracer = tracing.Tracer(workload.unit_starts)
            with tracing.installed(tracer):
                with tracer.span("bench.setup"):
                    workload.setup()
            untraced_wall, plain = _rep(workload)
            with tracing.installed(tracer):
                traced_wall, traced = _rep(workload, tracer)
            spans = os.path.join(
                RESULTS, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
            tracing.write_spans(tracer, spans)
            layers = tracing.layer_metrics(tracer, traced.csv_bytes,
                                           traced_wall - untraced_wall)
            report.update(_summary([plain, traced]))
            report.update(walls=[untraced_wall, traced_wall], spans=spans,
                          layers={k: [v, u] for k, (v, u) in layers.items()})
        else:
            workload.setup()
            report["setup_done"] = time.monotonic()
            outcomes, walls = [], []
            if args.mode == "time":
                start = time.perf_counter()
                while True:
                    wall, outcome = _rep(workload)
                    walls.append(wall)
                    outcomes.append(outcome)
                    spent = time.perf_counter() - start
                    if len(walls) >= MIN_REPS \
                            and spent + wall > args.seconds:
                        break
            report.update(_summary(outcomes), walls=walls)
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
