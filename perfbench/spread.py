"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1, as a share of the median).

  python3 perfbench/spread.py --workload desk_sim --seeds 1 2 3 4 5

Run from the repository root. Uses run_seconds from BENCHMARK.json and
prints one line per run, then one line per metric with its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=REPO, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(seed, json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload} {metric['name']}: median {med:.6g} "
              f"spread {(q3 - q1) / med:.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
