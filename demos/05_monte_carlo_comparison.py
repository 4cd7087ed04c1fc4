#!/usr/bin/env python3
"""Monte Carlo comparison of the coordinated scheme against static reuse.

Runs the same seeded scenario under four schemes and prints the
cell-edge / median / cell-center throughput table plus outage, then
writes the full CSV reports for the coordinated run to a temporary
directory, which is removed on exit.
"""

import tempfile

from icicsim.simulate import emit_reports, parse_config, run_simulation

BASE = """
scenario.sites = 4
scenario.users_per_sector = 2
scenario.rbs = 8
scenario.drops = 2
scenario.subframes = 40
scenario.seed = 23
scenario.k_tilde = 4
scenario.t_c = 30
scheduler.alpha = 2.0
icic.n_iter = 5
"""

reports = {}
for scheme in ("proposed", "reuse1", "reuse3", "pfr"):
    cfg = parse_config(BASE + f"run.scheme = {scheme}\n")
    reports[scheme] = run_simulation(cfg)
    print(f"ran {scheme}")

print(f"\n{'scheme':>10}  {'5th':>8}  {'50th':>8}  {'95th':>8}  "
      f"{'sector agg':>10}   (bit/s/Hz)")
for scheme, rep in reports.items():
    p = rep.percentiles
    agg = rep.sector_throughput.mean()
    print(f"{scheme:>10}  {p[5.0]:8.4f}  {p[50.0]:8.4f}  {p[95.0]:8.4f}  "
          f"{agg:10.4f}")

print("\noutage probability at 0.02 bit/s/Hz:")
for scheme, rep in reports.items():
    out = dict(rep.outage).get(0.02)
    print(f"  {scheme:>10}: {out:.3f}")

with tempfile.TemporaryDirectory(prefix="icicsim_demo_") as out_dir:
    files = emit_reports(reports["proposed"], out_dir)
    # the directory's name is random: print the files, not the path, so
    # the demo's output is the same on every run
    print(f"\ncoordinated-run reports written to a temporary directory: "
          f"{', '.join(files)}")
