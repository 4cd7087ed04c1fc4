"""The four benchmark workloads, driven through icicsim's public API.

Each workload turns the benchmark seed into its inputs in ``setup``
(untimed), does its timed work in ``run``, and returns an ``Outcome``:
the checks it made, the quality figures it produced and a digest of
every output byte, so repeats can be compared.

Seed mapping: ``desk_sim``, ``round57`` and ``reuse_sim`` use the seed
as the scenario seed; ``gapbench`` scores the 50 instances with seeds
50*seed .. 50*seed+49. The defaults that reproduce today's CLI output
are seed 23 for ``desk_sim`` (the seed in demos/desk.cfg) and seed 0 for
``gapbench`` (``icicsim gapbench --instances 50``).
"""

import contextlib
import csv
import hashlib
import io
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from icicsim import cli, coordinator, network
from icicsim.simulate import SimConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CFG = os.path.join(REPO, "demos", "desk.cfg")

GAP_INSTANCES = 50
ROUND_SITES, ROUND_USERS, ROUND_RBS, ROUND_KT, ROUND_NITER = 19, 3, 50, 6, 5
REUSE_SUBFRAMES = 1000
PMF_TOL = 1e-12
# p_hat and the exhaustive optimum sum the same terms in different orders,
# so an optimal rounding can read up to ~1e-14 % above the optimum.
GAP_TOL_PCT = 1e-9


@dataclass
class Outcome:
    checks: list = field(default_factory=list)     # (name, passed)
    quality: dict = field(default_factory=dict)
    digest: str = ""
    csv_bytes: int = 0

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))


def _quiet_cli(argv):
    """cli.main with its report lines captured instead of printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest_dir(path):
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        total += len(data) if name.endswith(".csv") else 0
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _SimulateWorkload:
    """``icicsim simulate`` run in-process, CSVs in a scratch directory."""

    unit_starts = ("network.draw_channels", "network.refade")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.reps = 0

    def _argv(self, out_dir):
        raise NotImplementedError

    def run(self):
        self.reps += 1
        out_dir = os.path.join(self.workdir, f"rep{self.reps}")
        self._rc = _quiet_cli(self._argv(out_dir))
        self._out = out_dir

    def outcome(self):
        out = Outcome()
        out.check("exit code 0", self._rc == 0)
        if self._rc != 0:
            return out
        users = _read_csv(os.path.join(self._out, "user_throughput.csv"))
        gaps = _read_csv(os.path.join(self._out, "gaps.csv"))
        pmf = _read_csv(os.path.join(self._out, "blanked_pmf.csv"))
        trade = _read_csv(os.path.join(self._out, "tradeoff.csv"))[0]
        out.check("user_throughput.csv rows", len(users) == self.user_rows)
        out.check("gaps.csv rows", len(gaps) == self.gap_rows)
        out.check("blanked_pmf sums to 1",
                  abs(sum(float(r["prob"]) for r in pmf) - 1.0) <= PMF_TOL)
        out.quality["edge_thr_bps_hz"] = float(trade["cell_edge_bps_hz"])
        out.quality["agg_thr_bps_hz"] = float(trade["aggregate_bps_hz"])
        if gaps:
            out.quality["gap_estimate_pct"] = float(
                np.mean([float(r["gap_pct"]) for r in gaps]))
        out.digest, out.csv_bytes = _digest_dir(self._out)
        shutil.rmtree(self._out)
        return out


class DeskSim(_SimulateWorkload):
    """demos/desk.cfg: 12 sectors x 2 users, 8 RBs, 2 drops x 40 sub-frames."""

    user_rows = 2 * 12 * 2
    gap_rows = 2 * 40

    def setup(self):
        self.cfg = DESK_CFG

    def _argv(self, out_dir):
        return ["simulate", "--config", self.cfg, "--out", out_dir,
                "--seed", str(self.seed)]


class ReuseSim(_SimulateWorkload):
    """Reuse-3 on the 57-sector, 50-RB scenario: no flow solves at all."""

    user_rows = 3 * ROUND_SITES * ROUND_USERS
    gap_rows = 0

    def setup(self):
        self.cfg = os.path.join(self.workdir, "reuse3.cfg")
        with open(self.cfg, "w") as fh:
            fh.write(f"scenario.sites = {ROUND_SITES}\n"
                     f"scenario.users_per_sector = {ROUND_USERS}\n"
                     f"scenario.rbs = {ROUND_RBS}\n"
                     f"scenario.k_tilde = {ROUND_KT}\n"
                     "scenario.drops = 1\n"
                     f"scenario.subframes = {REUSE_SUBFRAMES}\n"
                     f"scenario.seed = {self.seed}\n"
                     "run.scheme = reuse3\n")

    def _argv(self, out_dir):
        return ["simulate", "--config", self.cfg, "--out", out_dir]


class Round57:
    """One coordinated round at paper scale, inputs built in set-up."""

    unit_starts = ("bench.rep",)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        cfg = SimConfig()
        cfg.scenario.rbs = ROUND_RBS
        self.radio = cfg.radio()
        dims = network.NetworkDims.uniform(ROUND_SITES, ROUND_USERS,
                                           ROUND_RBS)
        layout = network.generate_layout(dims, cfg.scenario.isd_m)
        self.nmap = network.neighbor_map(layout, ROUND_KT)
        ch_seed, w_seed = np.random.SeedSequence(self.seed).spawn(2)
        self.channel = network.draw_channels(
            layout, dims, network.ChannelConfig(), self.radio, seed=ch_seed)
        rng = np.random.default_rng(w_seed)
        self.weights = [rng.uniform(0.5, 2.0, m) for m in dims.M]
        self.icic = coordinator.IcicConfig(n_iter=ROUND_NITER)

    def run(self):
        problem = coordinator.CoordinationProblem(
            neighbors=self.nmap, weights=self.weights,
            gains=self.channel.gains, radio=self.radio)
        self._res = coordinator.run_coordination(problem, self.icic)

    def outcome(self):
        res, out = self._res, Outcome()
        blank = np.asarray(res.blanking)
        out.check("blanking is binary", np.isin(blank, (0, 1)).all())
        one_user = all(
            np.isin(a, (0, 1)).all()
            and np.array_equal(a.sum(axis=0), 1 - blank[k])
            for k, a in enumerate(res.assignments))
        out.check("one user per live (sector, RB)", one_user)
        expected = 2 * ROUND_NITER * 3 * ROUND_SITES * ROUND_KT * ROUND_RBS
        out.check("values exchanged = 2 n_iter K Kt N",
                  res.overhead.simulated_values == expected)
        out.quality["objective"] = float(res.realized_objective)
        out.quality["gap_estimate_pct"] = float(res.gap.gap_bound_percent)
        sector_bps = [float((a * r).sum()) * 1e3 / self.radio.bandwidth_hz
                      for a, r in zip(res.assignments, res.exact_rates)]
        out.quality["agg_thr_bps_hz"] = float(np.mean(sector_bps))
        h = hashlib.sha256(blank.tobytes())
        for a in res.assignments:
            h.update(a.tobytes())
        h.update(repr((res.realized_objective, res.gap.p_relaxed,
                       res.gap.p_hat, res.overhead.simulated_values))
                 .encode())
        out.digest = h.hexdigest()
        return out


class GapBench:
    """``icicsim gapbench --instances 50`` scored against exhaustion."""

    unit_starts = ("instances.random_desk_instance",)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.csv = os.path.join(self.workdir, "gapbench.csv")

    def run(self):
        self._rc = _quiet_cli(["gapbench", "--instances", str(GAP_INSTANCES),
                               "--seed", str(GAP_INSTANCES * self.seed),
                               "--out", self.csv])

    def outcome(self):
        out = Outcome()
        out.check("exit code 0", self._rc == 0)
        rows = _read_csv(self.csv)
        out.check("one row per instance and run count",
                  len(rows) == 2 * GAP_INSTANCES)
        gaps = {1: [], 2: []}
        for r in rows:
            g = float(r["gap_pct"])
            gaps[int(r["runs"])].append(g)
            out.check(f"instance {r['instance']} runs {r['runs']}: "
                      "p_hat <= exhaustive optimum", g >= -GAP_TOL_PCT)
        for runs in (1, 2):
            out.quality[f"true_gap_pct.runs{runs}"] = float(
                np.mean(gaps[runs]))
        with open(self.csv, "rb") as fh:
            out.digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(self.csv)
        return out


WORKLOADS = {"desk_sim": DeskSim, "round57": Round57, "gapbench": GapBench,
             "reuse_sim": ReuseSim}
