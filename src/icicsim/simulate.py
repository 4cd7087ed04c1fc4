"""Scenario configuration, the drop/sub-frame Monte Carlo loop, static
reuse baselines, metrics, and CSV emission.

Drops run in groups of consecutive drops, as many as fit GROUP_LANES
(K*N subproblems per drop) in one lockstep round, at least one. A group
is one stacked state with its drops on a leading axis D: each drop draws
its channel (positions, shadowing, fading) from its own streams, and the
group keeps the (D, K, M, K) large-scale gains and a history of
(D, K, M, N, K) gains, this sub-frame's and the past
estimation_delay_subframes ones. Per sub-frame one `refade` call redraws
the group's fading, one `compute_weights` call over the D*K*M users gives
the (D, K, M) weights, and the selected scheme runs: the coordinated one
every rho sub-frames as one lockstep `run_rounds` call on the history's
oldest gains, holding the (D, K, N) blanking in between, or a static
reuse pattern. Each drop then realizes exact rates with its own
`finalize_schedule` call, and one tracker update folds the scheduled
rates of all D*K*M users, flat in drop, sector, user order, back into
the averages. Output rows stay in drop order. Every random draw
descends from the configured seed through per-drop streams, so the
grouping changes no number and identical configs produce identical
output bytes.
"""

import hashlib
import math
import os
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from . import network as nw
# run_coordination is unused here, but perfbench/tracing.py wraps
# `simulate.run_coordination` by name and fails when it is missing; the
# import can go once the tracer wraps run_rounds instead
from .coordinator import (CoordinationProblem, IcicConfig,
                          finalize_schedule, overhead_report,
                          run_coordination, run_rounds)
from .fairsched import AverageRateTracker, WeightPolicy, compute_weights
from .linkadapt import RadioConfig, default_amc_table
from .schema import ConfigError, check_fields, rule, rule_of


SCHEMES = ("proposed", "reuse1", "reuse3", "pfr")
PERCENTILES = (5.0, 50.0, 95.0)     # reported user throughput percentiles
RMIN_GRID = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)  # outage, bit/s/Hz
GROUP_LANES = 1024      # subproblems per lockstep round of a drop group


@dataclass
class ScenarioConfig:
    """Deployment size and run length; the physics and the geometry
    (the wrapped torus, nearest-neighbour coordination sets) are fixed
    by `network`'s IMT-Advanced deployment.

    Under the 25 m masts, isd_m >= 200 keeps the antenna pattern above
    its -20 dB floor in part of every cell, where otherwise the sectors
    of a site tie for every user and the first one wins them all. It
    also keeps the 25 m minimum distance below isd_m / 2, the cell's
    inradius, so the drop area around every site stays open.
    """

    sites: int = rule(4, ge=1)
    users_per_sector: int = rule(2, ge=1)
    rbs: int = rule(6, ge=1)
    isd_m: float = rule(500.0, ge=200, le=1e5)
    drops: int = rule(2, ge=1)
    subframes: int = rule(50, ge=1)
    t_c: float = rule_of(AverageRateTracker, "t_c")
    seed: int = rule(1, ge=0)
    k_tilde: int = rule(6, ge=1)           # clamped to K - 1 at run time
    estimation_delay_subframes: int = rule(0, ge=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SimConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    scheduler: WeightPolicy = field(default_factory=WeightPolicy)
    icic: IcicConfig = field(default_factory=IcicConfig)
    scheme: str = rule("proposed", choices=SCHEMES)

    def __post_init__(self):
        check_fields(self)

    def radio(self):
        p_total = 10 ** ((nw.BS_POWER_DBM - 30.0) / 10.0)
        p_n = 10 ** ((nw.NOISE_PER_RB_DBM - 30.0) / 10.0)
        return RadioConfig(p_c_watts=p_total / self.scenario.rbs,
                           p_n_watts=p_n, bandwidth_hz=nw.BANDWIDTH_HZ)

    def canonical_text(self):
        """Every key as a `section.key = value` line, strings bare and
        the rest as repr, so `parse_config` reads it back to this config."""
        items = [(f"{section}.{f.name}", getattr(obj, f.name))
                 for section, obj in (("scenario", self.scenario),
                                      ("scheduler", self.scheduler),
                                      ("icic", self.icic))
                 for f in fields(obj)]
        items.append(("run.scheme", self.scheme))
        return "".join(f"{key} = {v if isinstance(v, str) else repr(v)}\n"
                       for key, v in items)


# config section -> dataclass; "run" holds SimConfig's own keys
_SECTIONS = {"scenario": ScenarioConfig, "scheduler": WeightPolicy,
             "icic": IcicConfig, "run": SimConfig}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _kind(ann):
    name = ann if isinstance(ann, str) else getattr(ann, "__name__", "")
    return {"bool": bool, "int": int, "str": str}.get(name, float)


def _convert(raw, kind, where):
    try:
        if kind is bool:
            return _BOOL[raw.strip().lower()]
        return kind(raw.strip())
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from exc


def _physical_memory_bytes():
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):    # no sysconf here
        return math.inf


def _check_feasible(cfg):
    """Cross-field checks, made at parse time by the code that would
    otherwise fail at run time."""
    sc = cfg.scenario

    def bad(key, value, why):
        return ConfigError(f"{key} = {value!r}: {why}", key=key)

    try:
        nw._cluster_shape(sc.sites)
    except ValueError as exc:
        raise bad("scenario.sites", sc.sites, exc) from None
    k = 3 * sc.sites
    tensor_bytes = k * sc.users_per_sector * sc.rbs * k * 8
    # each drop of a group keeps `kept` gain tensors and, at the peak, one
    # more: at sub-frame 0 its drawn channel beside the stacked copy
    # (refade draws after the oldest is freed)
    group = _drop_group(k * sc.rbs, sc.drops)
    kept = min(sc.subframes, sc.estimation_delay_subframes + 1)
    memory = _physical_memory_bytes()
    if 2 * group * tensor_bytes > memory:
        raise bad("scenario.users_per_sector", sc.users_per_sector,
                  f"with {sc.sites} sites and {sc.rbs} RBs the {group} "
                  f"drops run together hold {2 * group} gain tensors at "
                  f"once, {2 * group * tensor_bytes / 2**30:.1f} GiB, more "
                  f"than physical memory")
    if group * (kept + 1) * tensor_bytes > memory:
        raise bad("scenario.estimation_delay_subframes",
                  sc.estimation_delay_subframes,
                  f"each of the {group} drops run together keeps {kept} "
                  f"gain tensors of {tensor_bytes / 2**20:.1f} MiB and one "
                  f"more at its peak, "
                  f"{group * (kept + 1) * tensor_bytes / 2**30:.1f} GiB in "
                  f"all, more than physical memory")
    if cfg.scheme != "proposed":
        try:
            baseline_reuse(cfg.scheme, k, sc.rbs)
        except ValueError as exc:
            raise bad("scenario.rbs", sc.rbs, exc) from None
    k_tilde = min(sc.k_tilde, k - 1)
    if k * k_tilde % 2:
        raise bad("scenario.k_tilde", sc.k_tilde,
                  f"{k} sectors cannot each have {k_tilde} mutual "
                  f"neighbors (sectors * k_tilde must be even)")


def parse_config(text, path="<config>", overrides=()):
    """Line-oriented `section.key = value`; unknown keys are hard errors.

    overrides: more `section.key = value` lines (the command-line flags),
    applied after the text. Each section is built and checked once.
    """
    kinds = {sec: {f.name: _kind(f.type) for f in fields(cls)
                   if f.name not in _SECTIONS}
             for sec, cls in _SECTIONS.items()}
    values = {sec: {} for sec in _SECTIONS}
    where = {}
    lines = [(f"{path}:{n}", line)
             for n, line in enumerate(text.splitlines(), start=1)]
    lines += [("command line", line) for line in overrides]
    for loc, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{loc}: expected `section.key = value`")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if "." not in key:
            raise ConfigError(f"{loc}: key {key!r} has no section")
        sec, name = key.split(".", 1)
        if sec not in kinds:
            raise ConfigError(f"{loc}: unknown section {sec!r}")
        if name not in kinds[sec]:
            raise ConfigError(f"{loc}: unknown key {key!r}")
        values[sec][name] = _convert(raw, kinds[sec][name], loc)
        where[key] = loc

    def build(sec, **parts):
        try:
            return _SECTIONS[sec](**values[sec], **parts)
        except ConfigError as exc:
            raise ConfigError(f"{sec}.{exc}", key=f"{sec}.{exc.key}") from None

    try:
        cfg = build("run", **{sec: build(sec) for sec in _SECTIONS
                              if sec != "run"})
        _check_feasible(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{where.get(exc.key, path)}: {exc}",
                          key=exc.key) from None
    return cfg


def load_config(path, overrides=()):
    with open(path) as fh:
        return parse_config(fh.read(), path=path, overrides=overrides)


# --- static baselines ---

def _band_sizes(total):
    base, rem = divmod(total, 3)
    return [base + 1] * rem + [base] * (3 - rem)


def baseline_reuse(pattern, num_sectors, n_rbs):
    """Static blanking for reuse-1, reuse-3, or partial frequency reuse.

    Classes follow the within-site sector index (k mod 3). Reuse-3 splits
    all RBs into three bands; PFR keeps the first ceil(0.6 N) RBs live
    everywhere and splits the rest reuse-3 style.
    """
    blanking = np.zeros((num_sectors, n_rbs), dtype=np.int8)
    if pattern == "reuse1":
        return blanking
    if pattern not in ("reuse3", "pfr"):
        raise ValueError(f"unknown reuse pattern {pattern!r}")
    if pattern == "reuse3":
        inner = 0
        if n_rbs < 3:
            raise ValueError("reuse-3 needs at least 3 RBs")
    else:
        inner = math.ceil(0.6 * n_rbs)
        if n_rbs - inner < 3:
            raise ValueError("pfr needs at least 3 RBs past the inner band")
    edges = inner + np.cumsum([0] + _band_sizes(n_rbs - inner))
    cls = np.arange(num_sectors) % 3
    for band in range(3):
        blanking[cls != band, edges[band]:edges[band + 1]] = 1
    return blanking


# --- metrics ---

@dataclass
class MetricsReport:
    throughput_bps_hz: np.ndarray       # pooled per (drop, user)
    user_sector: np.ndarray             # sector index per pooled user
    user_drop: np.ndarray
    percentiles: dict                   # percent -> bit/s/Hz
    sector_throughput: np.ndarray       # (drops, K) aggregate bit/s/Hz
    outage: list                        # (rmin, probability)
    blanked_pmf: np.ndarray             # (N+1,)
    gap_rows: list                      # dict rows: subframe metrics
    overhead: object                    # OverheadReport
    scheme: str = ""
    fairness_label: str = ""            # e.g. alpha=2.0
    config_text: str = ""
    seeds: tuple = ()

    def cdf(self):
        vals = np.sort(self.throughput_bps_hz.ravel())
        probs = np.arange(1, vals.size + 1) / vals.size
        return vals, probs


def _percentiles(values, percents):
    flat = np.sort(np.asarray(values).ravel())
    return {p: float(np.percentile(flat, p)) for p in percents}


def _drop_group(lanes_per_drop, drops):
    """Drops advanced together: as many as fit GROUP_LANES with their
    K*N lanes, at least one."""
    return min(drops, max(1, GROUP_LANES // lanes_per_drop))


def run_simulation(config):
    """Execute the configured Monte Carlo and aggregate the metrics."""
    sc = config.scenario
    radio = config.radio()
    amc = default_amc_table()
    dims = nw.NetworkDims.uniform(sc.sites, sc.users_per_sector, sc.rbs)
    layout = nw.generate_layout(dims, sc.isd_m)
    k_tilde = min(sc.k_tilde, dims.K - 1)
    nmap = nw.neighbor_map(layout, k_tilde)

    static = None
    if config.scheme != "proposed":
        static = baseline_reuse(config.scheme, dims.K, dims.N)

    n_users = sum(dims.M)
    thr_sum = np.zeros((sc.drops, n_users))    # every user, in sector order
    blank_counts = np.zeros(dims.N + 1)
    gap_rows = []
    overhead = None     # the last round's report, or the static scheme's
    group = _drop_group(dims.K * dims.N, sc.drops)

    for first in range(0, sc.drops, group):
        drops = range(first, min(first + group, sc.drops))
        # each drop draws from its own seeds, so drops advanced side by
        # side get the same numbers as drops run one after another
        seeds = [np.random.SeedSequence(entropy=(sc.seed, d)).spawn(2)
                 for d in drops]
        channels = [nw.draw_channels(layout, dims, nw.ChannelConfig(), radio,
                                     seed=ch)
                    for ch, _ in seeds]
        fade_rngs = [np.random.default_rng(fade) for _, fade in seeds]
        large_scale = np.stack([c.large_scale for c in channels])
        # this and the past estimation_delay_subframes (D, K, M, N, K)
        # gains, oldest first
        history = deque([np.stack([c.gains for c in channels])])
        del channels
        tracker = AverageRateTracker(num_users=len(drops) * n_users,
                                     t_c=sc.t_c)
        # the (D, K, N) blanking each drop schedules under
        held = None if static is None else \
            np.broadcast_to(static, (len(drops), dims.K, dims.N))
        warm = None     # the last round's (D, K, N) fractional blanking
        rows = []
        for t in range(sc.subframes):
            if t > 0:
                if len(history) > sc.estimation_delay_subframes:
                    history.popleft()       # freed before the next is drawn
                history.append(nw.refade(large_scale, dims, fade_rngs))
            weights = compute_weights(config.scheduler, tracker).reshape(
                len(drops), dims.K, -1)

            if static is None and t % config.icic.rho == 0:
                # one lockstep round over the group, on the gains known
                # estimation_delay_subframes sub-frames late
                results = run_rounds(CoordinationProblem(
                    neighbors=nmap, weights=weights, gains=history[0],
                    radio=radio, amc=amc), config.icic, warm)
                held = np.stack([res.blanking for res in results])
                warm = np.stack([res.warm_start for res in results])
                overhead = results[0].overhead
                rows += [{"drop": d, "subframe": t,
                          "rb_set": f"0-{dims.N - 1}",
                          "p_relaxed": res.gap.p_relaxed,
                          "p_hat": res.gap.p_hat,
                          "gap_pct": res.gap.gap_bound_percent,
                          "binary_frac": res.gap.binary_fraction,
                          "prop1_bound": res.gap.binary_guarantee_percent}
                         for d, res in zip(drops, results)]
                np.add.at(blank_counts, held.sum(axis=-1), 1)

            scheduled = np.empty((len(drops), n_users))
            for i in range(len(drops)):
                assigns, rates, _ = finalize_schedule(
                    history[-1][i], weights[i], radio, amc, held[i])
                scheduled[i] = (assigns * rates).reshape(
                    n_users, dims.N).sum(axis=1)
            tracker.update(scheduled.ravel())
            thr_sum[first:drops.stop] += scheduled

        gap_rows += sorted(rows, key=lambda row: row["drop"])
        del history      # before the next group draws its channels

    if static is not None:
        np.add.at(blank_counts, static.sum(axis=1), sc.drops)
        overhead = overhead_report(sc.users_per_sector, k_tilde, dims.N,
                                   config.icic)
    user_thr = thr_sum / sc.subframes * 1e3 / radio.bandwidth_hz
    throughput = user_thr.ravel()
    outage = [(float(rmin), float(np.mean(throughput < rmin)))
              for rmin in RMIN_GRID]
    pmf = blank_counts / blank_counts.sum()

    return MetricsReport(
        throughput_bps_hz=throughput,
        user_sector=np.tile(np.repeat(np.arange(dims.K), dims.M), sc.drops),
        user_drop=np.repeat(np.arange(sc.drops), n_users),
        percentiles=_percentiles(throughput, PERCENTILES),
        sector_throughput=user_thr.reshape(sc.drops, dims.K, -1).sum(axis=2),
        outage=outage,
        blanked_pmf=pmf,
        gap_rows=gap_rows,
        overhead=overhead,
        scheme=config.scheme,
        fairness_label=f"alpha={config.scheduler.alpha}",
        config_text=config.canonical_text(),
        seeds=(sc.seed,),
    )


# --- CSV emission ---

def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_reports(report, out_dir):
    """Write the metric CSVs plus a manifest with the config hash.
    Returns the sorted names of the files written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name, header, rows):
        written.append(name)
        _write_rows(os.path.join(out_dir, name), header, rows)

    write("user_throughput.csv", ["drop", "sector", "throughput_bps_hz"],
          zip(report.user_drop, report.user_sector,
              report.throughput_bps_hz))

    vals, probs = report.cdf()
    write("cdf.csv", ["throughput_bps_hz", "prob"], zip(vals, probs))

    # one fairness-setting point per run; sweep runs concatenate rows
    write("tradeoff.csv",
          ["scheme", "fairness", "cell_edge_bps_hz", "median_bps_hz",
           "cell_center_bps_hz", "aggregate_bps_hz"],
          [(report.scheme, report.fairness_label,
            *(report.percentiles[p] for p in PERCENTILES),
            float(report.sector_throughput.mean()))])

    write("outage.csv", ["rmin_bps_hz", "outage_prob"], report.outage)

    write("blanked_pmf.csv", ["blanked_rbs", "prob"],
          enumerate(report.blanked_pmf))

    write("gaps.csv",
          ["subframe", "rb_set", "p_relaxed", "p_hat", "gap_pct",
           "binary_frac", "prop1_bound"],
          [(r["subframe"], r["rb_set"], r["p_relaxed"], r["p_hat"],
            r["gap_pct"], r["binary_frac"], r["prop1_bound"])
           for r in report.gap_rows])

    ov = report.overhead
    write("overhead.csv",
          ["r_distributed_bps", "r_centralized_bps", "ratio",
           "simulated_values", "simulated_bits"],
          [(ov.r_distributed_bps, ov.r_centralized_bps, ov.ratio,
            ov.simulated_values, ov.simulated_bits)])

    digest = hashlib.sha256(report.config_text.encode()).hexdigest()
    written.append("manifest.txt")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"seeds = {','.join(str(s) for s in report.seeds)}\n")
        fh.write("cdf_pooling = users pooled across drops\n")
        fh.write("--- config ---\n")
        fh.write(report.config_text)
    return sorted(written)
