"""Scenario configuration, the drop/sub-frame Monte Carlo loop, static
reuse baselines, metrics, and CSV emission.

Drops run in groups of consecutive drops, as many as fill one lane-engine
chunk (`lanes.CHUNK`) with their K*N subproblems, at least one. Each drop
of a group draws its channel (positions, shadowing, fading); then the
sub-frames run in order, and per sub-frame every drop refades and updates
its fairness weights, the selected scheme runs (the coordinated one every
rho sub-frames as one lockstep `run_rounds` call over the group's drops,
holding each drop's blanking in between; or a static reuse pattern), and
each drop realizes exact rates and folds the scheduled rates back into
its averages. Output rows stay in drop order. Every random draw descends
from the configured seed through per-drop streams, so the grouping
changes no number and identical configs produce identical output bytes.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import lanes
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


@dataclass
class ScenarioConfig:
    """Deployment, channel and run length.

    Ranges are physical; outside them linear powers overflow or the user
    drop cannot fill every sector. Under the 25 m masts, isd_m >= 200 and
    tilt_deg <= 15 keep the antenna pattern above its -20 dB floor in part
    of every cell, and pathloss_b_db >= 20 (free space) keeps nearer sites
    stronger; otherwise the sectors of a site, or the sites, tie for every
    user and the tie always goes to the same one.
    """

    sites: int = rule(4, ge=1)
    users_per_sector: int = rule(2, ge=1)
    rbs: int = rule(6, ge=1)
    isd_m: float = rule(500.0, ge=200, le=1e5)
    shadowing_sigma_db: float = rule(8.0, ge=0, le=30)
    shadowing_cross_corr: float = rule(0.5, ge=0, le=1)
    pathloss_a_db: float = rule(15.3, ge=0, le=200)
    pathloss_b_db: float = rule(37.6, ge=20, le=100)
    drops: int = rule(2, ge=1)
    subframes: int = rule(50, ge=1)
    t_c: float = rule_of(AverageRateTracker, "t_c")
    seed: int = rule(1, ge=0)
    total_bs_power_dbm: float = rule(46.0, ge=0, le=80)
    noise_per_rb_dbm: float = rule(-114.45, ge=-200, le=0)
    bandwidth_hz: float = rule(10e6, gt=0)
    k_tilde: int = rule(6, ge=1)           # clamped to K - 1 at run time
    neighbor_mode: str = rule("nearest", choices=nw.NEIGHBOR_MODES)
    fast_fading: bool = True
    refade_each_subframe: bool = True
    estimation_delay_subframes: int = rule(0, ge=0)
    sinr_margin_db: float = 0.0
    min_bs_dist_m: float = rule(25.0, ge=0)
    tilt_deg: float = rule(12.0, ge=0, le=15)
    wraparound: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass
class MetricsConfig:
    percentiles: tuple = rule((5.0, 50.0, 95.0), gt=0, lt=100)
    rmin_grid: tuple = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SimConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    scheduler: WeightPolicy = field(default_factory=WeightPolicy)
    icic: IcicConfig = field(default_factory=IcicConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    scheme: str = rule("proposed", choices=SCHEMES)

    def __post_init__(self):
        check_fields(self)

    def radio(self):
        p_total = 10 ** ((self.scenario.total_bs_power_dbm - 30.0) / 10.0)
        p_n = 10 ** ((self.scenario.noise_per_rb_dbm - 30.0) / 10.0)
        return RadioConfig(p_c_watts=p_total / self.scenario.rbs,
                           p_n_watts=p_n,
                           bandwidth_hz=self.scenario.bandwidth_hz)

    def canonical_text(self):
        parts = []
        for section, obj in (("scenario", self.scenario),
                             ("scheduler", self.scheduler),
                             ("icic", self.icic),
                             ("metrics", self.metrics)):
            for f in fields(obj):
                parts.append(f"{section}.{f.name} = {getattr(obj, f.name)!r}")
        parts.append(f"run.scheme = {self.scheme!r}")
        return "\n".join(parts) + "\n"


# config section -> dataclass; "run" holds SimConfig's own keys
_SECTIONS = {"scenario": ScenarioConfig, "scheduler": WeightPolicy,
             "icic": IcicConfig, "metrics": MetricsConfig, "run": SimConfig}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _kind(ann):
    name = ann if isinstance(ann, str) else getattr(ann, "__name__", "")
    return {"tuple": tuple, "bool": bool, "int": int,
            "str": str}.get(name, float)


def _convert(raw, kind, where):
    try:
        if kind is bool:
            return _BOOL[raw.strip().lower()]
        if kind is tuple:
            return tuple(float(v) for v in raw.split(",") if v.strip())
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
    # every drop of a group keeps its channel plus the delay history
    group = _drop_group(k * sc.rbs, sc.drops)
    kept = min(sc.subframes, sc.estimation_delay_subframes + 1)
    memory = _physical_memory_bytes()
    if group * 2 * tensor_bytes > memory:
        raise bad("scenario.users_per_sector", sc.users_per_sector,
                  f"with {sc.sites} sites and {sc.rbs} RBs the "
                  f"{2 * group} gain tensors of {group} drops run together "
                  f"need {group * 2 * tensor_bytes / 2**30:.1f} GiB, more "
                  f"than physical memory")
    if group * (1 + kept) * tensor_bytes > memory:
        raise bad("scenario.estimation_delay_subframes",
                  sc.estimation_delay_subframes,
                  f"each of the {group} drops run together keeps {kept} "
                  f"past gain tensors of {tensor_bytes / 2**20:.1f} MiB "
                  f"besides its channel, "
                  f"{group * (1 + kept) * tensor_bytes / 2**30:.1f} GiB in "
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
    # isd/2 is the cell's inradius: every corner of the hexagon, 9 % of
    # its area, stays open; nearer isd/sqrt(3) the drop runs out of tries
    if not sc.min_bs_dist_m < sc.isd_m / 2:
        raise bad("scenario.min_bs_dist_m", sc.min_bs_dist_m,
                  f"must be < isd_m / 2 = {sc.isd_m / 2:g}")


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
    overhead: object                    # OverheadReport or None
    scheme: str = ""
    fairness_label: str = ""            # e.g. alpha=2.0 or beta=500
    config_text: str = ""
    seeds: tuple = ()

    def cdf(self):
        vals = np.sort(self.throughput_bps_hz.ravel())
        probs = np.arange(1, vals.size + 1) / max(vals.size, 1)
        return vals, probs


def _percentiles(values, percents):
    flat = np.sort(np.asarray(values).ravel())
    if flat.size == 0:
        return {p: 0.0 for p in percents}
    return {p: float(np.percentile(flat, p)) for p in percents}


def _drop_group(lanes_per_drop, drops):
    """Drops advanced together: as many as fill one engine chunk with
    their K*N lanes, at least one."""
    return min(drops, max(1, lanes.CHUNK // lanes_per_drop))


class _Drop:
    """One drop of a group: its channel, random streams and running state.

    Each drop draws from its own seeds, so drops advanced side by side get
    the same numbers as drops run one after another.
    """

    def __init__(self, index, sc, layout, dims, chcfg, radio):
        root = np.random.SeedSequence(entropy=(sc.seed, index))
        ch_seed, fade_seed = root.spawn(2)
        n_users = sum(dims.M)
        self.index = index
        self.channel = nw.draw_channels(layout, dims, chcfg, radio,
                                        seed=ch_seed)
        self.fade_rng = np.random.default_rng(fade_seed)
        self.tracker = AverageRateTracker(num_users=n_users, t_c=sc.t_c)
        self.warm = None
        self.held = np.zeros((dims.K, dims.N), dtype=np.int8)
        self.history = []                 # stale tensors for the delay knob
        self.thr_sum = np.zeros(n_users)  # every user, in sector order
        self.gap_rows = []

    def observe(self, t, sc, dims):
        """Sub-frame t's true channel and the one the scheme knows."""
        tensor = self.channel if (t == 0 or not sc.refade_each_subframe
                                  or not sc.fast_fading) \
            else nw.refade(self.channel, dims, self.fade_rng)
        self.history.append(tensor)
        delay = min(sc.estimation_delay_subframes, len(self.history) - 1)
        known = self.history[-1 - delay]
        if len(self.history) > sc.estimation_delay_subframes + 1:
            self.history.pop(0)
        return tensor, known


def run_simulation(config):
    """Execute the configured Monte Carlo and aggregate the metrics."""
    sc = config.scenario
    radio = config.radio()
    amc = default_amc_table()
    dims = nw.NetworkDims.uniform(sc.sites, sc.users_per_sector, sc.rbs)
    layout = nw.generate_layout(dims, sc.isd_m, tilt_deg=sc.tilt_deg,
                                wraparound=sc.wraparound)
    k_tilde = min(sc.k_tilde, dims.K - 1)
    nmap = nw.neighbor_map(layout, k_tilde, mode=sc.neighbor_mode)
    chcfg = nw.ChannelConfig(
        pathloss_a_db=sc.pathloss_a_db, pathloss_b_db=sc.pathloss_b_db,
        shadowing_sigma_db=sc.shadowing_sigma_db,
        shadowing_cross_corr=sc.shadowing_cross_corr,
        min_bs_dist_m=sc.min_bs_dist_m, fast_fading=sc.fast_fading)

    static = None
    if config.scheme != "proposed":
        static = baseline_reuse(config.scheme, dims.K, dims.N)

    throughput, user_sector, user_drop = [], [], []
    n_users = sum(dims.M)
    sector_thr = np.zeros((sc.drops, dims.K))
    blank_counts = np.zeros(dims.N + 1)
    gap_rows = []
    overhead = None
    group = _drop_group(dims.K * dims.N, sc.drops)

    for first in range(0, sc.drops, group):
        batch = [_Drop(d, sc, layout, dims, chcfg, radio)
                 for d in range(first, min(first + group, sc.drops))]
        for t in range(sc.subframes):
            coordinate = static is None and t % config.icic.rho == 0
            tensors, weights, problems = [], [], []
            for d in batch:
                tensor, known = d.observe(t, sc, dims)
                w = nw.SectorViews(
                    compute_weights(config.scheduler, d.tracker), dims.M)
                tensors.append(tensor)
                weights.append(w)
                if coordinate:
                    problems.append(CoordinationProblem(
                        neighbors=nmap, weights=w, gains=known.gains,
                        radio=radio, amc=amc, margin_db=sc.sinr_margin_db))

            if coordinate:
                # one lockstep round over the group's drops
                results = run_rounds(problems, config.icic,
                                     [d.warm for d in batch])
                for d, res in zip(batch, results):
                    d.warm = res.warm_start
                    d.held = res.blanking
                    overhead = res.overhead
                    d.gap_rows.append({
                        "drop": d.index, "subframe": t,
                        "rb_set": f"0-{dims.N - 1}",
                        "p_relaxed": res.gap.p_relaxed,
                        "p_hat": res.gap.p_hat,
                        "gap_pct": res.gap.gap_bound_percent,
                        "binary_frac": res.gap.binary_fraction,
                        "prop1_bound": res.gap.binary_guarantee_percent})
                    for k in range(dims.K):
                        blank_counts[int(d.held[k].sum())] += 1

            for d, tensor, w in zip(batch, tensors, weights):
                blanking = d.held if static is None else static
                assigns, rates, _ = finalize_schedule(
                    tensor.gains, w, radio, amc, blanking, sc.sinr_margin_db)
                scheduled = (assigns.stacked * rates.stacked).sum(axis=1)
                d.tracker.update(scheduled)
                d.thr_sum += scheduled

        # rows stay in drop order
        for d in batch:
            gap_rows.extend(d.gap_rows)
            user_thr = d.thr_sum / sc.subframes * 1e3 / sc.bandwidth_hz
            throughput.extend(user_thr.tolist())
            user_sector.extend(np.repeat(np.arange(dims.K), dims.M).tolist())
            user_drop.extend([d.index] * n_users)
            sector_thr[d.index] = [float(part.sum()) for part in
                                   nw.SectorViews(user_thr, dims.M)]
            if static is not None:
                for k in range(dims.K):
                    blank_counts[int(static[k].sum())] += 1

    throughput = np.array(throughput)
    outage = [(float(rmin), float(np.mean(throughput < rmin)))
              for rmin in config.metrics.rmin_grid]
    pmf = blank_counts / blank_counts.sum() if blank_counts.sum() > 0 \
        else blank_counts
    if overhead is None:
        overhead = overhead_report(sc.users_per_sector, k_tilde, dims.N,
                                   config.icic)

    fairness = f"alpha={config.scheduler.alpha}" \
        if config.scheduler.mode == "alpha_fair" \
        else f"beta={config.scheduler.beta}"
    return MetricsReport(
        throughput_bps_hz=throughput,
        user_sector=np.array(user_sector),
        user_drop=np.array(user_drop),
        percentiles=_percentiles(throughput, config.metrics.percentiles),
        sector_throughput=sector_thr,
        outage=outage,
        blanked_pmf=pmf,
        gap_rows=gap_rows,
        overhead=overhead,
        scheme=config.scheme,
        fairness_label=fairness,
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
    """Write the metric CSVs plus a manifest with the config hash."""
    os.makedirs(out_dir, exist_ok=True)

    _write_rows(os.path.join(out_dir, "user_throughput.csv"),
                ["drop", "sector", "throughput_bps_hz"],
                zip(report.user_drop, report.user_sector,
                    report.throughput_bps_hz))

    vals, probs = report.cdf()
    _write_rows(os.path.join(out_dir, "cdf.csv"),
                ["throughput_bps_hz", "prob"], zip(vals, probs))

    # one fairness-setting point per run; sweep runs concatenate rows
    trade = []
    if report.throughput_bps_hz.size:
        flat = np.sort(report.throughput_bps_hz.ravel())
        trade.append((report.scheme, report.fairness_label,
                      float(np.percentile(flat, 5)),
                      float(np.percentile(flat, 50)),
                      float(np.percentile(flat, 95)),
                      float(report.sector_throughput.mean())))
    _write_rows(os.path.join(out_dir, "tradeoff.csv"),
                ["scheme", "fairness", "cell_edge_bps_hz", "median_bps_hz",
                 "cell_center_bps_hz", "aggregate_bps_hz"], trade)

    _write_rows(os.path.join(out_dir, "outage.csv"),
                ["rmin_bps_hz", "outage_prob"], report.outage)

    _write_rows(os.path.join(out_dir, "blanked_pmf.csv"),
                ["blanked_rbs", "prob"],
                enumerate(report.blanked_pmf))

    _write_rows(os.path.join(out_dir, "gaps.csv"),
                ["subframe", "rb_set", "p_relaxed", "p_hat", "gap_pct",
                 "binary_frac", "prop1_bound"],
                [(r["subframe"], r["rb_set"], r["p_relaxed"], r["p_hat"],
                  r["gap_pct"], r["binary_frac"], r["prop1_bound"])
                 for r in report.gap_rows])

    ov = report.overhead
    _write_rows(os.path.join(out_dir, "overhead.csv"),
                ["r_distributed_bps", "r_centralized_bps", "ratio",
                 "simulated_values", "simulated_bits"],
                [(ov.r_distributed_bps, ov.r_centralized_bps, ov.ratio,
                  ov.simulated_values, ov.simulated_bits)] if ov else [])

    digest = hashlib.sha256(report.config_text.encode()).hexdigest()
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"seeds = {','.join(str(s) for s in report.seeds)}\n")
        fh.write("cdf_pooling = users pooled across drops\n")
        fh.write("--- config ---\n")
        fh.write(report.config_text)
    return sorted(os.listdir(out_dir))
