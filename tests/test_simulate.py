"""Config parsing, baselines, the Monte Carlo loop, CSV emission."""

import os

import numpy as np
import pytest

from icicsim import coordinator, fairsched, lanes, simulate
from icicsim import network as nw
from icicsim.coordinator import finalize_schedule
from icicsim.linkadapt import default_amc_table
from icicsim.simulate import (ConfigError, MetricsReport, baseline_reuse,
                              emit_reports, load_config, parse_config,
                              run_simulation)

SMALL = """
scenario.sites = 4
scenario.users_per_sector = 2
scenario.rbs = 4
scenario.drops = 1
scenario.subframes = 6
scenario.seed = 3
scenario.k_tilde = 4
scheduler.alpha = 1.0
icic.n_iter = 2
run.scheme = proposed
"""


def test_parse_roundtrip_and_overrides():
    cfg = parse_config(SMALL)
    assert cfg.scenario.sites == 4
    assert cfg.scenario.rbs == 4
    assert cfg.icic.n_iter == 2
    assert cfg.scheme == "proposed"
    assert cfg.scheduler.alpha == 1.0


@pytest.mark.parametrize("source",
                         ["desk.cfg", "imt57.cfg", "reuse3_quantized"])
def test_canonical_text_is_a_config(source):
    # the manifest's config block, fed back, gives the same config; the
    # reuse3_quantized case round-trips a non-default string and a bool
    if source == "reuse3_quantized":
        text = SMALL + ("run.scheme = reuse3\n"
                        "icic.quantize_exchange = true\n")
    else:
        path = os.path.join(os.path.dirname(__file__), "..", "demos", source)
        with open(path) as fh:
            text = fh.read()
    cfg = parse_config(text)
    again = parse_config(cfg.canonical_text())
    assert again == cfg
    assert again.canonical_text() == cfg.canonical_text()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=":1"):
        parse_config("scenario.bogus = 3")
    with pytest.raises(ConfigError, match=":2"):
        parse_config("\nnosection = 1")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("nope.key = 1")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("scenario.sites = many")
    with pytest.raises(ConfigError):
        parse_config("run.scheme = sometimes")
    with pytest.raises(ConfigError):
        parse_config("scheduler.alpha = -2")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# hi\n\nscenario.sites = 7  # trailing\n")
    assert cfg.scenario.sites == 7


def test_reuse3_bands_disjoint_and_sized():
    blank = baseline_reuse("reuse3", 12, 50)
    used_counts = sorted((50 - blank.sum(axis=1)).tolist())
    assert used_counts[:4] == [16, 16, 16, 16]
    assert used_counts[-1] == 17
    for n in range(50):
        classes = {k % 3 for k in range(12) if blank[k, n] == 0}
        assert len(classes) == 1       # class-exclusive RBs everywhere


def test_pfr_bands():
    blank = baseline_reuse("pfr", 12, 50)
    inner = blank[:, :30]
    assert np.all(inner == 0)          # 30 inner RBs used in all sectors
    outer_used = 20 - blank[:, 30:].sum(axis=1)
    assert sorted(set(outer_used.tolist())) == [6, 7]
    for n in range(30, 50):
        classes = {k % 3 for k in range(12) if blank[k, n] == 0}
        assert len(classes) == 1


def test_reuse_patterns_pinned():
    # reuse-3 bands 3, 2, 2; PFR keeps 6 inner RBs live and splits 2, 1, 1
    assert baseline_reuse("reuse3", 3, 7).tolist() == [
        [0, 0, 0, 1, 1, 1, 1],
        [1, 1, 1, 0, 0, 1, 1],
        [1, 1, 1, 1, 1, 0, 0]]
    assert baseline_reuse("pfr", 3, 10).tolist() == [
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 1, 1, 0]]
    assert baseline_reuse("pfr", 3, 10).dtype == np.int8


def test_reuse1_all_zero_and_guards():
    assert np.all(baseline_reuse("reuse1", 6, 5) == 0)
    with pytest.raises(ValueError):
        baseline_reuse("reuse3", 6, 2)
    with pytest.raises(ValueError):
        baseline_reuse("pfr", 6, 4)
    with pytest.raises(ValueError):
        baseline_reuse("sfr", 6, 50)


def test_single_subframe_single_user_throughput_identity():
    text = """
scenario.sites = 1
scenario.users_per_sector = 1
scenario.rbs = 3
scenario.drops = 1
scenario.subframes = 1
scenario.seed = 9
scenario.k_tilde = 2
run.scheme = reuse1
"""
    cfg = parse_config(text)
    rep = run_simulation(cfg)

    # rebuild the same channel and recompute by hand
    sc = cfg.scenario
    radio = cfg.radio()
    dims = nw.NetworkDims.uniform(1, 1, 3)
    layout = nw.generate_layout(dims, sc.isd_m)
    chcfg = nw.ChannelConfig()
    root = np.random.SeedSequence(entropy=(sc.seed, 0))
    ch_seed, _ = root.spawn(2)
    chan = nw.draw_channels(layout, dims, chcfg, radio, seed=ch_seed)
    weights = [np.ones(1)] * 3
    _, rates, _ = finalize_schedule(chan.gains, weights, radio,
                                    default_amc_table(),
                                    np.zeros((3, 3), dtype=np.int8))
    for k in range(3):
        expected = rates[k][0].sum() * 1e3 / radio.bandwidth_hz
        got = rep.throughput_bps_hz[rep.user_sector == k][0]
        assert got == pytest.approx(expected, rel=1e-12)


def test_metrics_invariants():
    cfg = parse_config(SMALL)
    rep = run_simulation(cfg)
    assert abs(rep.blanked_pmf.sum() - 1.0) < 1e-12
    probs = [p for _, p in rep.outage]
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    p = rep.percentiles
    assert p[5.0] <= p[50.0] <= p[95.0]
    # accounting identity: per-drop sector throughput is the user sum
    for drop in range(cfg.scenario.drops):
        for k in range(12):
            mask = (rep.user_drop == drop) & (rep.user_sector == k)
            assert rep.sector_throughput[drop, k] == pytest.approx(
                rep.throughput_bps_hz[mask].sum(), rel=1e-12)


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_reports(run_simulation(parse_config(SMALL)), d1)
    emit_reports(run_simulation(parse_config(SMALL)), d2)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_empty_report_headers_only(tmp_path):
    rep = MetricsReport(
        throughput_bps_hz=np.array([]), user_sector=np.array([], dtype=int),
        user_drop=np.array([], dtype=int), percentiles={},
        sector_throughput=np.zeros((0, 0)), outage=[],
        blanked_pmf=np.array([]), gap_rows=[], overhead=None,
        config_text="", seeds=())
    emit_reports(rep, tmp_path)
    for name in ("user_throughput.csv", "cdf.csv", "tradeoff.csv",
                 "outage.csv", "blanked_pmf.csv", "gaps.csv", "overhead.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1, name


GOLDEN_THROUGHPUT = """drop,sector,throughput_bps_hz
0,0,0.25
0,1,0.5
1,0,0.125
1,1,1.0
"""

GOLDEN_OUTAGE = """rmin_bps_hz,outage_prob
0.1,0.0
0.3,0.5
"""

GOLDEN_PMF = """blanked_rbs,prob
0,0.75
1,0.25
"""


def test_golden_files(tmp_path):
    rep = MetricsReport(
        throughput_bps_hz=np.array([0.25, 0.5, 0.125, 1.0]),
        user_sector=np.array([0, 1, 0, 1]),
        user_drop=np.array([0, 0, 1, 1]),
        percentiles={5.0: 0.125, 50.0: 0.375, 95.0: 1.0},
        sector_throughput=np.array([[0.25, 0.5], [0.125, 1.0]]),
        outage=[(0.1, 0.0), (0.3, 0.5)],
        blanked_pmf=np.array([0.75, 0.25]),
        gap_rows=[], overhead=None, config_text="demo", seeds=(1,))
    emit_reports(rep, tmp_path)
    assert (tmp_path / "user_throughput.csv").read_text() == GOLDEN_THROUGHPUT
    assert (tmp_path / "outage.csv").read_text() == GOLDEN_OUTAGE
    assert (tmp_path / "blanked_pmf.csv").read_text() == GOLDEN_PMF
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "config_sha256" in manifest and "seeds = 1" in manifest


def test_baseline_schemes_run():
    for scheme in ("reuse1", "reuse3", "pfr"):
        text = SMALL.replace("run.scheme = proposed",
                             f"run.scheme = {scheme}").replace(
            "scenario.rbs = 4", "scenario.rbs = 8")
        rep = run_simulation(parse_config(text))
        assert rep.throughput_bps_hz.shape == (24,)
        assert np.all(rep.throughput_bps_hz >= 0)


def test_estimation_delay_runs():
    text = SMALL + "scenario.estimation_delay_subframes = 2\n"
    rep = run_simulation(parse_config(text))
    assert rep.throughput_bps_hz.shape == (24,)


def test_rho_holds_blanking():
    text = SMALL.replace("icic.n_iter = 2",
                         "icic.n_iter = 2\nicic.rho = 3")
    rep = run_simulation(parse_config(text))
    # 6 subframes, rho=3: exactly 2 coordinated executions
    assert len(rep.gap_rows) == 2


def test_scheduler_modes():
    # alpha = 0: equal weights, max-SINR scheduling
    rep = run_simulation(parse_config(SMALL + "scheduler.alpha = 0.0\n"))
    assert np.all(np.isfinite(rep.throughput_bps_hz))


def test_full_scale_coordination_smoke():
    # the reference deployment shape: 19 sites, 57 sectors, 50 RBs
    from icicsim.coordinator import CoordinationProblem, IcicConfig, \
        run_coordination
    dims = nw.NetworkDims.uniform(sites=19, users_per_sector=3, n_rbs=10)
    layout = nw.generate_layout(dims, 500.0)
    nmap = nw.neighbor_map(layout, 6)
    cfg = parse_config(SMALL)
    radio = cfg.radio()
    chan = nw.draw_channels(layout, dims, nw.ChannelConfig(), radio, seed=1)
    weights = [np.ones(3) for _ in range(57)]
    prob = CoordinationProblem(neighbors=nmap, weights=weights,
                               gains=chan.gains, radio=radio)
    res = run_coordination(prob, IcicConfig(n_iter=2))
    assert res.blanking.shape == (57, 10)
    assert res.gap.binary_fraction >= res.gap.binary_guarantee_percent / 100
    assert res.realized_objective > 0


def test_scenario_variants_run():
    variants = (
        "icic.runs = 2\n",
        "icic.quantize_exchange = true\nicic.quant_bits = 12\n",
        "scenario.estimation_delay_subframes = 2\n",
    )
    for extra in variants:
        rep = run_simulation(parse_config(SMALL + extra))
        assert np.all(np.isfinite(rep.throughput_bps_hz)), extra
        assert rep.throughput_bps_hz.shape == (24,), extra


# 12 sectors x 8 RBs = 96 lanes per drop: the default GROUP_LANES holds
# all three drops, and 192 holds two, leaving a ragged last group
GROUPED = SMALL.replace("scenario.rbs = 4", "scenario.rbs = 8").replace(
    "scenario.drops = 1", "scenario.drops = 3").replace(
    "scenario.subframes = 6", "scenario.subframes = 4")


def _emitted(text, out_dir):
    emit_reports(run_simulation(parse_config(text)), out_dir)
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("extra", [
    "icic.runs = 2\nicic.rho = 2\nscenario.estimation_delay_subframes = 2\n",
    "icic.quantize_exchange = true\n",
    "run.scheme = reuse3\n",
], ids=["rerun-rho-delay", "quantized", "reuse3"])
def test_drop_grouping_changes_no_byte(extra, tmp_path, monkeypatch):
    text = GROUPED + extra
    default = _emitted(text, tmp_path / "default")
    for group in (1, 192, 10**6):     # groups of one; two and one; three
        monkeypatch.setattr(simulate, "GROUP_LANES", group)
        assert _emitted(text, tmp_path / f"group{group}") == default, group


def test_first_drop_rows_do_not_depend_on_drop_count():
    three = run_simulation(parse_config(GROUPED))
    one = run_simulation(parse_config(
        GROUPED.replace("scenario.drops = 3", "scenario.drops = 1")))
    first = three.user_drop == 0
    assert three.throughput_bps_hz[first].tolist() == \
        one.throughput_bps_hz.tolist()
    assert three.user_sector[first].tolist() == one.user_sector.tolist()
    assert three.sector_throughput[0].tolist() == \
        one.sector_throughput[0].tolist()
    assert [r for r in three.gap_rows if r["drop"] == 0] == one.gap_rows
    assert len(three.gap_rows) == 3 * len(one.gap_rows)


def test_drops_share_one_engine_call_per_pass(monkeypatch):
    # desk.cfg: 2 drops of 96 lanes fit one group, n_iter = 5, rho = 1;
    # each coordinated sub-frame is one lockstep round over both drops
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "desk.cfg")
    cfg = load_config(path, overrides=["scenario.subframes = 6"])
    assert (cfg.scenario.drops, cfg.icic.n_iter, cfg.icic.rho) == (2, 5, 1)
    calls = []
    original = lanes.LaneSet.solve

    def counted(lane_set, own, nbr):
        calls.append(own.shape[0])
        return original(lane_set, own, nbr)

    monkeypatch.setattr(lanes.LaneSet, "solve", counted)
    stacks = []
    triples = coordinator.precompute_rate_triples

    def counted_triples(gains, *args):
        stacks.append(gains.shape[0])
        return triples(gains, *args)

    monkeypatch.setattr(coordinator, "precompute_rate_triples",
                        counted_triples)
    run_simulation(cfg)
    # n_iter passes plus the closing pass per sub-frame, one call each,
    # every call over all 2 x 96 lanes
    assert calls == [2 * 96] * ((5 + 1) * 6)
    # one stacked problem per sub-frame: one rate-triple call for both drops
    assert stacks == [2] * 6


@pytest.mark.parametrize("delay", [0, 2])
def test_round_gets_the_array_refade_returned_delay_earlier(delay,
                                                            monkeypatch):
    # desk.cfg: 2 drops in one group, 40 sub-frames, rho = 1; the group
    # is one stacked state, so each sub-frame makes one refade, one
    # weights and one tracker call for both drops, and the round reads
    # the kept array itself, not a copy
    path = os.path.join(os.path.dirname(__file__), "..", "demos", "desk.cfg")
    cfg = load_config(path, overrides=[
        f"scenario.estimation_delay_subframes = {delay}"])
    assert (cfg.scenario.drops, cfg.scenario.subframes) == (2, 40)
    refaded, known, calls = [], [], []

    def spy(owner, name, record):
        original = getattr(owner, name)

        def wrapped(*args):
            out = original(*args)
            record(args, out)
            return out
        monkeypatch.setattr(owner, name, wrapped)

    spy(nw, "refade", lambda args, out: refaded.append(out))
    spy(simulate, "run_rounds", lambda args, out: known.append(args[0].gains))
    spy(simulate, "compute_weights",
        lambda args, out: calls.append(("weights", out.shape)))
    spy(fairsched.AverageRateTracker, "update",
        lambda args, out: calls.append(("update", args[1].shape)))
    run_simulation(cfg)
    users = 2 * 12 * 2
    assert calls == [("weights", (users,)), ("update", (users,))] * 40
    assert len(refaded) == 39 and len(known) == 40
    assert known[0].shape == (2, 12, 2, 8, 12)
    for t, gains in enumerate(known):
        # refade call i draws sub-frame i + 1; before that, sub-frame 0
        assert gains is (refaded[t - delay - 1] if t > delay else known[0])
