"""Every bad config exits 2 with a message naming the key; none escapes."""

import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icicsim import cli, simulate
from icicsim.simulate import _SECTIONS

DESK = """
scenario.sites = 4
scenario.users_per_sector = 2
scenario.rbs = 8
scenario.drops = 1
scenario.subframes = 2
scenario.seed = 23
scenario.k_tilde = 4
scenario.t_c = 30
scheduler.alpha = 2.0
icic.n_iter = 2
run.scheme = proposed
"""

# (extra lines, key the message must name)
PROBES = [
    ("scenario.sites = 5", "scenario.sites"),
    ("scenario.rbs = 2\nrun.scheme = reuse3", "scenario.rbs"),
    ("scenario.rbs = 4\nrun.scheme = pfr", "scenario.rbs"),
    ("scenario.k_tilde = 0", "scenario.k_tilde"),
    ("scenario.sites = 3\nscenario.k_tilde = 3", "scenario.k_tilde"),
    ("scenario.t_c = 0.5", "scenario.t_c"),
    ("scenario.isd_m = nan", "scenario.isd_m"),
    ("scheduler.alpha = inf", "scheduler.alpha"),
    ("icic.quantize_exchange = true\nicic.quant_bits = 2000",
     "icic.quant_bits"),
    ("scenario.users_per_sector = 200000000", "scenario.users_per_sector"),
    # the delay history, not one tensor, is what outgrows memory here
    ("scenario.subframes = 100000000\n"
     "scenario.estimation_delay_subframes = 100000000",
     "scenario.estimation_delay_subframes"),
]
# removed options are unknown keys
REMOVED = [
    ("icic.keep_best_rounding = false", "icic.keep_best_rounding"),
    ("icic.normalize_weights = false", "icic.normalize_weights"),
    ("icic.init_mode = random", "icic.init_mode"),
    ("icic.init_seed = 4", "icic.init_seed"),
    ("scenario.sinr_margin_db = nan", "scenario.sinr_margin_db"),
    ("scenario.refade_each_subframe = false",
     "scenario.refade_each_subframe"),
    # the deployment physics are constants: each key is refused, even at
    # its old default
    ("scenario.shadowing_sigma_db = 8", "scenario.shadowing_sigma_db"),
    ("scenario.shadowing_cross_corr = 0.5", "scenario.shadowing_cross_corr"),
    ("scenario.pathloss_a_db = 15.3", "scenario.pathloss_a_db"),
    ("scenario.pathloss_b_db = 37.6", "scenario.pathloss_b_db"),
    ("scenario.total_bs_power_dbm = 46", "scenario.total_bs_power_dbm"),
    ("scenario.noise_per_rb_dbm = -114.45", "scenario.noise_per_rb_dbm"),
    ("scenario.bandwidth_hz = 10e6", "scenario.bandwidth_hz"),
    ("scenario.min_bs_dist_m = 25", "scenario.min_bs_dist_m"),
    ("scenario.tilt_deg = 12", "scenario.tilt_deg"),
    ("scenario.fast_fading = true", "scenario.fast_fading"),
    # the alpha-fair weights and the 1 / t master step are the only ones
    ("scheduler.mode = linear", "scheduler.mode"),
    ("scheduler.beta = 500", "scheduler.beta"),
    ("icic.step_constant = 0.5", "icic.step_constant"),
    # the wrapped torus and the nearest neighbour sets are the only
    # geometry
    ("scenario.wraparound = false", "scenario.wraparound"),
    ("scenario.neighbor_mode = bogus", "scenario.neighbor_mode"),
]
# a removed section is an unknown section, which the message names
GONE_SECTIONS = [("metrics.rmin_grid = nan", "metrics.rmin_grid")]
PROBES += REMOVED + GONE_SECTIONS


def _simulate(text, out_dir, *flags):
    path = os.path.join(out_dir, "cfg.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return cli.main(["simulate", "--config", path,
                     "--out", os.path.join(out_dir, "out"), *flags])


@pytest.mark.parametrize("extra,key", PROBES, ids=[k for _, k in PROBES])
def test_bad_value_exits_2_naming_key(extra, key, tmp_path, capsys):
    assert _simulate(DESK + extra + "\n", str(tmp_path)) == 2
    err = capsys.readouterr().err
    named = key
    if (extra, key) in GONE_SECTIONS:
        named = f"unknown section {key.split('.')[0]!r}"
    assert err.startswith("config error: ") and named in err, err
    assert ("unknown key" in err) == ((extra, key) in REMOVED), err


# DESK's gain tensor: 12 sectors x 2 users x 8 RBs x 12 sectors, float64
DESK_TENSOR_BYTES = 12 * 2 * 8 * 12 * 8


@pytest.mark.parametrize("tensors, extra, key, named", [
    # the drop's drawn channel and its stacked copy at sub-frame 0: two
    # tensors
    (1.5, "", "scenario.users_per_sector", "2 gain tensors"),
    # room for those two tensors, not for ten kept tensors and one more
    (4, "scenario.subframes = 10\nscenario.estimation_delay_subframes = 9",
     "scenario.estimation_delay_subframes", "keeps 10 gain tensors"),
], ids=["stacked_gains", "delay_history"])
def test_memory_refusals_exit_2(tensors, extra, key, named, tmp_path, capsys,
                                monkeypatch):
    monkeypatch.setattr(simulate, "_physical_memory_bytes",
                        lambda: tensors * DESK_TENSOR_BYTES)
    assert _simulate(DESK + extra + "\n", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert key in err and named in err and "physical memory" in err, err


@pytest.mark.parametrize("flags,key", [
    (("--seed", "-1"), "scenario.seed"),
    (("--scheme", "bogus"), "run.scheme"),
    (("--alpha", "nan"), "scheduler.alpha"),
    (("--niter", "-1"), "icic.n_iter"),
    (("--rho", "0"), "icic.rho"),
])
def test_bad_override_exits_2_naming_key(flags, key, tmp_path, capsys):
    assert _simulate(DESK, str(tmp_path), *flags) == 2
    err = capsys.readouterr().err
    assert "command line" in err and key in err, err


# valid values that keep a run small, for the keys that set its size
SMALL = {
    "scenario.sites": ["1", "3", "4"],
    "scenario.users_per_sector": ["1", "2"],
    "scenario.rbs": ["1", "3", "8"],
    "scenario.drops": ["1"],
    "scenario.subframes": ["1", "3"],
    "icic.n_iter": ["0", "1", "2"],
}
JUNK = ["nan", "inf", "-inf", "x", ""]


def _candidates(f):
    """Raw values for one key: valid, boundary, invalid and junk."""
    checks = f.metadata
    if "choices" in checks:
        return [str(c) for c in checks["choices"]] + ["bogus"] + JUNK
    if f.type is bool:
        return ["true", "false", "maybe"] + JUNK
    bounds = [checks[b] for b in ("ge", "gt", "le", "lt") if b in checks]
    if f.type is int:
        near = [str(int(b) + d) for b in bounds for d in (-1, 0, 1)]
        return [repr(f.default)] + near + ["0", "-1"] + JUNK
    near = [repr(float(b) + d) for b in bounds for d in (-1.0, 0.0, 1.0)]
    return [repr(f.default), "1e308", "-1e308"] + near + JUNK


CANDIDATES = {f"{sec}.{f.name}": _candidates(f)
              for sec, cls in _SECTIONS.items() for f in fields(cls)
              if f.name not in _SECTIONS}
for _key in SMALL:
    CANDIDATES[_key] = SMALL[_key] + ["0", "-1", "2.5"] + JUNK

BASE = """
scenario.sites = 1
scenario.users_per_sector = 1
scenario.rbs = 3
scenario.drops = 1
scenario.subframes = 2
scenario.k_tilde = 2
icic.n_iter = 1
"""


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CANDIDATES)), min_size=1,
                         max_size=4, unique=True))
    return BASE + "".join(
        f"{k} = {draw(st.sampled_from(CANDIDATES[k]))}\n" for k in keys)


@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_texts())
def test_random_configs_exit_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert _simulate(text, tmp) in (0, 2)
