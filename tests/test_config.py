"""Every bad config exits 2 with a message naming the key; none escapes."""

import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icicsim import cli
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
    ("scenario.shadowing_cross_corr = 2", "scenario.shadowing_cross_corr"),
    ("scenario.min_bs_dist_m = 5000", "scenario.min_bs_dist_m"),
    ("scenario.sinr_margin_db = nan", "scenario.sinr_margin_db"),
    ("scenario.bandwidth_hz = 0", "scenario.bandwidth_hz"),
    ("scheduler.alpha = inf", "scheduler.alpha"),
    ("icic.quantize_exchange = true\nicic.quant_bits = 2000",
     "icic.quant_bits"),
    ("icic.step_constant = nan", "icic.step_constant"),
    ("scenario.neighbor_mode = bogus", "scenario.neighbor_mode"),
    ("metrics.rmin_grid = nan", "metrics.rmin_grid"),
    ("scenario.noise_per_rb_dbm = inf", "scenario.noise_per_rb_dbm"),
    ("scenario.tilt_deg = nan", "scenario.tilt_deg"),
    ("scenario.users_per_sector = 200000000", "scenario.users_per_sector"),
    # the delay history, not one tensor, is what outgrows memory here
    ("scenario.subframes = 100000000\n"
     "scenario.estimation_delay_subframes = 100000000",
     "scenario.estimation_delay_subframes"),
    # removed coordinator options are unknown keys
    ("icic.keep_best_rounding = false", "icic.keep_best_rounding"),
    ("icic.normalize_weights = false", "icic.normalize_weights"),
    ("icic.init_mode = random", "icic.init_mode"),
    ("icic.init_seed = 4", "icic.init_seed"),
]


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
    assert err.startswith("config error: ") and key in err, err


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
    if f.type is tuple:
        return ["5, 50", "0.01, 0.1", "0", "100", "-1"] + JUNK
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
