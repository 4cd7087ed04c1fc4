"""Exit codes and subcommand behavior of the console entry point."""

import os

import numpy as np
import pytest

from icicsim import cli, coordinator, lanes, simulate

GOOD = """
scenario.sites = 1
scenario.users_per_sector = 2
scenario.rbs = 3
scenario.drops = 1
scenario.subframes = 4
scenario.seed = 2
scenario.k_tilde = 2
run.scheme = reuse1
"""


def test_simulate_ok(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "user_throughput.csv").exists()


def test_simulate_48_sites(tmp_path):
    # 48 = 4^2 + 4*4 + 4^2 is a cluster shape whose sites lie outside
    # a search window of i + j + 2 lattice steps
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD.replace("scenario.sites = 1", "scenario.sites = 48")
                   .replace("reuse1", "reuse3")
                   .replace("subframes = 4", "subframes = 1"))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0


def test_simulate_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD)
    code = cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"),
                     "--scheme", "proposed", "--alpha", "2.0",
                     "--niter", "1", "--rho", "2", "--seed", "5"])
    assert code == 0
    gaps = (tmp_path / "out" / "gaps.csv").read_text().splitlines()
    assert len(gaps) == 3              # 4 subframes at rho=2 -> 2 rows


def test_simulate_config_error(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario.unknown_knob = 3\n")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_simulate_missing_file(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "out")]) == 2


def _never(*args, **kwargs):
    raise AssertionError("the run started despite a bad --out")


def test_simulate_out_beneath_a_file_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "run_simulation", _never)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD)
    (tmp_path / "file").write_text("")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "file" / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and "Traceback" not in err


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root writes through the directory's mode bits")
def test_simulate_read_only_out_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "run_simulation", _never)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GOOD)
    out = tmp_path / "read_only"
    out.mkdir()
    out.chmod(0o500)
    try:
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 2
    finally:
        out.chmod(0o700)
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and "Traceback" not in err


def test_gapbench_out_in_missing_dir_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coordinator, "run_rounds", _never)
    assert cli.main(["gapbench", "--instances", "2",
                     "--out", str(tmp_path / "missing" / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and "Traceback" not in err


def test_bad_arguments_exit_2():
    assert cli.main(["simulate"]) == 2
    assert cli.main(["simulate", "--config", "x", "--out", "y",
                     "--scheme", "bogus"]) == 2


def test_verify_quick():
    assert cli.main(["verify", "--quick"]) == 0


def test_gapbench_small(tmp_path, capsys, monkeypatch):
    calls = {"solve": 0}
    scored = []

    def solve(*args, _f=lanes.LaneSet.solve, **kwargs):
        calls["solve"] += 1
        return _f(*args, **kwargs)

    def bound_objective(weights, triples, blanking, neighbors,
                        _f=coordinator.bound_objective):
        scored.append(np.shape(blanking))
        return _f(weights, triples, blanking, neighbors)

    monkeypatch.setattr(lanes.LaneSet, "solve", solve)
    monkeypatch.setattr(coordinator, "bound_objective", bound_objective)
    out = tmp_path / "gaps.csv"
    assert cli.main(["gapbench", "--instances", "4", "--seed", "3",
                     "--out", str(out)]) == 0
    # one runs=2 round per instance (n_iter=5) serves both columns, and
    # the rounds run in lockstep: 5 + 1 + 5 master passes, each one lane
    # set solve for the whole batch. Each run scores the 6 roundings of all 4
    # instances (12 sectors, 2 RBs) in one call.
    assert calls == {"solve": 11}
    assert scored == [(4, 6, 12, 2)] * 2
    text = capsys.readouterr().out
    assert "mean_gap_pct" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,runs,gap_pct"
    assert len(lines) == 1 + 8


def test_gapbench_seed0_table(capsys):
    # the default run's table: a changed rounding pick moves these digits,
    # last-bit float differences do not
    assert cli.main(["gapbench", "--instances", "50"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["   1         1.547        2.246",
                        "   2         0.949        2.089"]


def test_gapbench_with_nothing_to_improve_exits_0(capsys):
    # one run already reaches the exhaustive optimum (a gap of about
    # -2.4e-14 %), so the re-run cannot improve on it
    assert cli.main(["gapbench", "--instances", "1", "--seed", "9"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[1] for row in rows] == ["-0.000", "-0.000"]


@pytest.mark.parametrize("flag,value", [
    ("--niter", "-1"), ("--niter", "0"), ("--seed", "-1"),
    ("--instances", "0"), ("--instances", "-3")])
def test_gapbench_bad_argument_exits_2(flag, value, tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    assert cli.main(["gapbench", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and flag in err
    bound = 0 if flag == "--seed" else 1
    assert f"{flag} = {value}: must be >= {bound}" in err, err
    assert "Traceback" not in err
    assert not out.exists()
