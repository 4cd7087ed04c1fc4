"""Exit codes and subcommand behavior of the console entry point."""

from icicsim import cli, coordinator, lanes

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


def test_bad_arguments_exit_2():
    assert cli.main(["simulate"]) == 2
    assert cli.main(["simulate", "--config", "x", "--out", "y",
                     "--scheme", "bogus"]) == 2


def test_verify_quick():
    assert cli.main(["verify", "--quick"]) == 0


def test_gapbench_small(tmp_path, capsys, monkeypatch):
    counts = {"solve_lanes": 0, "bound_objective": 0}
    for owner, name in ((lanes, "solve_lanes"),
                        (coordinator, "bound_objective")):
        def counted(*args, _name=name, _f=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    out = tmp_path / "gaps.csv"
    assert cli.main(["gapbench", "--instances", "4", "--seed", "3",
                     "--out", str(out)]) == 0
    # one runs=2 round per instance (n_iter=5) serves both columns, and
    # the rounds run in lockstep: 5 + 1 + 5 master passes, each one engine
    # call for the whole batch, and 2 * 6 scored roundings per instance
    assert counts == {"solve_lanes": 11, "bound_objective": 4 * 12}
    text = capsys.readouterr().out
    assert "mean_gap_pct" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,runs,gap_pct"
    assert len(lines) == 1 + 8
