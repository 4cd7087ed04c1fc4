"""Self-test of the benchmark harness.

  python3 -m pytest perfbench/tests -q       (from the repository root)

Two traced runs of one seed must report identical counts; at the default
seeds the quality figures must match what the icicsim CLI prints
(``simulate --config demos/desk.cfg`` and ``gapbench --instances 50``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(REPO, "src"), BENCH]

import tracing  # noqa: E402

DEFAULT_SEED = {"desk_sim": 23, "round57": 0, "gapbench": 0, "reuse_sim": 0}
SOLVES = {"desk_sim": 46_080, "round57": 17_100, "gapbench": 21_600,
          "reuse_sim": 0}
# 2 * n_iter * K * K_tilde * N per round, times the rounds of the run
VALUES = {"desk_sim": 80 * 2 * 5 * 12 * 4 * 8, "round57": 2 * 5 * 57 * 6 * 50,
          "gapbench": 50 * 3 * 2 * 5 * 12 * 2 * 2, "reuse_sim": 0}
QUALITY = {"desk_sim": {"edge_thr_bps_hz": (0.0675, 4)},
           "gapbench": {"true_gap_pct.runs1": (1.547, 3),
                        "true_gap_pct.runs2": (0.949, 3)}}


def _bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _traced(workload):
    seed = DEFAULT_SEED[workload]
    proc = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(BENCH, "results",
                        f"{workload}-seed{seed}-trace1.json")
    with open(path) as fh:
        return result, json.load(fh)["quality"]


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "share", "bytes")}


@pytest.mark.parametrize("workload", sorted(SOLVES))
def test_traced_counts_repeat_exactly(workload):
    (first, q1), (second, q2) = _traced(workload), _traced(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert _counts(first) == _counts(second)
    assert q1 == q2
    metrics = first["metrics"]
    assert metrics["mcnf.solve.calls"]["value"] == SOLVES[workload]
    assert metrics["coordinator.values_exchanged"]["value"] \
        == VALUES[workload]
    if workload == "gapbench":
        assert metrics["network.drop_candidates"]["value"] == 0
    else:
        assert metrics["network.drop_candidates"]["value"] > 0
    for name, (value, digits) in QUALITY.get(workload, {}).items():
        assert round(q1[name], digits) == value


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "gapbench", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrappers_restored_and_self_time():
    from icicsim import coordinator, mcnf
    from icicsim.instances import random_desk_instance

    originals = (mcnf.solve, coordinator.solve_subproblem,
                 coordinator.Mailbox.post)
    inst = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=1,
                                k_tilde=2, seed=1)
    prob = coordinator.problem_from_instance(inst)
    tracer = tracing.Tracer(("coordinator.run_coordination",))
    with tracing.installed(tracer):
        coordinator.run_coordination(prob, coordinator.IcicConfig(n_iter=2))
    assert (mcnf.solve, coordinator.solve_subproblem,
            coordinator.Mailbox.post) == originals
    totals = tracing.span_totals(tracer)
    calls, total, self_s = totals["coordinator.solve_subproblem"]
    assert calls == 3 * 6 and tracer.lanes == calls
    assert 0.0 < self_s < total
    assert totals["mcnf.solve"][0] == calls
    assert set(tracer.units) == {1}
