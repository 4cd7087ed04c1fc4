"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines.
Criteria 1-2 share one batch of dominant-interference desk instances
(12 sectors, 2 users each, 2 RBs, ring neighbors).
"""

import os
import time

import numpy as np
import pytest

from icicsim import cli
from icicsim import coordinator as co
from icicsim import lanes, oracle
from icicsim.fairsched import local_schedule
from icicsim.instances import random_desk_instance
from icicsim.linkadapt import default_amc_table
from icicsim.simulate import parse_config, run_simulation

N_DESK = 50
DESK_SEED = 1000


@pytest.fixture(scope="module")
def desk_batch():
    t0 = time.time()
    rows = []
    for s in range(N_DESK):
        prob = random_desk_instance(n_sectors=12, users_per_sector=2,
                                    n_rbs=2, k_tilde=2, seed=DESK_SEED + s)
        exh = oracle.exhaustive_bound(prob)
        r1 = co.run_coordination(prob, co.IcicConfig(n_iter=5, runs=1))
        r2 = co.run_coordination(prob, co.IcicConfig(n_iter=5, runs=2))
        rows.append((exh, r1, r2))
    return rows, time.time() - t0


def test_criterion_1_gap_vs_exhaustive_bound(desk_batch):
    rows, elapsed = desk_batch
    gaps1 = [100.0 * (e.value - r1.gap.p_hat) / e.value for e, r1, _ in rows]
    gaps2 = [100.0 * (e.value - r2.gap.p_hat) / e.value for e, _, r2 in rows]
    mean1, mean2 = float(np.mean(gaps1)), float(np.mean(gaps2))
    assert all(g >= -1e-9 for g in gaps1 + gaps2)
    assert mean1 <= 8.0
    assert mean2 < mean1
    assert elapsed < 300.0
    print(f"\nPASS criterion 1: mean true gap {mean1:.2f}% (runs=1, <=8%), "
          f"{mean2:.2f}% (runs=2, strictly lower), {elapsed:.0f}s batch")


def test_criterion_2_certified_gap_converges(desk_batch):
    rows, _ = desk_batch
    after1 = [r1.gap.gap_history[1] for _, r1, _ in rows]
    after5 = [r1.gap.gap_history[5] for _, r1, _ in rows]
    m1, m5 = float(np.mean(after1)), float(np.mean(after5))
    assert m5 <= 5.0
    assert m5 <= m1 + 1e-12
    print(f"PASS criterion 2: mean certified gap after 5 iters {m5:.2f}% "
          f"(<=5%), after 1 iter {m1:.2f}% (monotone improvement)")


def test_criterion_3_binary_share_guarantee():
    configs = [(2, 2, 8), (3, 3, 8), (4, 6, 12)]
    solves = 0
    violations = 0
    worst_margin = np.inf
    for m_bar, k_tilde, k_sec in configs:
        bound = co.binary_share_guarantee(m_bar, k_tilde) / 100.0
        for s in range(34):
            prob = random_desk_instance(
                n_sectors=k_sec, users_per_sector=m_bar, n_rbs=1,
                k_tilde=k_tilde, seed=2000 + 100 * m_bar + s)
            res = oracle.relaxed_lp_solve(prob, 0, tol=1e-6)
            solves += 1
            worst_margin = min(worst_margin, res.binary_fraction - bound)
            if res.binary_fraction < bound - 1e-9:
                violations += 1
    assert solves >= 100
    assert violations == 0
    assert abs(co.binary_share_guarantee(20, 6) - 80.8) < 0.1
    print(f"PASS criterion 3: {solves} converged relaxed solves, "
          f"0 violations, worst margin {worst_margin:.4f}; "
          f"spot value (20,6) -> {co.binary_share_guarantee(20, 6):.2f}%")


def test_criterion_4_flow_equals_enumeration():
    rng = np.random.default_rng(77)
    exact_matches = 0
    for _ in range(500):
        m, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        w = rng.uniform(0.2, 2.0, m)
        r = rng.uniform(0.0, 500.0, m)
        rtil = rng.uniform(0.0, 400.0, (m, kt))
        own = float(rng.integers(0, 2))
        nbr = rng.integers(0, 2, kt).astype(float)
        got = co.solve_subproblem(own, nbr, w, r, rtil)
        ref = oracle.subproblem_enumeration(own, nbr, w, r, rtil)
        assert got.phi == ref[2]
        # the closed form the master loop uses, on the same subproblem
        closed = lanes.LaneSet(w[None], r[None], rtil[None]).solve(
            np.array([own]), nbr[None])
        assert closed.phi[0] == ref[2]
        exact_matches += 1
    from icicsim import mcnf
    slack_checked = 0
    for _ in range(120):
        m, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        net = co.build_subproblem_network(
            float(rng.random()), rng.random(kt), rng.uniform(0.2, 2.0, m),
            rng.uniform(0.0, 500.0, m), rng.uniform(0.0, 400.0, (m, kt)))
        sol = mcnf.solve(net)
        assert mcnf.verify(net, sol, tol=1e-9) == []
        slack_checked += 1
    print(f"PASS criterion 4: {exact_matches} binary subproblems exactly "
          f"matched by the flow solve and the closed form; {slack_checked} "
          f"fractional solves pass 1e-9 slackness")


def test_criterion_5_subgradient_inequality():
    rng = np.random.default_rng(55)
    k_sec = 6
    checked = 0
    for s in range(100):
        prob = random_desk_instance(n_sectors=k_sec, users_per_sector=2,
                                    n_rbs=1, k_tilde=2, seed=3000 + s)
        weights = prob.weights / 100.0
        base = rng.random((k_sec, 1))
        # the flow solve per subproblem, and the closed-form lane pass of
        # the master loop
        lane_set = co._lane_inputs(weights[None], prob.triples.r[None],
                                   prob.triples.rtil[None])

        def lane_pass(blanking):
            lam_eq, lam_nbr, value, _ = co._solve_pass(
                lane_set, prob.neighbors.nbr, blanking[None],
                co.IcicConfig(n_iter=1))
            return value[0], lam_eq[0], lam_nbr[0]

        cuts = []
        for solve in (lambda b: oracle.reference_pass(prob, weights, b),
                      lane_pass):
            v0, le, ln = solve(base)
            cuts.append((solve, v0,
                         co.compute_subgradient(le, ln, prob.neighbors)))
        for _ in range(100):
            probe = rng.random((k_sec, 1))
            for solve, v0, grad in cuts:
                v1 = solve(probe)[0]
                assert v1 <= v0 + float(np.sum(grad * (probe - base))) + 1e-6
            checked += 1
    assert checked == 10_000
    print(f"PASS criterion 5: {checked} subgradient probes, each on the "
          f"flow solve and on the closed form, 0 violations")


def test_criterion_6_credit_set_equivalence():
    for m in (1, 2, 3):
        for kt in (1, 2, 3):
            assert oracle.set_equivalence_check(m, kt), (m, kt)
    print("PASS criterion 6: credit-set equivalence holds for all "
          "(M, K_tilde) up to (3, 3) by full enumeration")


def test_criterion_7_bound_factor_identity():
    rep = oracle.sinr_bound_factor_check(10_000, seed=7)
    assert rep.max_identity_error < 1e-9
    assert rep.bound_violations == 0
    assert rep.exactness_violations == 0
    print(f"PASS criterion 7: {rep.samples} samples, identity error "
          f"{rep.max_identity_error:.2e}, bound never exceeded exact, "
          f"single-blank cases bit-exact")


def test_criterion_8_overhead_ratio():
    rep = co.overhead_report(20, 6, 50, co.IcicConfig(n_iter=5))
    assert f"{rep.ratio:.3g}" == "2.33"
    print(f"PASS criterion 8: exchange-rate ratio {rep.ratio:.4f} -> "
          f"2.33 at (M=20, K_tilde=6, 5 iterations)")


def test_criterion_9_reductions():
    prob = random_desk_instance(n_sectors=9, users_per_sector=3, n_rbs=4,
                                k_tilde=2, seed=4000)
    # the rounded reuse-1 start, scheduled as a coordinated round's
    # blanking is
    blanking = co.round_blanking(np.zeros((9, 4)))
    assert np.all(blanking == 0)
    assignments, exact_rates, _ = co.finalize_schedule(
        prob.gains, prob.weights, prob.radio, prob.amc, blanking)
    for k in range(9):
        direct = local_schedule(prob.weights[k], exact_rates[k],
                                np.zeros(4, dtype=np.int8))
        assert np.array_equal(assignments[k], direct)

    amc = default_amc_table()
    expected = [
        (-np.inf, -6.1, 0.0), (-6.1, -4.1, 35.3), (-4.1, -2.0, 56.4),
        (-2.0, -0.2, 92.4), (-0.2, 1.9, 131.4), (1.9, 3.8, 177.4),
        (3.8, 5.8, 223.1), (5.8, 8.5, 291.6), (8.5, 9.9, 388.4),
        (9.9, 12.5, 418.3), (12.5, 14.8, 544.3), (14.8, 16.1, 648.1),
        (16.1, 17.8, 721.7), (17.8, np.inf, 807.4)]
    assert len(amc) == 14
    for (lo, hi, rate) in expected:
        mid = hi - 0.05 if np.isfinite(hi) else lo + 1.0
        assert amc.rate_db(mid) == rate
    print("PASS criterion 9: zero-blanking run reproduces the local "
          "scheduler bit-for-bit; all 14 lookup rows verified")


CONFIG_DETERMINISM = """
scenario.sites = 4
scenario.users_per_sector = 2
scenario.rbs = 4
scenario.drops = 1
scenario.subframes = 8
scenario.seed = 12
scenario.k_tilde = 4
scheduler.alpha = 1.0
icic.n_iter = 3
run.scheme = proposed
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(CONFIG_DETERMINISM)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"PASS criterion 10: repeated CLI run produced byte-identical "
          f"{len(names)} output files")


DESK_SIM = """
scenario.sites = 4
scenario.users_per_sector = 2
scenario.rbs = 4
scenario.drops = 2
scenario.subframes = 60
scenario.seed = 11
scenario.k_tilde = 4
scenario.t_c = 30
icic.n_iter = 5
"""


def test_criterion_11_directional_comparisons():
    for alpha in (1.0, 2.0):
        reports = {}
        for scheme in ("proposed", "reuse1", "reuse3"):
            cfg = parse_config(
                DESK_SIM + f"scheduler.alpha = {alpha}\n"
                           f"run.scheme = {scheme}\n")
            reports[scheme] = run_simulation(cfg)
        p5 = {s: reports[s].percentiles[5.0] for s in reports}
        agg = {s: float(reports[s].sector_throughput.mean())
               for s in reports}
        assert p5["proposed"] >= p5["reuse1"], (alpha, p5)
        assert agg["proposed"] >= agg["reuse3"], (alpha, agg)
        print(f"PASS criterion 11 (alpha={alpha}): cell-edge "
              f"{p5['proposed']:.4f} >= reuse-1 {p5['reuse1']:.4f}; "
              f"aggregate {agg['proposed']:.4f} >= reuse-3 "
              f"{agg['reuse3']:.4f} bit/s/Hz")
