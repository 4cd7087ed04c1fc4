"""Subproblem flow form, duals, master steps, full coordinated rounds."""

from types import SimpleNamespace

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import lanes, mcnf, oracle
from icicsim.fairsched import local_schedule
from icicsim.instances import random_desk_instance
from icicsim.network import ring_neighbor_map


def test_network_counts_match_closed_form():
    # M=2, K_tilde=2: 2 + Kt + M = 6 nodes and (Kt+2)M + Kt = 10 arcs
    net = co.build_subproblem_network(
        0.0, np.array([0.5, 1.0]), np.array([1.0, 2.0]),
        np.array([100.0, 50.0]), np.array([[10.0, 5.0], [20.0, 1.0]]))
    assert net.num_nodes == 6
    assert net.num_arcs == 10


def test_blanked_own_sector_kills_rb_supply():
    net = co.build_subproblem_network(
        1.0, np.array([0.0, 0.0]), np.array([1.0, 2.0]),
        np.array([100.0, 50.0]), np.array([[10.0, 5.0], [20.0, 1.0]]))
    assert net.supply[0] == 0.0


def test_blanking_dominant_interferer_helps_victim():
    prob = random_desk_instance(n_sectors=6, users_per_sector=1, n_rbs=1,
                                k_tilde=2, seed=3, edge_fraction=1.0)
    base = co.finalize_schedule(prob.gains, prob.weights, prob.radio,
                                prob.amc, np.zeros((6, 1), dtype=np.int8))
    # blank user 0's strongest interferer
    victim_gains = prob.gains[0][0, 0]
    dominant = int(np.argsort(victim_gains)[-2])    # strongest non-serving
    blank = np.zeros((6, 1), dtype=np.int8)
    blank[dominant, 0] = 1
    helped = co.finalize_schedule(prob.gains, prob.weights, prob.radio,
                                  prob.amc, blank)
    assert helped[1][0][0, 0] >= base[1][0][0, 0]


def test_network_supplies_balance_for_random_fractional():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, kt = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        net = co.build_subproblem_network(
            float(rng.random()), rng.random(kt), rng.uniform(0.1, 2, m),
            rng.uniform(0, 500, m), rng.uniform(0, 300, (m, kt)))
        assert abs(net.supply.sum()) < 1e-12
        assert net.supply[0] >= 0.0


def test_blanked_sector_schedules_nobody():
    sol = co.solve_subproblem(1.0, np.zeros(2), np.array([1.0]),
                              np.array([100.0]), np.array([[10.0, 5.0]]))
    assert np.all(sol.x == 0.0) and np.all(sol.y == 0.0)
    assert sol.phi == 0.0


def test_no_blanked_neighbors_picks_best_user():
    w = np.array([1.0, 2.0])
    r = np.array([100.0, 80.0])
    sol = co.solve_subproblem(0.0, np.zeros(2), w, r,
                              np.array([[50.0, 9.0], [40.0, 8.0]]))
    assert sol.phi == 160.0
    assert np.all(sol.y == 0.0)
    assert np.array_equal(sol.x, np.array([0.0, 1.0]))


def test_solve_matches_enumeration_binary():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        w = rng.uniform(0.2, 2.0, m)
        r = rng.uniform(0, 500, m)
        rtil = rng.uniform(0, 400, (m, kt))
        own = float(rng.integers(0, 2))
        nbr = rng.integers(0, 2, kt).astype(float)
        got = co.solve_subproblem(own, nbr, w, r, rtil)
        ref = oracle.subproblem_enumeration(own, nbr, w, r, rtil)
        assert got.phi == ref[2]


def test_fractional_blanking_passes_slackness():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m, kt = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        own = float(rng.random())
        nbr = rng.random(kt)
        w = rng.uniform(0.2, 2.0, m)
        r = rng.uniform(0, 500, m)
        rtil = rng.uniform(0, 400, (m, kt))
        net = co.build_subproblem_network(own, nbr, w, r, rtil)
        sol = mcnf.solve(net)
        assert mcnf.verify(net, sol, tol=1e-9) == []


def test_subgradient_arithmetic():
    nmap = ring_neighbor_map(4, 2)      # everyone neighbors everyone else-ish
    lam_eq = np.full((4, 1), 2.0)
    lam_nbr = np.ones((4, 1, 2))
    grad = co.compute_subgradient(lam_eq, lam_nbr, nmap)
    assert np.allclose(grad, 0.0)       # -2 + (1 + 1)
    grad0 = co.compute_subgradient(np.zeros((4, 1)), np.zeros((4, 1, 2)), nmap)
    assert np.array_equal(grad0, np.zeros((4, 1)))


def test_subgradient_missing_dual_is_error():
    # asymmetric: both sectors send to sector 1, so sector 0 hears nobody
    # (NeighborMap itself refuses such a relation)
    fake = SimpleNamespace(nbr=np.array([[1], [1]]))
    with pytest.raises(ValueError):
        co.compute_subgradient(np.zeros((2, 1)), np.zeros((2, 1, 1)), fake)


def test_subgradient_inequality_random_probes():
    rng = np.random.default_rng(3)
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=1,
                                k_tilde=2, seed=17)
    weights = [w / 100.0 for w in prob.weights]
    for _ in range(10):
        i0 = rng.random((6, 1))
        v0, le, ln = oracle.reference_pass(prob, weights, i0)
        grad = co.compute_subgradient(le, ln, prob.neighbors)
        for _ in range(25):
            i1 = rng.random((6, 1))
            v1, _, _ = oracle.reference_pass(prob, weights, i1)
            assert v1 <= v0 + float(np.sum(grad * (i1 - i0))) + 1e-6


def test_master_step_clipping():
    i = np.array([[0.5]])
    assert co.master_step(i, np.zeros((1, 1)), 3, 1.0)[0, 0] == 0.5
    assert co.master_step(np.array([[0.9]]), np.array([[0.8]]), 1, 1.0)[0, 0] == 1.0
    assert co.master_step(np.array([[0.2]]), np.array([[-0.5]]), 1, 1.0)[0, 0] == 0.0
    with pytest.raises(ValueError):
        co.master_step(i, np.zeros((1, 1)), 0, 1.0)


def test_rounding_rule():
    got = co.round_blanking(np.array([0.49, 0.51, 0.5, 0.0, 1.0]))
    assert np.array_equal(got, np.array([0, 1, 1, 0, 1]))
    again = co.round_blanking(got.astype(float))
    assert np.array_equal(again, got)


def test_optimality_gap_formula():
    assert co.optimality_gap(100.0, 100.0) == 0.0
    assert co.optimality_gap(100.0, 96.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        co.optimality_gap(0.0, 1.0)
    with pytest.raises(ValueError):
        co.optimality_gap(-5.0, 1.0)


def test_binary_share_guarantee_values():
    assert co.binary_share_guarantee(20, 6) == pytest.approx(100 * 114 / 141)
    assert abs(co.binary_share_guarantee(20, 6) - 80.8) < 0.1
    assert co.binary_share_guarantee(1, 6) == 0.0
    assert co.binary_share_guarantee(10, 6) == pytest.approx(100 * 54 / 71)
    with pytest.raises(ValueError):
        co.binary_share_guarantee(0.5, 6)


def test_overhead_formulas():
    cfg = co.IcicConfig(n_iter=5, rho=1, quant_bits=16)
    rep = co.overhead_report(20, 6, 50, cfg)
    assert rep.ratio == pytest.approx(140.0 / 60.0)
    assert float(f"{rep.ratio:.3g}") == 2.33
    assert rep.r_distributed_bps == pytest.approx(2 * 5 * 6 * 50 * 16 / 1e-3)
    assert rep.r_centralized_bps == pytest.approx(50 * 20 * 7 * 16 / 1e-3)
    # break-even iteration count: M=12, Kt=6 gives n* = 12*7/(2*6) = 7
    rep_star = co.overhead_report(12, 6, 50, co.IcicConfig(n_iter=7))
    assert rep_star.ratio == pytest.approx(1.0)
    # doubling N doubles both rates, ratio unchanged
    rep2 = co.overhead_report(20, 6, 100, cfg)
    assert rep2.r_distributed_bps == pytest.approx(2 * rep.r_distributed_bps)
    assert rep2.r_centralized_bps == pytest.approx(2 * rep.r_centralized_bps)
    assert rep2.ratio == rep.ratio


@pytest.mark.parametrize("runs", [1, 2])
def test_simulated_exchange_matches_formula(runs):
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=3,
                                k_tilde=2, seed=5)
    cfg = co.IcicConfig(n_iter=4, quant_bits=8, runs=runs)
    res = co.run_coordination(prob, cfg)
    # per iteration of each run every sector sends Kt*N duals and Kt*N
    # blanking values
    expected_values = runs * 2 * cfg.n_iter * 2 * 3 * 6
    assert res.overhead.simulated_values == expected_values
    assert res.overhead.simulated_bits == expected_values * 8


def test_skip_master_reduces_to_uncoordinated():
    prob = random_desk_instance(n_sectors=6, users_per_sector=3, n_rbs=4,
                                k_tilde=2, seed=9)
    res = co.run_coordination(prob, co.IcicConfig(n_iter=0))
    assert np.all(res.blanking == 0)
    for k in range(6):
        direct = local_schedule(prob.weights[k], res.exact_rates[k],
                                np.zeros(4, dtype=np.int8))
        assert np.array_equal(res.assignments[k], direct)


def test_tiny_steps_stay_near_reuse1():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=11)
    res = co.run_coordination(prob, co.IcicConfig(
        n_iter=1, step_constant=1e-9))
    assert np.all(res.blanking == 0)


def test_max_sinr_center_users_stay_reuse1():
    # all cell-center users: blanking has nothing to offer
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=13, edge_fraction=0.0)
    res = co.run_coordination(prob, co.IcicConfig(n_iter=5))
    assert res.blanking.sum() <= 1


def test_gap_report_invariants():
    for seed in range(8):
        prob = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=2,
                                    k_tilde=2, seed=seed)
        res = co.run_coordination(prob, co.IcicConfig(n_iter=5))
        g = res.gap
        assert g.p_relaxed >= g.p_hat - 1e-9
        assert g.gap_bound_percent >= -1e-12
        assert g.binary_guarantee_percent == pytest.approx(
            co.binary_share_guarantee(2, 2))
        hist = g.p_hat_history
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(g.gap_history,
                                                 g.gap_history[1:]))


def test_warm_start_accepted_and_deterministic():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=21)
    first = co.run_coordination(prob, co.IcicConfig(n_iter=3))
    again = co.run_coordination(prob, co.IcicConfig(n_iter=3))
    assert np.array_equal(first.blanking, again.blanking)
    warmed = co.run_coordination(prob, co.IcicConfig(n_iter=3),
                                 warm_start=first.warm_start)
    assert warmed.gap.p_hat >= first.gap.p_hat - 1e-9


def test_two_runs_never_worse_on_bound_objective():
    for seed in range(6):
        prob = random_desk_instance(n_sectors=10, users_per_sector=2,
                                    n_rbs=2, k_tilde=2, seed=40 + seed)
        r1 = co.run_coordination(prob, co.IcicConfig(n_iter=4, runs=1))
        r2 = co.run_coordination(prob, co.IcicConfig(n_iter=4, runs=2))
        assert r2.gap.p_hat >= r1.gap.p_hat - 1e-9
        # gapbench reads its one-run column from the two-run round
        assert r2.gap.p_hat_history[-1] == r1.gap.p_hat


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("runs", [1, 2])
def test_each_pass_and_rounding_computed_once(monkeypatch, runs):
    # equal M_k: one lane group, so one engine call per master pass
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=3)
    counts = {"solve_lanes": 0, "bound_objective": 0, "post": 0}
    _count_calls(monkeypatch, lanes, "solve_lanes", counts)
    _count_calls(monkeypatch, co, "bound_objective", counts)
    _count_calls(monkeypatch, co.Mailbox, "post", counts)
    n = 4
    co.run_coordination(prob, co.IcicConfig(n_iter=n, runs=runs))
    # run 1: n passes plus the closing pass; the re-run has no closing
    # pass. Every rounded iterate is scored once, on the true channel.
    # Only the passes that feed a master step exchange duals: each sector
    # posts to its K_tilde = 2 neighbors.
    passes = {1: n + 1, 2: 2 * n + 1}[runs]
    assert counts == {"solve_lanes": passes,
                      "bound_objective": runs * (n + 1),
                      "post": runs * n * 6 * 2}


def _uneven_problem(seed, n_rbs=2):
    """Six sectors keeping 1, 2 or 3 users: three lane groups."""
    wide = random_desk_instance(n_sectors=6, users_per_sector=3, n_rbs=n_rbs,
                                k_tilde=2, seed=seed)
    keep = [3, 1, 2, 3, 2, 1]
    return co.CoordinationProblem(
        neighbors=wide.neighbors,
        weights=[w[:m] for w, m in zip(wide.weights, keep)],
        gains=[g[:m] for g, m in zip(wide.gains, keep)], radio=wide.radio)


def _batch_problems():
    """Uniform M_k, uneven M_k, other K and N, and K_tilde = 3."""
    shapes = [(6, 2, 3, 2, 81), (8, 2, 2, 2, 82), (4, 3, 5, 2, 83),
              (6, 2, 2, 3, 84)]
    problems = [random_desk_instance(n_sectors=k, users_per_sector=m,
                                     n_rbs=n, k_tilde=kt, seed=seed)
                for k, m, n, kt, seed in shapes]
    problems.insert(1, _uneven_problem(85, n_rbs=3))
    return problems


@pytest.mark.parametrize("config", [
    co.IcicConfig(n_iter=4),
    co.IcicConfig(n_iter=4, runs=2),
    co.IcicConfig(n_iter=3, runs=2, quantize_exchange=True, quant_bits=6),
    co.IcicConfig(n_iter=0, runs=2),
], ids=["runs1", "runs2", "quantized", "no_master"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_batched_rounds_equal_single_rounds(config, warm):
    problems = _batch_problems()
    rng = np.random.default_rng(7)
    warm_starts = [rng.random((pr.K, pr.N)) if warm and p % 2 == 0 else None
                   for p, pr in enumerate(problems)]
    assert oracle.batch_mismatches(problems, config, warm_starts) == []
    # so reversing the batch reverses the results
    assert oracle.batch_mismatches(problems[::-1], config,
                                   warm_starts[::-1]) == []


def test_batch_groups_lanes_by_user_count_and_k_tilde(monkeypatch):
    # K_tilde = 2 problems with M_k in {1, 2, 3} and a K_tilde = 3 problem
    # with M_k = 2: four groups, so four engine calls per master pass,
    # however many problems the batch holds; a different K_tilde gets its
    # own group rather than an error
    counts = {"solve_lanes": 0}
    _count_calls(monkeypatch, lanes, "solve_lanes", counts)
    co.run_rounds(_batch_problems(), co.IcicConfig(n_iter=2, runs=2))
    assert counts["solve_lanes"] == 4 * (2 + 1 + 2)


def test_run_rounds_rejects_mismatched_warm_starts():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=1)
    with pytest.raises(ValueError):
        co.run_rounds([prob, prob], co.IcicConfig(n_iter=1), [None])
    assert co.run_rounds([], co.IcicConfig(n_iter=1)) == []


def test_finalize_respects_blanking():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=3,
                                k_tilde=2, seed=33)
    blank = np.zeros((6, 3), dtype=np.int8)
    blank[2, 1] = 1
    blank[4, 0] = 1
    assigns, rates, obj = co.finalize_schedule(
        prob.gains, prob.weights, prob.radio, prob.amc, blank)
    for k in range(6):
        assert np.array_equal(assigns[k].sum(axis=0), 1 - blank[k])
    assert obj > 0


def test_quantized_exchange_toggle():
    prob = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=61)
    full = co.run_coordination(prob, co.IcicConfig(n_iter=4))
    fine = co.run_coordination(prob, co.IcicConfig(
        n_iter=4, quantize_exchange=True, quant_bits=24))
    coarse = co.run_coordination(prob, co.IcicConfig(
        n_iter=4, quantize_exchange=True, quant_bits=3))
    # ample resolution reproduces the full-precision outcome
    assert np.array_equal(fine.blanking, full.blanking)
    assert fine.gap.p_hat == pytest.approx(full.gap.p_hat, rel=1e-9)
    # a 3-bit exchange still yields a feasible coordinated schedule
    assert coarse.gap.p_hat > 0
    assert set(np.unique(coarse.blanking)) <= {0, 1}


def _first_direction(monkeypatch, prob, config, blanking):
    """The ascent direction of the first master iteration from `blanking`."""
    seen = []
    step = co.master_step

    def spy(i_mat, grad, iteration, step_constant):
        seen.append(grad)
        return step(i_mat, grad, iteration, step_constant)

    monkeypatch.setattr(co, "master_step", spy)
    groups = co._lane_groups([prob], [prob.weights], [prob.triples])
    co._subgradient_run([prob], groups, config, [blanking])
    monkeypatch.setattr(co, "master_step", step)
    return seen[0]


def test_exchange_pass_matches_standalone_subgradient(monkeypatch):
    uniform = random_desk_instance(n_sectors=6, users_per_sector=2,
                                   n_rbs=2, k_tilde=2, seed=71)
    rng = np.random.default_rng(0)
    for prob in (uniform, _uneven_problem(72)):
        blanking = rng.random((6, 2))
        groups = co._lane_groups([prob], [prob.weights], [prob.triples])
        [(lam_eq, lam_nbr, value, _)] = co._solve_pass(
            [prob], groups, [blanking], [blanking])
        ref_value, ref_eq, ref_nbr = oracle.reference_pass(
            prob, prob.weights, blanking)
        assert value == ref_value
        assert np.array_equal(lam_eq, ref_eq)
        assert np.array_equal(lam_nbr, ref_nbr)
        grad = _first_direction(monkeypatch, prob, co.IcicConfig(n_iter=1),
                                blanking)
        ref = co.compute_subgradient(ref_eq, ref_nbr, prob.neighbors)
        assert np.array_equal(grad, ref)


def test_quantized_exchange_scales_each_message(monkeypatch):
    bits = 3
    levels = 2 ** bits - 1
    lam_nbr = np.array([[[0.0, 2.0], [0.0, -6.0]],
                        [[0.0, 1.0], [0.0, 0.5]],
                        [[3.0, 0.7], [0.0, 0.1]]])      # (K, N, K_tilde)
    got = co._quantize(lam_nbr, bits, axis=1)
    for k in range(3):
        for pos in range(2):
            msg = lam_nbr[k, :, pos]
            scale = np.max(np.abs(msg))
            want = np.zeros(2) if scale == 0 else \
                np.round(msg / scale * levels) * (scale / levels)
            assert np.array_equal(got[k, :, pos], want)
    assert np.all(got[:2, :, 0] == 0.0)        # all-zero messages
    # the master steps along the exchange of the quantized duals
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=3,
                                k_tilde=2, seed=71)
    blanking = np.random.default_rng(1).random((6, 3))
    cfg = co.IcicConfig(n_iter=1, quantize_exchange=True, quant_bits=bits)
    seen = co._quantize(blanking, bits, vmax=1.0)
    groups = co._lane_groups([prob], [prob.weights], [prob.triples])
    [(lam_eq, lam_nbr, _, _)] = co._solve_pass([prob], groups, [blanking],
                                               [seen])
    grad = _first_direction(monkeypatch, prob, cfg, blanking)
    assert np.array_equal(grad, co.compute_subgradient(
        lam_eq, co._quantize(lam_nbr, bits, axis=1), prob.neighbors))


def test_config_validation():
    with pytest.raises(ValueError):
        co.IcicConfig(n_iter=-1)
    with pytest.raises(ValueError):
        co.IcicConfig(step_constant=0.0)
    with pytest.raises(ValueError):
        co.IcicConfig(rho=0)
    with pytest.raises(ValueError):
        co.IcicConfig(runs=3)
    with pytest.raises(ValueError):
        co.IcicConfig(quant_bits=0)
