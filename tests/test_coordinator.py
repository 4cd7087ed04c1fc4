"""Subproblem flow form, duals, master steps, full coordinated rounds."""

import re
import tracemalloc

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import lanes, mcnf, oracle
from icicsim.instances import random_desk_instance, random_desk_instances
from icicsim.network import (NetworkDims, generate_layout, neighbor_map,
                             ring_neighbor_map)


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


def _exchange_by_sector(lam_eq, lam_nbr, neighbors):
    """The exchange sector by sector, the gather's reference: every sector
    posts each of its messages to that neighbor's inbox, and each sector
    adds up its inbox with a Python sum in its own nbr order."""
    k_sec = lam_eq.shape[-2]
    inbox = [{} for _ in range(k_sec)]
    for k in range(k_sec):
        for pos, dest in enumerate(neighbors.nbr[k].tolist()):
            inbox[dest][k] = lam_nbr[..., k, :, pos]
    grad = np.empty(lam_eq.shape)
    for k in range(k_sec):
        grad[..., k, :] = -lam_eq[..., k, :] + sum(
            inbox[k][s] for s in neighbors.nbr[k].tolist())
    return grad


def _messages(kind, rng, shape):
    """lam_eq and lam_nbr (shape + (K_tilde,)) of one kind of message."""
    if kind == "zero":
        return np.zeros(shape[:-1]), np.zeros(shape)
    if kind == "negative_zero":
        # a sum that starts from the first message, not from zero, would
        # give -0.0 here
        return np.zeros(shape[:-1]), np.full(shape, -0.0)
    lam_eq = rng.normal(size=shape[:-1])
    lam_eq[rng.random(shape[:-1]) < 0.2] = 0.0
    lam_nbr = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    lam_nbr[rng.random(shape) < 0.2] = -0.0
    if kind == "quantized":
        lam_nbr = co._quantize(lam_nbr, 6, axis=-2)
    return lam_eq, lam_nbr


def _exchange_maps():
    """Neighbor maps of every builder, K_tilde from 1 to 6."""
    lay = generate_layout(NetworkDims.uniform(4, 1, 1), 500.0)
    for kt in range(1, 7):
        yield ring_neighbor_map(14, kt)
        yield neighbor_map(lay, kt)


def test_subgradient_of_a_stack_equals_single_calls():
    # the gather equals the per-sector exchange byte for byte, -0.0
    # included, and a stack equals its members' single calls
    rng = np.random.default_rng(4)
    for nmap in _exchange_maps():
        for kind in ("random", "zero", "negative_zero", "quantized"):
            for batch in ((), (3,), (2, 2)):
                shape = (*batch, nmap.K, 3, nmap.k_tilde)
                lam_eq, lam_nbr = _messages(kind, rng, shape)
                grad = co.compute_subgradient(lam_eq, lam_nbr, nmap)
                ref = _exchange_by_sector(lam_eq, lam_nbr, nmap)
                assert grad.shape == ref.shape == shape[:-1]
                assert grad.tobytes() == ref.tobytes()
                for p in np.ndindex(batch):
                    one = co.compute_subgradient(lam_eq[p], lam_nbr[p],
                                                 nmap)
                    assert grad[p].tobytes() == one.tobytes()


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
    assert co.master_step(i, np.zeros((1, 1)), 3)[0, 0] == 0.5
    assert co.master_step(np.array([[0.9]]), np.array([[0.8]]), 1)[0, 0] == 1.0
    assert co.master_step(np.array([[0.2]]), np.array([[-0.5]]), 1)[0, 0] == 0.0
    # the step is (1 / t) * grad, one ulp away from grad / t here
    g = 0.6369616873214543
    assert g / 3 != 0.21232056244048475
    assert co.master_step(np.zeros((1, 1)), np.array([[g]]), 3)[0, 0] \
        == 0.21232056244048475
    with pytest.raises(ValueError):
        co.master_step(i, np.zeros((1, 1)), 0)


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


def _count_scored(monkeypatch):
    """The shape of the blanking stack of each bound_objective call."""
    scored = []
    original = co.bound_objective

    def counted(weights, triples, blanking, neighbors):
        scored.append(np.shape(blanking))
        return original(weights, triples, blanking, neighbors)

    monkeypatch.setattr(co, "bound_objective", counted)
    return scored


@pytest.mark.parametrize("runs", [1, 2])
def test_each_pass_and_rounding_computed_once(monkeypatch, runs):
    # one engine call per master pass
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=3)
    counts = {"solve": 0, "bound_objective": 0, "post": 0}
    _count_calls(monkeypatch, lanes.LaneSet, "solve", counts)
    _count_calls(monkeypatch, co, "bound_objective", counts)
    _count_calls(monkeypatch, co.Mailbox, "post", counts)
    scored = _count_scored(monkeypatch)
    n = 4
    co.run_coordination(prob, co.IcicConfig(n_iter=n, runs=runs))
    # run 1: n passes plus the closing pass; the re-run has no closing
    # pass. Each run's n + 1 rounded iterates are scored once, by one
    # call on a (P, n + 1, K, N) stack, on the true channel. Only the
    # passes that feed a master step exchange duals, each in one post.
    passes = {1: n + 1, 2: 2 * n + 1}[runs]
    assert counts == {"solve": passes,
                      "bound_objective": runs,
                      "post": runs * n}
    assert scored == [(1, n + 1, 6, 2)] * runs


def _batch_problems(count=5):
    """A batch of `count` rounds: K = 8, M = 3, N = 2 and K_tilde = 3."""
    return random_desk_instances(range(81, 81 + count), n_sectors=8,
                                 users_per_sector=3, n_rbs=2, k_tilde=3)


@pytest.mark.parametrize("config", [
    co.IcicConfig(n_iter=4),
    co.IcicConfig(n_iter=4, runs=2),
    co.IcicConfig(n_iter=3, runs=2, quantize_exchange=True, quant_bits=6),
], ids=["runs1", "runs2", "quantized"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_batched_rounds_equal_single_rounds(config, warm):
    batch = _batch_problems()
    warm_start = None
    if warm:
        # the even rounds start warm, the odd ones from zero
        warm_start = np.random.default_rng(7).random(
            (batch.rounds, batch.K, batch.N))
        warm_start[1::2] = 0.0
    assert oracle.batch_mismatches(batch, config, warm_start) == []
    # so reversing the batch reverses the results
    assert oracle.batch_mismatches(
        batch[::-1], config,
        None if warm_start is None else warm_start[::-1]) == []


@pytest.mark.parametrize("count", [1, 5])
def test_one_lane_call_exchange_and_step_per_pass(monkeypatch, count):
    # however many problems the batch holds: 2 + 1 + 2 lane passes, and
    # one exchange and one master step per pass that moves the master,
    # each exchange one Mailbox post of the whole batch's duals
    counts = {"solve": 0, "compute_subgradient": 0, "master_step": 0,
              "post": 0}
    _count_calls(monkeypatch, lanes.LaneSet, "solve", counts)
    _count_calls(monkeypatch, co, "compute_subgradient", counts)
    _count_calls(monkeypatch, co, "master_step", counts)
    _count_calls(monkeypatch, co.Mailbox, "post", counts)
    co.run_rounds(_batch_problems(count), co.IcicConfig(n_iter=2, runs=2))
    assert counts == {"solve": 5, "compute_subgradient": 4,
                      "master_step": 4, "post": 4}


@pytest.mark.parametrize("config, solves", [
    (co.IcicConfig(n_iter=4), [0] * 5),
    (co.IcicConfig(n_iter=4, runs=2), [0] * 5 + [1] * 4),
], ids=["runs1", "runs2"])
def test_one_lane_set_per_master_run(monkeypatch, config, solves):
    # run 1 builds a lane set and solves its n_iter passes and the
    # closing pass on it; the re-run, on silenced triples, builds its own
    # for its n_iter passes. x and y are built once, from run 1's closing
    # pass, after every solve of run 1; the re-run never builds them
    built, solved, primal_of = [], [], []
    init, solve = lanes.LaneSet.__init__, lanes.LaneSet.solve
    primal = lanes.LaneSet.primal

    def counted_init(lane_set, *args):
        built.append(lane_set)
        init(lane_set, *args)

    def counted_solve(lane_set, *args):
        solved.append(built.index(lane_set))
        return solve(lane_set, *args)

    def counted_primal(lane_set, *args):
        primal_of.append((built.index(lane_set), len(solved)))
        return primal(lane_set, *args)

    monkeypatch.setattr(lanes.LaneSet, "__init__", counted_init)
    monkeypatch.setattr(lanes.LaneSet, "solve", counted_solve)
    monkeypatch.setattr(lanes.LaneSet, "primal", counted_primal)
    co.run_rounds(_batch_problems(), config)
    assert len(built) == len(set(solves))
    assert solved == solves
    # (lane set, solves so far) of each primal call
    assert primal_of == [(0, config.n_iter + 1)]


def test_rerun_holds_no_copy_of_the_gains():
    # at demos/imt57.cfg's round shape the re-run's triples silence run
    # 1's blanked sectors in place of a masked copy of the gain tensor,
    # so a two-run round peaks less than half a tensor above a one-run
    # round; a warm-up call first keeps one-time allocations out
    batch = random_desk_instances([5], n_sectors=57, users_per_sector=10,
                                  n_rbs=50, k_tilde=6)
    co.run_rounds(batch, co.IcicConfig(runs=2))
    peaks = {}
    for runs in (1, 2):
        tracemalloc.start()
        try:
            co.run_rounds(batch, co.IcicConfig(runs=runs))
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < batch.gains.nbytes / 2


def _ragged_weights():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, seed=4)
    return co.CoordinationProblem(
        neighbors=prob.neighbors, weights=[np.ones(2)] * 5 + [np.ones(3)],
        gains=prob.gains, radio=prob.radio)


def _gains_of_other_m():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, seed=4)
    return co.CoordinationProblem(
        neighbors=prob.neighbors, weights=np.ones((6, 3)),
        gains=prob.gains, radio=prob.radio)


def _stacked_gains_of_other_m():
    batch = random_desk_instances([4, 5, 6], n_sectors=6, users_per_sector=2)
    return co.CoordinationProblem(
        neighbors=batch.neighbors, weights=np.ones((3, 6, 3)),
        gains=batch.gains, radio=batch.radio)


@pytest.mark.parametrize("build, named", [
    (lambda: NetworkDims(K=3, sites=1, M=(2, 1, 1), N=1), "(2, 1, 1)"),
    (_ragged_weights, "[2, 2, 2, 2, 2, 3]"),
    (_gains_of_other_m, "(6, 2) users do not match weights for (6, 3)"),
    (_stacked_gains_of_other_m,
     "(3, 6, 2) users do not match weights for (3, 6, 3)"),
    (lambda: random_desk_instance(users_per_sector=[3, 1]), "[3, 1]"),
], ids=["dims", "weights", "gains", "stacked_gains", "instance"])
def test_unequal_user_counts_are_refused(build, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_run_rounds_rejects_mismatched_warm_starts():
    # a warm start is shaped like the blankings: (K, N) for one round,
    # (P, K, N) for a batch of P
    batch = random_desk_instances([1, 2], n_sectors=6, users_per_sector=2,
                                  n_rbs=2, k_tilde=2)
    config = co.IcicConfig(n_iter=1)
    for prob, warm in ((batch, np.zeros((6, 2))),
                       (batch, np.zeros((1, 6, 2))),
                       (batch, np.zeros((2, 6, 3))),
                       (batch[0], np.zeros((2, 6, 2))),
                       (batch[0], np.zeros((6, 1)))):
        with pytest.raises(ValueError, match="warm start of shape"):
            co.run_rounds(prob, config, warm)
    assert co.run_rounds(batch[:0], config) == []


@pytest.mark.parametrize("runs", [1, 2])
def test_only_run_coordination_schedules(runs):
    # a batch result carries no schedule; run_coordination schedules its
    # blanking on the problem's channel, as finalize_schedule alone does
    batch = _batch_problems(3)
    config = co.IcicConfig(n_iter=3, runs=runs)
    for res in co.run_rounds(batch, config):
        assert res.assignments is None and res.exact_rates is None
        assert res.realized_objective is None
    for p in range(batch.rounds):
        prob = batch[p]
        res = co.run_coordination(prob, config)
        assert oracle.bit_equal(
            (res.assignments, res.exact_rates, res.realized_objective),
            co.finalize_schedule(prob.gains, prob.weights, prob.radio,
                                 prob.amc, res.blanking))


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


def _lane_set(prob):
    return co._lane_inputs(prob.weights[None], prob.triples.r[None],
                           prob.triples.rtil[None])


def _lane_pass(prob, blanking, config):
    """The duals and master value of one lane pass of `prob` alone."""
    lam_eq, lam_nbr, value, _ = co._solve_pass(
        _lane_set(prob), prob.neighbors.nbr, blanking[None], config)
    return lam_eq[0], lam_nbr[0], value[0]


def _first_direction(monkeypatch, prob, config, blanking):
    """The ascent direction of the first master iteration from `blanking`."""
    seen = []
    step = co.master_step

    def spy(i_mat, grad, iteration):
        seen.append(grad)
        return step(i_mat, grad, iteration)

    monkeypatch.setattr(co, "master_step", spy)
    co._subgradient_run(_lane_set(prob), prob.neighbors, config,
                        blanking[None])
    monkeypatch.setattr(co, "master_step", step)
    return seen[0][0]


def test_exchange_pass_matches_standalone_subgradient(monkeypatch):
    uniform = random_desk_instance(n_sectors=6, users_per_sector=2,
                                   n_rbs=2, k_tilde=2, seed=71)
    rng = np.random.default_rng(0)
    for prob in (uniform, *(random_desk_instance(
            n_sectors=6, users_per_sector=m, n_rbs=2, k_tilde=2,
            seed=71 + m) for m in (1, 3))):
        blanking = rng.random((6, 2))
        lam_eq, lam_nbr, value = _lane_pass(prob, blanking,
                                            co.IcicConfig(n_iter=1))
        ref_value, ref_eq, ref_nbr = oracle.reference_pass(
            prob, prob.weights, blanking)
        tol = oracle.REF_TOL
        assert value == pytest.approx(ref_value, rel=tol, abs=tol)
        assert np.allclose(lam_eq, ref_eq, rtol=tol, atol=tol)
        assert np.allclose(lam_nbr, ref_nbr, rtol=tol, atol=tol)
        # the master steps along the exchange of the lane pass's duals
        grad = _first_direction(monkeypatch, prob, co.IcicConfig(n_iter=1),
                                blanking)
        assert np.array_equal(grad, co.compute_subgradient(
            lam_eq, lam_nbr, prob.neighbors))
        ref = co.compute_subgradient(ref_eq, ref_nbr, prob.neighbors)
        assert np.allclose(grad, ref, rtol=tol, atol=tol)


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
    lam_eq, lam_nbr, _ = _lane_pass(prob, blanking, cfg)
    # the pass's neighbors see the quantized levels, its own sector not
    seen = co._quantize(blanking, bits, vmax=1.0)
    lane_set = _lane_set(prob)
    ref = lane_set.solve(
        blanking.ravel(), seen[prob.neighbors.nbr].transpose(0, 2, 1)
        .reshape(-1, 2))
    assert np.array_equal(lam_eq.ravel(), ref.lam_eq)
    assert np.array_equal(lam_nbr.reshape(-1, 2), ref.lam_nbr)
    grad = _first_direction(monkeypatch, prob, cfg, blanking)
    assert np.array_equal(grad, co.compute_subgradient(
        lam_eq, co._quantize(lam_nbr, bits, axis=1), prob.neighbors))


def test_config_validation():
    with pytest.raises(ValueError):
        co.IcicConfig(n_iter=0)
    with pytest.raises(ValueError):
        co.IcicConfig(rho=0)
    with pytest.raises(ValueError):
        co.IcicConfig(runs=3)
    with pytest.raises(ValueError):
        co.IcicConfig(quant_bits=0)
