"""The closed-form lane solve against the per-lane flow solve."""

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import lanes, mcnf, oracle
from icicsim.instances import random_desk_instance


def test_lanes_optimal_on_random_lanes():
    # M 1-5, K_tilde 1-9; binary, fractional, mixed and integer-tied
    # lanes, plus the edge lanes of every shape: each one optimal and
    # matching the flow solve (see oracle.lane_mismatches)
    assert oracle.lane_engine_check(10_000, seed=3) == 0


def test_lanes_optimal_at_round57_shape():
    # round57's (M, K_tilde) with binary, fractional and mixed levels:
    # every lane optimal in one call (see oracle.lane_mismatches)
    inputs = oracle.random_lanes(np.random.default_rng(57), 2_500, 3, 6)
    assert oracle.lane_mismatches(*inputs) == []


@pytest.mark.parametrize("m, kt", [(1, 1), (1, 4), (3, 1), (2, 2), (5, 9)])
def test_edge_lanes_are_optimal(m, kt):
    own, nbr, w, r, rtil = oracle.edge_lanes(np.random.default_rng(m + kt),
                                             m, kt)
    assert oracle.lane_mismatches(own, nbr, w, r, rtil) == []
    lane_set = lanes.LaneSet(w, r, rtil)
    sol = lane_set.solve(own, nbr)
    x, y = lane_set.primal(sol)
    phi = sol.phi
    # no supply: nothing flows (lanes 0 and 6)
    for i in (0, 6):
        assert not x[i].any() and not y[i].any() and phi[i] == 0.0
    # the supply ends exactly at a neighbor's level: the best neighbors
    # are full and the others empty (lane 5)
    assert sorted(y[5].sum(axis=0).tolist()) == \
        [0.0] * (kt - min(kt, 2)) + [0.25] * min(kt, 2)


def _level_draws(rng, n_lanes, kt):
    """Binary, fractional and mixed (own, nbr) levels for n_lanes lanes."""
    def draw(shape, kind):
        binary = rng.integers(0, 2, shape).astype(float)
        if kind == "binary":
            return binary
        frac = rng.random(shape)
        if kind == "fractional":
            return frac
        return np.where(rng.random(shape) < 0.5, binary, frac)
    return [(draw(n_lanes, kind), draw((n_lanes, kt), kind))
            for kind in ("binary", "fractional", "mixed")]


@pytest.mark.parametrize("inputs", [
    lambda rng: oracle.random_lanes(rng, 300, 3, 6),
    lambda rng: oracle.edge_lanes(rng, 2, 3),
], ids=["round57_shape", "edge_lanes"])
def test_lane_set_is_reused_across_levels(inputs):
    # one set solved at several level draws, as a master run solves its
    # passes: each result equals a fresh set's solve bit for bit and
    # is optimal, whatever the set solved before
    rng = np.random.default_rng(21)
    own, nbr, w, r, rtil = inputs(rng)
    lane_set = lanes.LaneSet(w, r, rtil)
    draws = [(own, nbr)] + _level_draws(rng, *nbr.shape)
    for levels in draws + draws[::-1]:
        got = lane_set.solve(*levels)
        fresh = lanes.LaneSet(w, r, rtil)
        want = fresh.solve(*levels)
        assert oracle.bit_equal(got, want)
        assert oracle.bit_equal(lane_set.primal(got), fresh.primal(want))
        assert oracle.lane_mismatches(*levels, w, r, rtil) == []


def test_closed_form_phi_against_the_primal():
    # phi from the fill alone against coordinator.subproblem_objective of
    # the primal, on 10,000 lanes over M 1-10 and K_tilde 1-9 with
    # fractional levels. Both sum the same nonnegative terms, so each is
    # within gamma_n = n u / (1 - n u) of the exact sum E (u = 2^-53),
    # where n bounds the roundings on one term's path. The closed form:
    # w r and w rtil, their sum, the product with the fill, and K_tilde
    # additions, so n = K_tilde + 3. The primal: x_i as a sum of up to
    # K_tilde + 1 fills (K_tilde), x r and w (x r) (2), the dot over M
    # users (M - 1) and the final addition (1), so n = M + K_tilde + 2;
    # its y part has fewer. Then |new - old| <= 2 gamma_n E with
    # n = M + K_tilde + 3, and E <= max(new, old) / (1 - gamma_n).
    rng = np.random.default_rng(31)
    shapes = [(m, kt) for m in range(1, 11) for kt in range(1, 10)]
    worst = 0.0
    for m, kt in shapes:
        _, _, w, r, rtil = oracle.random_lanes(rng, 10_000 // len(shapes) + 1,
                                               m, kt)
        own, nbr = rng.random(len(w)), rng.random((len(w), kt))
        lane_set = lanes.LaneSet(w, r, rtil)
        sol = lane_set.solve(own, nbr)
        x, y = lane_set.primal(sol)
        old = np.array([co.subproblem_objective(w[i], r[i], rtil[i], x[i],
                                                y[i])
                        for i in range(len(w))])
        n = m + kt + 3
        gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
        bound = 2.0 * gamma / (1.0 - gamma) * np.maximum(sol.phi, old)
        diff = np.abs(sol.phi - old)
        assert (diff <= bound).all(), (m, kt)
        worst = max(worst, float((diff[bound > 0] / bound[bound > 0]).max()))
    assert 0.0 < worst <= 1.0      # the orders differ, within the bound


def test_knapsack_by_hand():
    # c_0 = 10 (user 0); c = [12 (user 1), 15 (user 0), 11 (user 0)], so
    # the gains are [2, 5, 1]. S = 0.75 fills neighbor 1 (0.5), then a
    # quarter of neighbor 0, which stays open: t = 2, lam_eq = 12
    own = np.array([0.25])
    nbr = np.array([[0.5, 0.5, 1.0]])
    w = np.array([[1.0, 1.0]])
    r = np.array([[10.0, 8.0]])
    rtil = np.array([[[0.0, 5.0, 1.0], [4.0, 0.0, 0.0]]])
    lane_set = lanes.LaneSet(w, r, rtil)
    sol = lane_set.solve(own, nbr)
    x, y = lane_set.primal(sol)
    phi, lam_eq, lam_nbr = sol.phi, sol.lam_eq, sol.lam_nbr
    assert x.tolist() == [[0.5, 0.25]]
    assert y.tolist() == [[[0.0, 0.5, 0.0], [0.25, 0.0, 0.0]]]
    assert phi.tolist() == [10.5]           # 0.75 * 12 + 0.5 * 3
    assert lam_eq.tolist() == [12.0]
    assert lam_nbr.tolist() == [[0.0, 3.0, 0.0]]


def test_engine_rejects_unroutable_supply():
    # a negative neighbor level turns that neighbor into a source, and
    # no arc leaves a neighbor node; the lane solve refuses any level
    # outside [0, 1], NaN included, as a ValueError naming the lowest
    # such lane
    own, nbr, w, r, rtil = oracle.random_lanes(np.random.default_rng(0),
                                               4, 2, 2)
    own[:] = 0.0
    nbr[2] = [-1.0, 0.0]
    with pytest.raises(mcnf.InfeasibleFlowError):
        co.solve_subproblem(own[2], nbr[2], w[2], r[2], rtil[2])
    with pytest.raises(ValueError, match="lane 2:"):
        lanes.LaneSet(w, r, rtil).solve(own, nbr)
    nbr[2] = 0.0
    for lane, level in ((1, np.nan), (3, 1.5)):
        bad = own.copy()
        bad[lane] = level
        with pytest.raises(ValueError, match=f"lane {lane}:"):
            lanes.LaneSet(w, r, rtil).solve(bad, nbr)
    # own and nbr are checked apart: the lowest bad lane of either wins,
    # and the message quotes its level
    bad_own, bad_nbr = own.copy(), nbr.copy()
    bad_own[3] = 2.0
    bad_nbr[1, 1] = -0.25
    with pytest.raises(ValueError, match=r"lane 1: blanking level -0\.25 "):
        lanes.LaneSet(w, r, rtil).solve(bad_own, bad_nbr)


@pytest.mark.parametrize("config", [
    co.IcicConfig(n_iter=3, runs=2),
    co.IcicConfig(n_iter=3, quantize_exchange=True, quant_bits=6),
])
def test_coordination_never_calls_the_per_lane_solver(monkeypatch, config):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-lane flow solve on the hot path")
    monkeypatch.setattr(mcnf, "solve", forbidden)
    monkeypatch.setattr(co, "solve_subproblem", forbidden)
    monkeypatch.setattr(co, "build_subproblem_network", forbidden)
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=3,
                                k_tilde=2, seed=8)
    res = co.run_coordination(prob, config)
    assert set(np.unique(res.blanking)) <= {0, 1}
