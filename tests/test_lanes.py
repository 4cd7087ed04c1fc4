"""The lane engine against the per-lane flow solve it replaced."""

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import lanes, mcnf, oracle
from icicsim.instances import random_desk_instance


def test_engine_bit_equal_on_random_lanes():
    # M 1-5, K_tilde 1-9; binary, fractional, mixed and integer-tied lanes
    assert oracle.lane_engine_check(10_000, seed=3) == 0


def test_engine_bit_equal_on_full_default_chunks():
    # round57's (M, K_tilde); 2,500 lanes fill two default chunks and part
    # of a third with binary, fractional and mixed levels
    assert 2 * lanes.CHUNK < 2_500 < 3 * lanes.CHUNK
    inputs = oracle.random_lanes(np.random.default_rng(57), 2_500, 3, 6)
    assert oracle.lane_mismatches(*inputs) == []


def test_subset_of_lanes_solved_in_place():
    # about 1,500 of 2,500 lanes get new levels and are solved again into
    # the first call's outputs, two chunks of gathered lanes: they equal a
    # fresh solve, and the other lanes keep their first results
    rng = np.random.default_rng(58)
    own, nbr, w, r, rtil = oracle.random_lanes(rng, 2_500, 3, 6)
    out = lanes.solve_lanes(own, nbr, w, r, rtil)
    first = [a.copy() for a in out]
    at = np.flatnonzero(rng.random(own.size) < 0.6)
    assert lanes.CHUNK < at.size < 2 * lanes.CHUNK
    own[at] = rng.random(at.size)
    nbr[at] = rng.integers(0, 2, (at.size, 6))
    assert lanes.solve_lanes(own, nbr, w, r, rtil, at=at, out=out) is out
    fresh = lanes.solve_lanes(own, nbr, w, r, rtil)
    kept = np.setdiff1d(np.arange(own.size), at)
    for got, ref, old in zip(out, fresh, first):
        assert got[at].tobytes() == ref[at].tobytes()
        assert got[kept].tobytes() == old[kept].tobytes()
    with pytest.raises(ValueError):
        lanes.solve_lanes(own, nbr, w, r, rtil, at=at)


def test_both_solvers_refuse_negative_reduced_costs(monkeypatch):
    # all-zero starting potentials leave each RB -> user arc at reduced
    # cost -w*r, so the first Dijkstra pass meets a negative one
    own, nbr, w, r, rtil = oracle.random_lanes(np.random.default_rng(6),
                                               12, 2, 3)
    own[:] = 0.0            # the RB source has supply to route
    lanes.solve_lanes(own, nbr, w, r, rtil)     # fine from Bellman-Ford
    monkeypatch.setattr(mcnf, "_initial_potentials",
                        lambda net: np.zeros(net.num_nodes))
    monkeypatch.setattr(lanes, "_initial_potentials",
                        lambda cost_x, cost_y: np.zeros(
                            (cost_y.shape[0], sum(cost_y.shape[1:]) + 2)))
    hit = np.flatnonzero((w * r > 0).any(axis=1))
    assert hit.size > 6
    for i in hit:
        with pytest.raises(AssertionError, match="reduced-cost invariant"):
            co.solve_subproblem(own[i], nbr[i], w[i], r[i], rtil[i])
        with pytest.raises(AssertionError, match="reduced-cost invariant"):
            lanes.solve_lanes(own[i:i + 1], nbr[i:i + 1], w[i:i + 1],
                              r[i:i + 1], rtil[i:i + 1])


SMALL_CHUNK = 8


@pytest.mark.parametrize("n_lanes", [SMALL_CHUNK - 1, SMALL_CHUNK,
                                     SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 1])
def test_engine_bit_equal_across_chunk_edges(monkeypatch, n_lanes):
    monkeypatch.setattr(lanes, "CHUNK", SMALL_CHUNK)
    inputs = oracle.random_lanes(np.random.default_rng(n_lanes), n_lanes,
                                 3, 4)
    assert oracle.lane_mismatches(*inputs) == []


def test_engine_rejects_unroutable_supply():
    # a negative neighbor level turns that neighbor into a source, and
    # no arc leaves a neighbor node
    own, nbr, w, r, rtil = oracle.random_lanes(np.random.default_rng(0),
                                               4, 2, 2)
    own[:] = 0.0
    nbr[2] = [-1.0, 0.0]
    with pytest.raises(mcnf.InfeasibleFlowError):
        co.solve_subproblem(own[2], nbr[2], w[2], r[2], rtil[2])
    with pytest.raises(mcnf.InfeasibleFlowError):
        lanes.solve_lanes(own, nbr, w, r, rtil)


@pytest.mark.parametrize("m, kt", [(1, 1), (2, 2), (3, 4)])
def test_engine_bit_equal_when_lanes_finish_at_different_rounds(
        monkeypatch, m, kt):
    # binary lanes finish after few augmentations (own = 1 with no blanked
    # neighbor after none) and fractional ones after more, so with the
    # fractional lanes last the chunks drop finished lanes round by round
    monkeypatch.setattr(lanes, "CHUNK", SMALL_CHUNK)
    rng = np.random.default_rng(10 * m + kt)
    n_lanes = 3 * SMALL_CHUNK + 3
    own, nbr, w, r, rtil = oracle.random_lanes(rng, n_lanes, m, kt)
    n_bin = 2 * SMALL_CHUNK
    own[:n_bin] = rng.integers(0, 2, n_bin)
    nbr[:n_bin] = rng.integers(0, 2, (n_bin, kt))
    own[n_bin:] = rng.random(n_lanes - n_bin)
    nbr[n_bin:] = rng.random((n_lanes - n_bin, kt))
    assert oracle.lane_mismatches(own, nbr, w, r, rtil) == []


def test_engine_names_the_lowest_stuck_lane_after_compaction(monkeypatch):
    # lanes 8-12 of the second chunk have nothing to route and leave
    # before the first augmentation; lanes 13 and 14 route their RB supply
    # and then both stick at a neighbor source in the next round, so the
    # error names lane 13, as the per-lane solver does
    monkeypatch.setattr(lanes, "CHUNK", SMALL_CHUNK)
    own, nbr, w, r, rtil = oracle.random_lanes(np.random.default_rng(4),
                                               2 * SMALL_CHUNK, 2, 2)
    own[:] = 1.0
    nbr[:] = 0.0
    own[13:15] = 0.0
    nbr[13] = [-1.0, 0.0]
    nbr[14] = [0.0, -0.5]
    with pytest.raises(mcnf.InfeasibleFlowError) as ref:
        co.solve_subproblem(own[13], nbr[13], w[13], r[13], rtil[13])
    with pytest.raises(mcnf.InfeasibleFlowError) as got:
        lanes.solve_lanes(own, nbr, w, r, rtil)
    assert str(got.value) == str(ref.value)


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
