"""Brute-force references and their relationships to the solver stack."""

import os
import subprocess
import sys

import numpy as np
import pytest

import icicsim
from icicsim import coordinator as co
from icicsim import oracle
from icicsim.instances import random_desk_instance
from icicsim.linkadapt import RadioConfig
from icicsim.network import ring_neighbor_map


def test_zero_cross_gains_keep_reuse1():
    nmap = ring_neighbor_map(4, 2)
    gains = []
    rng = np.random.default_rng(1)
    for k in range(4):
        g = np.full((2, 1, 4), 1e-12)
        g[:, :, k] = rng.uniform(0.5, 1.0, size=(2, 1))
        gains.append(g)
    prob = co.CoordinationProblem(
        neighbors=nmap, weights=[np.ones(2)] * 4, gains=gains,
        radio=RadioConfig(p_c_watts=1.0, p_n_watts=0.01))
    res = oracle.exhaustive_original(prob)
    assert np.all(res.patterns == 0)


def test_exhaustive_bound_at_reuse1_matches_all_on_objective():
    prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=2,
                                k_tilde=2, seed=2)
    reuse1 = sum(float(np.max(prob.weights[k][:, None] * prob.triples.r[k],
                              axis=0).sum()) for k in range(6))
    res = oracle.exhaustive_bound(prob)
    assert res.value >= reuse1 - 1e-9
    zero_val = co.bound_objective(prob.weights, prob.triples,
                                  np.zeros((6, 2), dtype=int), prob.neighbors)
    assert zero_val == pytest.approx(reuse1, rel=1e-12)


def test_bound_equals_original_when_single_neighbor():
    # with K_tilde = 1 at most one neighbor can blank per user, where the
    # bound is exact, so both enumerations agree
    for seed in range(5):
        prob = random_desk_instance(n_sectors=6, users_per_sector=2, n_rbs=1,
                                    k_tilde=1, seed=seed, edge_fraction=0.6)
        a = oracle.exhaustive_original(prob)
        b = oracle.exhaustive_bound(prob)
        assert b.value == pytest.approx(a.value, rel=1e-12)


def test_bound_below_original_generally():
    for seed in range(5):
        prob = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=1,
                                    k_tilde=2, seed=10 + seed)
        a = oracle.exhaustive_original(prob)
        b = oracle.exhaustive_bound(prob)
        assert b.value <= a.value + 1e-9


def test_algorithm_never_beats_exhaustive():
    for seed in range(5):
        prob = random_desk_instance(n_sectors=10, users_per_sector=2,
                                    n_rbs=2, k_tilde=2, seed=20 + seed)
        res = co.run_coordination(prob, co.IcicConfig(n_iter=5))
        exh = oracle.exhaustive_original(prob)
        exh_b = oracle.exhaustive_bound(prob)
        assert res.realized_objective <= exh.value * (1 + 1e-9)
        assert res.gap.p_hat <= exh_b.value * (1 + 1e-9)


def test_oracles_score_the_problems_own_rates():
    # problems keeping 1 or 2 of another's 3 users per sector: the oracles
    # must take the weights and rates from the problem
    wide = random_desk_instance(n_sectors=6, users_per_sector=3, n_rbs=2,
                                k_tilde=2, seed=91)
    for keep in (1, 2):
        prob = co.CoordinationProblem(
            neighbors=wide.neighbors, weights=wide.weights[:, :keep],
            gains=wide.gains[:, :keep], radio=wide.radio)
        bound = oracle.exhaustive_bound(prob)
        rng = np.random.default_rng(3)
        for _ in range(64):
            pattern = rng.integers(0, 2, (prob.K, prob.N))
            val = co.bound_objective(prob.weights, prob.triples, pattern,
                                     prob.neighbors)
            assert bound.value >= val * (1 - 1e-12)
        assert bound.value == pytest.approx(co.bound_objective(
            prob.weights, prob.triples, bound.patterns, prob.neighbors),
            rel=1e-12)
        exact = oracle.exhaustive_original(prob)
        assert exact.value == pytest.approx(co.finalize_schedule(
            prob.gains, prob.weights, prob.radio, prob.amc,
            exact.patterns)[2], rel=1e-12)


def test_enumeration_budget_guard():
    with pytest.raises(ValueError):
        oracle._all_patterns(20)
    # built once per K and shared, so callers cannot change it
    arrays = oracle._all_patterns(oracle.ENUM_CAP_BITS)
    pats, on_rows = arrays
    assert pats.shape == (2 ** oracle.ENUM_CAP_BITS, oracle.ENUM_CAP_BITS)
    assert oracle._all_patterns(oracle.ENUM_CAP_BITS) is arrays
    # the transmit flags, one contiguous row per sector
    assert np.array_equal(on_rows, 1.0 - pats.T)
    assert on_rows.flags.c_contiguous
    assert not (pats.flags.writeable or on_rows.flags.writeable)


def test_subproblem_enumeration_trivial_cases():
    w = np.array([1.0, 2.0])
    r = np.array([100.0, 80.0])
    rtil = np.array([[50.0, 10.0], [40.0, 5.0]])
    x, y, val = oracle.subproblem_enumeration(1.0, np.zeros(2), w, r, rtil)
    assert val == 0.0 and np.all(x == 0)
    x, y, val = oracle.subproblem_enumeration(0.0, np.zeros(2), w, r, rtil)
    assert val == 160.0 and np.all(y == 0)
    x, y, val = oracle.subproblem_enumeration(0.0, np.array([1.0, 1.0]),
                                              w, r, rtil)
    assert val == 2.0 * (80.0 + 40.0)


def test_set_equivalence_all_small_sizes():
    for m in (1, 2, 3):
        for kt in (1, 2, 3):
            assert oracle.set_equivalence_check(m, kt)
    with pytest.raises(ValueError):
        oracle.set_equivalence_check(4, 1)


def test_bound_factor_report_clean():
    rep = oracle.sinr_bound_factor_check(3000, seed=4)
    assert rep.max_identity_error < 1e-9
    assert rep.bound_violations == 0
    assert rep.exactness_violations == 0


def test_relaxed_lp_dominates_binary():
    for seed in range(8):
        prob = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=1,
                                    k_tilde=2, seed=30 + seed)
        relaxed = oracle.relaxed_lp_solve(prob, 0)
        exh = oracle.exhaustive_bound(prob)
        assert relaxed.value >= exh.per_rb[0] - 1e-6
        # rounding the relaxed blanking stays below the binary optimum
        rounded = co.round_blanking(relaxed.blanking)
        val = co.bound_objective(prob.weights, prob.triples,
                                 rounded[:, None], prob.neighbors)
        assert val <= exh.per_rb[0] + 1e-6


def test_certified_gap_dominates_true_gap():
    # with the exact relaxed optimum as reference, the certified bound is
    # never below the true gap against the binary optimum
    for seed in range(6):
        prob = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=1,
                                    k_tilde=2, seed=60 + seed)
        relaxed = oracle.relaxed_lp_solve(prob, 0)
        binary = oracle.exhaustive_bound(prob).per_rb[0]
        res = co.run_coordination(prob, co.IcicConfig(n_iter=5))
        p_hat = res.gap.p_hat
        certified = co.optimality_gap(relaxed.value, p_hat)
        true_gap = co.optimality_gap(binary, min(p_hat, binary))
        assert certified >= true_gap - 1e-9


def test_relaxed_lp_satisfies_constraints():
    prob = random_desk_instance(n_sectors=6, users_per_sector=3, n_rbs=1,
                                k_tilde=2, seed=50)
    res = oracle.relaxed_lp_solve(prob, 0)
    nmap = prob.neighbors
    for k in range(6):
        assert res.x[k].sum() + res.blanking[k] == pytest.approx(1.0, abs=1e-8)
        assert np.all(res.y[k].sum(axis=1) <= res.x[k] + 1e-8)
        for pos, j in enumerate(nmap.nbr[k]):
            assert res.y[k][:, pos].sum() <= res.blanking[j] + 1e-8


def test_lp_flow_reference_matches_tiny_case():
    from icicsim import mcnf
    net = mcnf.FlowNetwork(supply=np.array([1.0, -1.0]))
    net.add_arc(0, 1, 1.0, 5.0)
    assert oracle.lp_flow_reference(net) == pytest.approx(5.0)


def test_oracle_import_leaves_scipy_optimize_unloaded():
    # only the two LP references need scipy; gapbench's exhaustive
    # search should not pay for loading it
    src = os.path.dirname(os.path.dirname(icicsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, icicsim.oracle; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
