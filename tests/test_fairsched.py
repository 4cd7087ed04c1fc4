"""Average-rate filter, weight policies, and the per-sector argmax rule."""


import numpy as np
import pytest

from icicsim.fairsched import (AverageRateTracker, WeightPolicy,
                               compute_weights, local_schedule)


def test_update_direct_formula():
    tr = AverageRateTracker(num_users=1, t_c=100.0, rbar=np.array([1.0]))
    tr.update(np.array([2.0]))
    assert tr.rbar[0] == pytest.approx(1.01, abs=1e-15)


def test_update_fixed_point():
    tr = AverageRateTracker(num_users=3, t_c=50.0,
                            rbar=np.array([5.0, 1.0, 0.25]))
    before = tr.rbar.copy()
    tr.update(before)
    assert np.allclose(tr.rbar, before, rtol=0, atol=1e-15)


def test_update_geometric_convergence():
    t_c, target, r0, steps = 20.0, 7.0, 100.0, 1000
    tr = AverageRateTracker(num_users=1, t_c=t_c, rbar=np.array([r0]))
    for _ in range(steps):
        tr.update(np.array([target]))
    bound = abs(r0 - target) * (1.0 - 1.0 / t_c) ** steps
    assert abs(tr.rbar[0] - target) <= bound + 1e-12


def test_update_rejects_bad_window_and_rates():
    with pytest.raises(ValueError):
        AverageRateTracker(num_users=1, t_c=0.5)
    tr = AverageRateTracker(num_users=1)
    with pytest.raises(ValueError):
        tr.update(np.array([-1.0]))


def test_floor_keeps_rates_positive():
    tr = AverageRateTracker(num_users=2, t_c=2.0)
    for _ in range(100):
        tr.update(np.zeros(2))
    assert np.all(tr.rbar == 1e-3)


def test_weights_alpha_zero_is_max_sinr():
    tr = AverageRateTracker(num_users=4, rbar=np.array([1.0, 2.0, 4.0, 9.0]))
    w = compute_weights(WeightPolicy(alpha=0.0), tr)
    assert np.array_equal(w, np.ones(4))


def test_weights_alpha_one():
    tr = AverageRateTracker(num_users=1, rbar=np.array([2.0]))
    w = compute_weights(WeightPolicy(alpha=1.0), tr)
    assert w[0] == 0.5


def test_policy_validation():
    with pytest.raises(ValueError):
        WeightPolicy(alpha=-1.0)


def test_single_user_takes_all_live_rbs():
    assign = local_schedule(np.array([1.0]), np.ones((1, 5)),
                            np.array([0, 1, 0, 0, 1]))
    assert np.array_equal(assign[0], np.array([1, 0, 1, 1, 0]))


def test_argmax_example():
    assign = local_schedule(np.array([1.0, 1.0]),
                            np.array([[3.0], [5.0]]), np.array([0]))
    assert np.array_equal(assign[:, 0], np.array([0, 1]))


def test_matches_per_rb_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(30):
        m, n = 5, 8
        w = rng.uniform(0.1, 2.0, m)
        rates = rng.uniform(0.0, 500.0, (m, n))
        blank = rng.integers(0, 2, n)
        assign = local_schedule(w, rates, blank)
        for col in range(n):
            if blank[col]:
                assert assign[:, col].sum() == 0
                continue
            best = max(range(m), key=lambda i: (w[i] * rates[i, col], -i))
            assert assign[best, col] == 1 and assign[:, col].sum() == 1


def test_assignment_invariant_and_scaling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        w = rng.uniform(0.1, 3.0, m)
        rates = rng.uniform(0.0, 100.0, (m, n))
        blank = rng.integers(0, 2, n)
        assign = local_schedule(w, rates, blank)
        assert np.array_equal(assign.sum(axis=0), 1 - blank)
        scaled = local_schedule(17.25 * w, rates, blank)
        assert np.array_equal(assign, scaled)


def test_ties_break_to_lowest_user():
    assign = local_schedule(np.array([1.0, 1.0, 1.0]),
                            np.array([[2.0], [2.0], [2.0]]), np.array([0]))
    assert np.array_equal(assign[:, 0], np.array([1, 0, 0]))
