"""Flow solver: hand cases, brute-force and LP cross-checks, certificates."""

import itertools

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import mcnf, oracle


def _flow_instance(supply, arcs):
    net = mcnf.FlowNetwork(supply=np.asarray(supply, dtype=float))
    for tail, head, cap, cost in arcs:
        net.add_arc(tail, head, cap, cost)
    return net


def brute_force_integral(net):
    """Enumerate every integral flow; None if infeasible."""
    caps = [int(c) for c in net.cap]
    best = None
    for combo in itertools.product(*[range(c + 1) for c in caps]):
        out = np.zeros(net.num_nodes)
        for a, f in enumerate(combo):
            out[net.tail[a]] += f
            out[net.head[a]] -= f
        if np.array_equal(out, net.supply):
            val = float(np.dot(net.cost, np.array(combo, dtype=float)))
            if best is None or val < best:
                best = val
    return best


def test_single_arc():
    net = _flow_instance([1, -1], [(0, 1, 1, 5.0)])
    sol = mcnf.solve(net)
    assert sol.flow[0] == 1.0
    assert sol.objective == 5.0
    assert mcnf.verify(net, sol) == []


def test_parallel_arcs_pick_cheap():
    net = _flow_instance([1, -1], [(0, 1, 1, 3.0), (0, 1, 1, 1.0)])
    sol = mcnf.solve(net)
    assert sol.flow[1] == 1.0 and sol.flow[0] == 0.0
    assert sol.objective == 1.0


def test_random_integral_instances_match_enumeration():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 30:
        v = int(rng.integers(4, 9))
        sup = np.zeros(v)
        for _ in range(int(rng.integers(1, 3))):
            i, j = rng.choice(v, 2, replace=False)
            sup[i] += 1
            sup[j] -= 1
        net = mcnf.FlowNetwork(supply=sup)
        for _ in range(int(rng.integers(v, 2 * v))):
            i, j = rng.choice(v, 2, replace=False)
            net.add_arc(int(i), int(j), float(rng.integers(1, 3)),
                        float(rng.integers(-4, 6)))
        try:
            sol = mcnf.solve(net)
        except (mcnf.InfeasibleFlowError, mcnf.NegativeCycleError):
            continue
        assert mcnf.verify(net, sol) == []
        ref = brute_force_integral(net)
        assert ref is not None
        assert abs(sol.objective - ref) < 1e-9
        solved += 1


def test_integrality_for_integral_data():
    rng = np.random.default_rng(7)
    solved = 0
    while solved < 25:
        v = int(rng.integers(4, 8))
        sup = np.zeros(v)
        sup[0] = float(rng.integers(1, 4))
        sup[-1] = -sup[0]
        net = mcnf.FlowNetwork(supply=sup)
        for _ in range(2 * v):
            i, j = rng.choice(v, 2, replace=False)
            net.add_arc(int(i), int(j), float(rng.integers(1, 4)),
                        float(rng.integers(-3, 8)))
        try:
            sol = mcnf.solve(net)
        except (mcnf.InfeasibleFlowError, mcnf.NegativeCycleError):
            continue
        assert np.array_equal(sol.flow, np.round(sol.flow))
        solved += 1


def test_real_valued_instances_match_dense_lp():
    rng = np.random.default_rng(3)
    solved = 0
    while solved < 25:
        v = int(rng.integers(4, 8))
        sup = rng.uniform(-1, 1, v)
        sup -= sup.mean()
        net = mcnf.FlowNetwork(supply=sup)
        # a high-capacity ring keeps most instances feasible
        for i in range(v):
            net.add_arc(i, (i + 1) % v, float(v), float(rng.uniform(0, 2)))
        for _ in range(v):
            i, j = rng.choice(v, 2, replace=False)
            net.add_arc(int(i), int(j), float(rng.uniform(0.2, 1.5)),
                        float(rng.uniform(-2, 3)))
        try:
            sol = mcnf.solve(net)
        except mcnf.NegativeCycleError:
            continue
        assert mcnf.verify(net, sol) == []
        assert abs(sol.objective - oracle.lp_flow_reference(net)) < 1e-7
        solved += 1


def test_verify_flags_corrupted_flow_at_two_nodes():
    net = _flow_instance([1, 0, -1], [(0, 1, 2, 1.0), (1, 2, 2, 1.0)])
    sol = mcnf.solve(net)
    sol.flow[0] += 0.1
    violations = [v for v in mcnf.verify(net, sol) if "mass balance" in v]
    assert len(violations) == 2


def test_potential_gauge_invariance():
    net = _flow_instance([2, -1, -1], [(0, 1, 1, 1.0), (0, 2, 1, 4.0),
                                       (1, 2, 1, 2.0)])
    sol = mcnf.solve(net)
    assert mcnf.verify(net, sol) == []
    sol.potential = sol.potential + 17.5
    assert mcnf.verify(net, sol) == []


def test_unbalanced_supplies_rejected():
    with pytest.raises(mcnf.UnbalancedError):
        mcnf.FlowNetwork(supply=np.array([1.0, -0.5]))


def test_infeasible_raises():
    net = _flow_instance([2, -2], [(0, 1, 1, 1.0)])
    with pytest.raises(mcnf.InfeasibleFlowError):
        mcnf.solve(net)


def test_negative_cycle_detected():
    net = _flow_instance([0, 0], [(0, 1, 1, -2.0), (1, 0, 1, -2.0)])
    with pytest.raises(mcnf.NegativeCycleError):
        mcnf.solve(net)


def test_solve_subproblem_refuses_negative_reduced_costs(monkeypatch):
    # all-zero starting potentials leave each RB -> user arc at reduced
    # cost -w*r, so the first Dijkstra pass meets a negative one
    own, nbr, w, r, rtil = oracle.random_lanes(np.random.default_rng(6),
                                               12, 2, 3)
    own[:] = 0.0            # the RB source has supply to route
    co.solve_subproblem(own[0], nbr[0], w[0], r[0], rtil[0])  # fine as is
    monkeypatch.setattr(mcnf, "_initial_potentials",
                        lambda net: np.zeros(net.num_nodes))
    hit = np.flatnonzero((w * r > 0).any(axis=1))
    assert hit.size > 6
    for i in hit:
        with pytest.raises(AssertionError, match="reduced-cost invariant"):
            co.solve_subproblem(own[i], nbr[i], w[i], r[i], rtil[i])
