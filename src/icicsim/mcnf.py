"""Minimum-cost network flow with real-valued supplies and dual extraction.

Solver: successive shortest paths on the residual graph, with node
potentials kept so Dijkstra always sees nonnegative reduced costs.
Negative arc costs are absorbed by a Bellman-Ford initialization pass
(the pass doubles as a negative-cycle check). Graphs in this package
are tiny (a few dozen nodes), so everything is plain Python + numpy.

This solver takes one network at a time and is the reference: the master
loop solves its subproblems in closed form with a `lanes.LaneSet`, and
tests/test_lanes.py and `icicsim verify` check each of its lanes against
`solve` (see `oracle.lane_mismatches`).

Conventions:
  node balance   sum(flow out) - sum(flow in) = supply b_i
  reduced cost   red(a) = cost - pi[tail] + pi[head]
  optimality     red >= 0 on non-saturated arcs, red <= 0 on arcs with flow
  sensitivity    d(min cost)/d(b_i) = pi[i]
"""

from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

BALANCE_TOL = 1e-12     # supply balance
OPT_TOL = 1e-9          # feasibility / complementary slackness


class UnbalancedError(ValueError):
    """Supplies do not sum to zero."""


class InfeasibleFlowError(RuntimeError):
    """No flow satisfies the supplies within the capacities."""


class NegativeCycleError(RuntimeError):
    """The arc set contains a negative-cost cycle (never happens for the
    scheduling subproblem graphs, which are acyclic)."""


@dataclass
class FlowNetwork:
    """Node-arc MCNF instance. Arc lower bounds are all zero."""

    supply: np.ndarray                      # (V,) real, sums to ~0
    tail: list = field(default_factory=list)
    head: list = field(default_factory=list)
    cap: list = field(default_factory=list)
    cost: list = field(default_factory=list)

    def __post_init__(self):
        self.supply = np.asarray(self.supply, dtype=float)
        scale = max(1.0, float(np.abs(self.supply).sum()))
        if abs(float(self.supply.sum())) > BALANCE_TOL * scale:
            raise UnbalancedError(
                f"supplies sum to {self.supply.sum():.3e}, expected 0")

    @property
    def num_nodes(self):
        return self.supply.shape[0]

    @property
    def num_arcs(self):
        return len(self.tail)

    def add_arc(self, tail, head, cap, cost):
        if cap < 0:
            raise ValueError(f"arc ({tail}->{head}) has capacity {cap} < 0")
        if not np.isfinite(cost):
            raise ValueError(f"arc ({tail}->{head}) has non-finite cost")
        self.tail.append(int(tail))
        self.head.append(int(head))
        self.cap.append(float(cap))
        self.cost.append(float(cost))
        return self.num_arcs - 1


@dataclass
class FlowSolution:
    flow: np.ndarray         # (A,) within [0, cap]
    potential: np.ndarray    # (V,) dual of the balance constraints
    objective: float         # sum(cost * flow)


def _initial_potentials(net):
    """Bellman-Ford fixpoint from an implicit all-zeros source.

    Leaves pi with cost - pi[tail] + pi[head] >= 0 on every arc so the
    first Dijkstra pass is valid even with negative arc costs.
    """
    dist = np.zeros(net.num_nodes)
    tails, heads, costs = net.tail, net.head, net.cost
    for it in range(net.num_nodes + 1):
        changed = False
        for a in range(net.num_arcs):
            if net.cap[a] <= 0.0:
                continue
            cand = dist[tails[a]] + costs[a]
            if cand < dist[heads[a]] - 1e-15:
                dist[heads[a]] = cand
                changed = True
        if not changed:
            break
    else:
        raise NegativeCycleError("negative-cost cycle detected")
    return -dist


def solve(net):
    """Minimize total cost subject to balances and capacities.

    Returns a FlowSolution whose potentials certify optimality through
    the reduced-cost conditions (see verify). Raises InfeasibleFlowError
    if some supply cannot be routed.
    """
    V, A = net.num_nodes, net.num_arcs
    flow = np.zeros(A)
    excess = net.supply.copy()
    scale = max(1.0, float(np.abs(net.supply).sum()))
    eps = BALANCE_TOL * scale

    pi = _initial_potentials(net)

    # residual adjacency: (node) -> list of (arc, forward?)
    adj = [[] for _ in range(V)]
    for a in range(A):
        adj[net.tail[a]].append((a, True))
        adj[net.head[a]].append((a, False))

    cap = np.asarray(net.cap)
    cost = np.asarray(net.cost)

    while True:
        sources = np.nonzero(excess > eps)[0]
        if sources.size == 0:
            break
        s = int(sources[0])

        # Dijkstra with reduced costs on the residual graph
        dist = np.full(V, np.inf)
        dist[s] = 0.0
        pred = [None] * V          # (arc, forward?) reaching the node
        done = np.zeros(V, dtype=bool)
        heap = [(0.0, s)]
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for a, fwd in adj[u]:
                if fwd:
                    resid = cap[a] - flow[a]
                    v = net.head[a]
                    red = cost[a] - pi[u] + pi[v]
                else:
                    resid = flow[a]
                    v = net.tail[a]
                    red = -cost[a] - pi[u] + pi[v]
                if resid <= eps or done[v]:
                    continue
                if red < -1e-7 * max(1.0, abs(cost[a])):
                    raise AssertionError("reduced-cost invariant broken")
                nd = d + max(red, 0.0)
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    pred[v] = (a, fwd)
                    heappush(heap, (nd, v))

        deficits = np.nonzero((excess < -eps) & np.isfinite(dist))[0]
        if deficits.size == 0:
            raise InfeasibleFlowError(
                f"cannot route remaining supply {excess[s]:.3e} from node {s}")
        t = int(deficits[np.argmin(dist[deficits])])

        # retrace the path and find the bottleneck
        amount = min(excess[s], -excess[t])
        path = []
        v = t
        while v != s:
            a, fwd = pred[v]
            path.append((a, fwd))
            resid = cap[a] - flow[a] if fwd else flow[a]
            amount = min(amount, resid)
            v = net.tail[a] if fwd else net.head[a]
        for a, fwd in path:
            flow[a] += amount if fwd else -amount
        excess[s] -= amount
        excess[t] += amount

        # keep reduced costs nonnegative for the next pass; unreached
        # nodes take the capped shift too (no residual arc can leave a
        # reached node toward an unreached one, so this is safe)
        dt = dist[t]
        pi -= np.minimum(np.nan_to_num(dist, posinf=dt), dt)

    objective = float(np.dot(cost, flow)) if A else 0.0
    return FlowSolution(flow=flow, potential=pi, objective=objective)


def verify(net, sol, tol=OPT_TOL):
    """Check mass balance, capacity bounds, and complementary slackness.

    Report-only: returns a list of violation strings (empty = optimal
    certificate accepted). Potentials shifted by any constant pass
    unchanged, since only potential differences enter the reduced costs.
    """
    violations = []
    V, A = net.num_nodes, net.num_arcs
    flow, pi = sol.flow, sol.potential
    if flow.shape[0] != A or pi.shape[0] != V:
        return [f"dimension mismatch: {flow.shape[0]} flows for {A} arcs, "
                f"{pi.shape[0]} potentials for {V} nodes"]

    net_out = np.zeros(V)
    for a in range(A):
        net_out[net.tail[a]] += flow[a]
        net_out[net.head[a]] -= flow[a]
    for i in range(V):
        if abs(net_out[i] - net.supply[i]) > tol:
            violations.append(
                f"mass balance at node {i}: out-in={net_out[i]:.12g} "
                f"supply={net.supply[i]:.12g}")

    for a in range(A):
        if flow[a] < -tol or flow[a] > net.cap[a] + tol:
            violations.append(
                f"capacity on arc {a}: flow={flow[a]:.12g} cap={net.cap[a]:.12g}")
        red = net.cost[a] - pi[net.tail[a]] + pi[net.head[a]]
        if flow[a] < net.cap[a] - tol and red < -tol:
            violations.append(
                f"slackness on arc {a}: red={red:.3e} < 0 but not saturated")
        if flow[a] > tol and red > tol:
            violations.append(
                f"slackness on arc {a}: red={red:.3e} > 0 but flow positive")
    return violations

