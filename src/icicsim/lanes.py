"""Lane-batched successive shortest paths for the (sector, RB) subproblems.

All subproblems of one master pass share one flow topology (see the
coordinator module docstring) and differ only in supplies and costs, so
`solve_lanes` solves many of them at once: every array carries a leading
lane axis and each step of `mcnf.solve` runs on all lanes together. The
arithmetic is `mcnf.solve`'s, operation for operation, so every lane is
bit-identical to `coordinator.solve_subproblem`; that per-lane solver
stays as the reference the tests and `icicsim verify` compare against.

Node numbering follows `build_subproblem_network`: 0 the RB source,
1..M users, M+1..M+Kt neighbours, M+Kt+1 the collector. Between any two
nodes there is at most one arc, so flows, costs and residual capacities
are dense (lanes, V, V) matrices indexed by (tail, head).

Points that keep the result bit-exact:
  - the arc list is in topological order, so one Bellman-Ford sweep in
    arc order is the fixpoint; the user loops stay sequential because
    the `cand < dist - 1e-15` test decides ties in arc order;
  - Dijkstra pops the unfinished node of least distance, lowest index on
    ties, which is the (distance, node) order of mcnf's heap;
  - phi uses batched matmul (one BLAS dot per lane, as `np.dot`) and a
    sum over the same contiguous (M, Kt) block as `np.sum`.
"""

import numpy as np

from . import mcnf

CHUNK = 256     # lanes per array pass; bounds the (lanes, V, V) temporaries


def solve_lanes(own, nbr, w, r, rtil):
    """Solve L subproblems that share M users and Kt neighbours.

    The arguments are those of `coordinator.solve_subproblem` stacked
    along a leading lane axis: own (L,), nbr (L, Kt), w (L, M), r (L, M),
    rtil (L, M, Kt). Returns x (L, M), y (L, M, Kt), phi (L,),
    lam_eq (L,) and lam_nbr (L, Kt).
    """
    own = np.asarray(own, dtype=float)
    nbr = np.asarray(nbr, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    rtil = np.asarray(rtil, dtype=float)
    n_lanes, m = w.shape
    kt = nbr.shape[1]
    x = np.empty((n_lanes, m))
    y = np.empty((n_lanes, m, kt))
    phi = np.empty(n_lanes)
    lam_eq = np.empty(n_lanes)
    lam_nbr = np.empty((n_lanes, kt))
    coll = m + kt + 1
    for lo in range(0, n_lanes, CHUNK):
        c = slice(lo, lo + CHUNK)
        flow, pi = _successive_shortest_paths(own[c], nbr[c], w[c], r[c],
                                              rtil[c])
        xc = x[c] = flow[:, 0, 1:m + 1]
        yc = y[c] = flow[:, 1:m + 1, m + 1:coll]
        # coordinator.subproblem_objective, lane by lane
        phi[c] = np.matmul(w[c, None, :], (xc * r[c])[:, :, None])[:, 0, 0] \
            + (w[c, :, None] * yc * rtil[c]).sum(axis=(1, 2))
        lam_eq[c] = pi[:, coll] - pi[:, 0]
        lam_nbr[c] = np.maximum(pi[:, m + 1:coll] - pi[:, coll, None], 0.0)
    return x, y, phi, lam_eq, lam_nbr


def _successive_shortest_paths(own, nbr, w, r, rtil):
    """mcnf.solve on a chunk of lanes; returns flow (L, V, V), pi (L, V)."""
    n_lanes, m = w.shape
    kt = nbr.shape[1]
    v_count = m + kt + 2
    coll = m + kt + 1
    users = slice(1, m + 1)
    nbrs = slice(m + 1, coll)
    lane_ids = np.arange(n_lanes)

    # node supplies; from here on, the excess still to be routed
    excess = np.zeros((n_lanes, v_count))
    excess[:, 0] = 1.0 - own
    excess[:, nbrs] = -nbr
    excess[:, coll] = -1.0 + own + nbr.sum(axis=1)
    eps = mcnf.BALANCE_TOL * np.maximum(1.0, np.abs(excess).sum(axis=1))

    cost_x = -w * r                         # RB -> user
    cost_y = -w[:, :, None] * rtil          # user -> neighbour
    is_arc = np.zeros((v_count, v_count), dtype=bool)
    is_arc[0, users] = True
    is_arc[users, nbrs] = True
    is_arc[users, coll] = True
    is_arc[coll, nbrs] = True
    cost = np.zeros((n_lanes, v_count, v_count))
    cost[:, 0, users] = cost_x
    cost[:, users, nbrs] = cost_y
    # residual arc u -> v: the arc itself, or the reverse of arc v -> u
    cost = np.where(is_arc, cost, -cost.transpose(0, 2, 1))

    # Bellman-Ford from an all-zeros start, one sweep in arc order
    dist = np.zeros((n_lanes, v_count))
    cand = dist[:, 0, None] + cost_x
    dist[:, users] = np.where(cand < dist[:, users] - 1e-15, cand,
                              dist[:, users])
    for i in range(m):
        cand = dist[:, 1 + i, None] + cost_y[:, i, :]
        dist[:, nbrs] = np.where(cand < dist[:, nbrs] - 1e-15, cand,
                                 dist[:, nbrs])
    for i in range(m):
        cand = dist[:, 1 + i] + 0.0
        dist[:, coll] = np.where(cand < dist[:, coll] - 1e-15, cand,
                                 dist[:, coll])
    cand = dist[:, coll, None] + 0.0
    dist[:, nbrs] = np.where(cand < dist[:, nbrs] - 1e-15, cand,
                             dist[:, nbrs])
    pi = -dist

    flow = np.zeros((n_lanes, v_count, v_count))
    while True:
        has_source = excess > eps[:, None]
        active = has_source.any(axis=1)
        if not active.any():
            break
        s = np.argmax(has_source, axis=1)

        # Dijkstra; residual capacities and reduced costs stay fixed
        # until it ends
        resid = 1.0 - flow
        np.copyto(resid, flow.transpose(0, 2, 1), where=~is_arc)
        usable = resid > eps[:, None, None]
        red = cost - pi[:, :, None]
        red += pi[:, None, :]
        dist = np.full((n_lanes, v_count), np.inf)
        dist[lane_ids, s] = 0.0
        pred = np.zeros((n_lanes, v_count), dtype=np.intp)
        done = np.repeat(~active[:, None], v_count, axis=1)
        for _ in range(v_count):
            key = np.where(done, np.inf, dist)
            u = np.argmin(key, axis=1)
            d = key[lane_ids, u]
            live = np.isfinite(d)
            if not live.any():
                break
            done[lane_ids[live], u[live]] = True
            red_u = red[lane_ids, u]
            relax = usable[lane_ids, u] & ~done & live[:, None]
            floor = -1e-7 * np.maximum(1.0, np.abs(cost[lane_ids, u]))
            if np.any(relax & (red_u < floor)):
                raise AssertionError("reduced-cost invariant broken")
            nd = d[:, None] + np.maximum(red_u, 0.0)
            better = relax & (nd < dist - 1e-15)
            dist = np.where(better, nd, dist)
            pred = np.where(better, u[:, None], pred)

        deficit = (excess < -eps[:, None]) & np.isfinite(dist)
        stuck = active & ~deficit.any(axis=1)
        if stuck.any():
            lane = int(np.argmax(stuck))
            raise mcnf.InfeasibleFlowError(
                f"cannot route remaining supply {excess[lane, s[lane]]:.3e} "
                f"from node {s[lane]}")
        t = np.argmin(np.where(deficit, dist, np.inf), axis=1)

        # retrace the paths and find the bottlenecks
        amount = np.minimum(excess[lane_ids, s], -excess[lane_ids, t])
        path = []
        v = t
        walking = active & (v != s)
        while walking.any():
            p = pred[lane_ids, v]
            amount = np.where(
                walking, np.minimum(amount, resid[lane_ids, p, v]), amount)
            path.append((lane_ids[walking], p[walking], v[walking]))
            v = np.where(walking, p, v)
            walking &= v != s
        for idx, p, v in path:
            fwd = is_arc[p, v]
            flow[idx[fwd], p[fwd], v[fwd]] += amount[idx[fwd]]
            back = ~fwd
            flow[idx[back], v[back], p[back]] -= amount[idx[back]]
        on = lane_ids[active]
        excess[on, s[on]] -= amount[on]
        excess[on, t[on]] += amount[on]

        # capped potential shift, as in mcnf.solve
        dt = dist[lane_ids, t][:, None]
        shift = np.minimum(np.where(np.isposinf(dist), dt, dist), dt)
        pi = np.where(active[:, None], pi - shift, pi)
    return flow, pi
