"""Lane-batched successive shortest paths for the (sector, RB) subproblems.

All subproblems of one master pass share one flow topology (see the
coordinator module docstring) and differ only in supplies and costs, so
`solve_lanes` solves many of them at once: every array carries a leading
lane axis and each step of `mcnf.solve` runs on all lanes together. The
arithmetic is `mcnf.solve`'s, operation for operation, so every lane is
bit-identical to `coordinator.solve_subproblem`; that per-lane solver
stays as the reference the tests and `icicsim verify` compare against.

Node numbering follows `build_subproblem_network`: 0 the RB source,
1..M users, M+1..M+Kt neighbours, M+Kt+1 the collector. Flows are kept
per arc, (lanes, A), in that function's arc order; costs per residual
arc, (lanes, 2A): the A arcs, then their reverses at minus the cost.
Between any two nodes runs at most one residual arc, so Dijkstra reads
the reduced costs from one dense (lanes, V, V) matrix, rewritten each
round.

Points that keep the result bit-exact:
  - the arc list is in topological order, so one Bellman-Ford sweep in
    arc order is the fixpoint; the user loops stay sequential because
    the `cand < dist - 1e-15` test decides ties in arc order;
  - Dijkstra pops the unfinished node of least distance, lowest index on
    ties, which is the (distance, node) order of mcnf's heap;
  - phi uses batched matmul (one BLAS dot per lane, as `np.dot`) and a
    sum over the same contiguous (M, Kt) block as `np.sum`.

One Dijkstra step is a handful of numpy calls on (lanes, V) arrays.
`redp` holds the reduced costs clipped at 0, +inf on every pair of nodes
without a usable residual arc. It is allocated once per chunk, all +inf,
with one (V, V) block per working row. Pairs of nodes without a
residual arc are never written, and each round rewrites the residual-arc
positions of every live row, so a row left over from a lane that has
finished is never read. A step is then one argmin over `key` (dist with
settled nodes at +inf), one gather of row u of redp, one add, one
`nd < dist - 1e-15` compare and masked copies into dist, key and pred. Popped keys never decrease and redp >= 0, so the
compare is already false for settled nodes and for lanes with nothing
left to pop; neither needs a mask of its own.

The reduced-cost check runs once per round, after Dijkstra, and is
exactly as strict as mcnf's. Each node records the step it settled at
(V if never), and the round fails if a usable residual arc u -> v has
red < -1e-7 * max(1, |cost|) and u settled before v: mcnf tests the arcs
out of u when it pops u, skipping heads already done. Usable arcs with
red >= -1e-7 cannot fail, so the floor is computed only for the rest.
A healthy round has none, so the round looks them up with `nonzero`
only when `((red < -1e-7) & usable).any()` holds.

Lane compaction: a lane is finished once no node holds excess above its
tolerance. At the top of every augmentation round the finished lanes
write x, y and pi to the chunk's outputs and leave the working arrays,
so Dijkstra, the retrace and the potential shift run on live lanes only.
Every step is elementwise per lane or a reduction within one lane, and
compaction keeps the lanes in order, so dropping finished rows changes
no live lane's arithmetic and the lowest stuck lane is still the one an
InfeasibleFlowError names.

Subsets: for the same reason a lane's result does not depend on which
lanes share its chunk. A caller that re-solves only some lanes passes
their indices as `at` and the earlier outputs as `out`; each chunk
gathers up to CHUNK of those lanes and writes their results back into
`out`, and the other lanes keep theirs.

CHUNK is 1024 lanes. Only redp is (lanes, V, V), one per chunk; the
flows and costs are (lanes, A) and (lanes, 2A). On the 57-sector, 50-RB
benchmark round (V = 11, seed 7919, one perfbench run of 24 s per CHUNK
on a 2-vCPU host, every lane solved in every pass) wall time and peak
RSS were 0.33 s and 49.7 MB at 256 lanes, 0.28 s and 50.1 MB at 512,
0.26 s and 51.2 MB at 768, and 0.25 s and 52.2 MB at 1024.
"""

import numpy as np

from . import mcnf

CHUNK = 1024    # lanes per array pass; bounds the per-round temporaries


def solve_lanes(own, nbr, w, r, rtil, at=None, out=None):
    """Solve L subproblems that share M users and Kt neighbours.

    The arguments are those of `coordinator.solve_subproblem` stacked
    along a leading lane axis: own (L,), nbr (L, Kt), w (L, M), r (L, M),
    rtil (L, M, Kt). Returns x (L, M), y (L, M, Kt), phi (L,),
    lam_eq (L,) and lam_nbr (L, Kt).

    `out`, when given, holds those five arrays, and the results are
    written into it and it is returned. `at`, when given, lists the lanes
    to solve; the other lanes of `out` keep their values, so `at` needs
    `out`. Each chunk gathers its own lanes' inputs, so solving a subset
    copies no full-size inputs or outputs.
    """
    if at is not None and out is None:
        raise ValueError("solving a subset of lanes needs `out`")
    own = np.asarray(own, dtype=float)
    nbr = np.asarray(nbr, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    rtil = np.asarray(rtil, dtype=float)
    n_lanes, m = w.shape
    kt = nbr.shape[1]
    if out is None:
        out = (np.empty((n_lanes, m)), np.empty((n_lanes, m, kt)),
               np.empty(n_lanes), np.empty(n_lanes), np.empty((n_lanes, kt)))
    x, y, phi, lam_eq, lam_nbr = out
    coll = m + kt + 1
    todo = n_lanes if at is None else at.size
    for lo in range(0, todo, CHUNK):
        c = slice(lo, lo + CHUNK) if at is None else at[lo:lo + CHUNK]
        x[c], y[c], pi = _successive_shortest_paths(own[c], nbr[c], w[c],
                                                    r[c], rtil[c])
        # coordinator.subproblem_objective, lane by lane
        phi[c] = np.matmul(w[c, None, :], (x[c] * r[c])[:, :, None])[:, 0, 0] \
            + (w[c, :, None] * y[c] * rtil[c]).sum(axis=(1, 2))
        lam_eq[c] = pi[:, coll] - pi[:, 0]
        lam_nbr[c] = np.maximum(pi[:, m + 1:coll] - pi[:, coll, None], 0.0)
    return out


def _initial_potentials(cost_x, cost_y):
    """Bellman-Ford from an all-zeros start, one sweep in arc order; returns
    pi (L, V) as mcnf._initial_potentials does for each lane."""
    n_lanes, m, kt = cost_y.shape
    users = slice(1, m + 1)
    nbrs = slice(m + 1, m + kt + 1)
    coll = m + kt + 1
    dist = np.zeros((n_lanes, m + kt + 2))
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
    return -dist


def _residual_arcs(m, kt):
    """Tail and head of each residual arc of the graph with M users and Kt
    neighbours, and the index of the residual arc from node u to node v at
    [u, v]. The first half are the arcs in `build_subproblem_network` order
    (RB -> user, user -> neighbour user-major, user -> collector, collector
    -> neighbour), the second half their reverses in the same order."""
    coll = m + kt + 1
    users = np.arange(1, m + 1)
    nbrs = np.arange(m + 1, coll)
    tail = np.concatenate(([0] * m, np.repeat(users, kt), users, [coll] * kt))
    head = np.concatenate((users, np.tile(nbrs, m), [coll] * m, nbrs))
    res_tail = np.concatenate((tail, head))
    res_head = np.concatenate((head, tail))
    res_of = np.zeros((coll + 1, coll + 1), dtype=np.intp)
    res_of[res_tail, res_head] = np.arange(res_tail.size)
    return res_tail, res_head, res_of


def _successive_shortest_paths(own, nbr, w, r, rtil):
    """mcnf.solve on a chunk of lanes; returns x (L, M), y (L, M, Kt) and
    pi (L, V)."""
    n_lanes, m = w.shape
    kt = nbr.shape[1]
    v_count = m + kt + 2
    coll = m + kt + 1
    res_tail, res_head, res_of = _residual_arcs(m, kt)
    n_arcs = res_tail.size // 2
    res_at = res_tail * v_count + res_head    # flat (tail, head) position

    # node supplies; from here on, the excess still to be routed
    excess = np.zeros((n_lanes, v_count))
    excess[:, 0] = 1.0 - own
    excess[:, m + 1:coll] = -nbr
    excess[:, coll] = -1.0 + own + nbr.sum(axis=1)
    eps = mcnf.BALANCE_TOL * np.maximum(1.0, np.abs(excess).sum(axis=1))

    cost_x = -w * r                         # RB -> user
    cost_y = -w[:, :, None] * rtil          # user -> neighbour
    pi = _initial_potentials(cost_x, cost_y)
    # residual arc costs; a reverse arc costs minus its arc, so -0.0 for
    # the zero-cost arcs into and out of the collector
    cost = np.zeros((n_lanes, 2 * n_arcs))
    cost[:, :m] = cost_x
    cost[:, m:m + m * kt] = cost_y.reshape(n_lanes, m * kt)
    np.negative(cost[:, :n_arcs], out=cost[:, n_arcs:])

    x = np.empty((n_lanes, m))
    y = np.empty((n_lanes, m, kt))
    pi_out = np.empty((n_lanes, v_count))
    ids = np.arange(n_lanes)     # chunk lane of each working row
    flow = np.zeros((n_lanes, n_arcs))
    # redp: per working row, the reduced costs clipped at 0 in a dense
    # (tail, head) matrix, +inf where no usable residual arc runs; pairs
    # without a residual arc are never written
    redp = np.full((n_lanes, v_count * v_count), np.inf)
    redp_rows = redp.reshape(-1, v_count)
    while True:
        has_source = excess > eps[:, None]
        active = has_source.any(axis=1)
        if not active.all():
            # finished lanes leave: write their result, keep the rest
            gone = np.flatnonzero(~active)
            done = ids[gone]
            x[done] = flow[gone, :m]
            y[done] = flow[gone, m:m + m * kt].reshape(-1, m, kt)
            pi_out[done] = pi.take(gone, axis=0)
            keep = np.flatnonzero(active)
            ids = ids.take(keep)
            excess = excess.take(keep, axis=0)
            eps = eps.take(keep)
            cost = cost.take(keep, axis=0)
            flow = flow.take(keep, axis=0)
            pi = pi.take(keep, axis=0)
            has_source = has_source.take(keep, axis=0)
        if ids.size == 0:
            break
        rows = np.arange(ids.size)
        s = np.argmax(has_source, axis=1)

        # usable: residual capacity above eps, 1 - flow on an arc and its
        # flow on the reverse
        usable = np.empty(cost.shape, dtype=bool)
        np.greater(1.0 - flow, eps[:, None], out=usable[:, :n_arcs])
        np.greater(flow, eps[:, None], out=usable[:, n_arcs:])
        red = cost - pi[:, res_tail]
        red += pi[:, res_head]
        # the usable arcs that may break the invariant, checked below;
        # a healthy round has none
        suspect = (red < -1e-7) & usable
        check = suspect.any()
        if check:
            neg_lane, neg_arc = np.nonzero(suspect)
            neg_red = red[neg_lane, neg_arc]
        np.maximum(red, 0.0, out=red)
        np.copyto(red, np.inf, where=~usable)
        redp[:ids.size, res_at] = red
        del red, usable, suspect

        # Dijkstra. key is dist with settled nodes at +inf, and a step
        # reads row u of redp through one flat index per lane. Popped keys
        # never decrease and redp >= 0, so nd < dist - 1e-15 is false for
        # settled nodes and for lanes with nothing left to pop.
        dist = np.full((ids.size, v_count), np.inf)
        dist[rows, s] = 0.0
        key = dist.copy()
        key_flat = key.reshape(-1)
        row_at = rows * v_count
        pred = np.zeros((ids.size, v_count), dtype=np.intp)
        popped, pop_dist = [], []
        for _ in range(v_count):
            u = key.argmin(axis=1)
            at = row_at + u
            d = key_flat.take(at)
            key_flat[at] = np.inf
            nd = redp_rows.take(at, axis=0)
            nd += d[:, None]
            better = nd < dist - 1e-15
            np.copyto(dist, nd, where=better)
            np.copyto(key, nd, where=better)
            np.copyto(pred, u[:, None], where=better)
            popped.append(u)
            pop_dist.append(d)

        if check:
            # mcnf.solve's check on the arcs it tests: usable, from a
            # settled node u to a node v not yet settled when u was
            # order: the step each node settled at, V if never; a step
            # that pops nothing writes to the spare last column
            popped = np.where(np.isfinite(pop_dist), popped, v_count)
            order = np.full((ids.size, v_count + 1), v_count)
            order[rows, popped] = np.arange(v_count)[:, None]
            floor = -1e-7 * np.maximum(1.0, np.abs(cost[neg_lane, neg_arc]))
            if np.any((neg_red < floor)
                      & (order[neg_lane, res_tail[neg_arc]]
                         < order[neg_lane, res_head[neg_arc]])):
                raise AssertionError("reduced-cost invariant broken")

        deficit = (excess < -eps[:, None]) & np.isfinite(dist)
        stuck = ~deficit.any(axis=1)
        if stuck.any():
            # rows keep chunk order, so this is the lowest stuck lane
            lane = int(np.argmax(stuck))
            raise mcnf.InfeasibleFlowError(
                f"cannot route remaining supply {excess[lane, s[lane]]:.3e} "
                f"from node {s[lane]}")
        t = np.argmin(np.where(deficit, dist, np.inf), axis=1)

        # retrace the paths (t != s, so every lane takes a first step),
        # then find the bottlenecks and augment on all path arcs at once;
        # no path holds an arc twice
        tails, heads, walked = [], [], []
        v = t
        walking = np.ones(ids.size, dtype=bool)
        while walking.any():
            p = pred[rows, v]
            tails.append(p)
            heads.append(v)
            walked.append(walking)
            v = np.where(walking, p, v)
            walking = walking & (v != s)
        walked = np.array(walked)
        idx = np.broadcast_to(rows, walked.shape)[walked]
        arc = res_of[np.array(tails)[walked], np.array(heads)[walked]]
        fwd = arc < n_arcs
        arc %= n_arcs
        resid = np.full(walked.shape, np.inf)
        resid[walked] = np.where(fwd, 1.0 - flow[idx, arc], flow[idx, arc])
        amount = np.minimum(np.minimum(excess[rows, s], -excess[rows, t]),
                            resid.min(axis=0))
        # a reverse arc gives flow back: adding -amount subtracts exactly
        step = amount[idx]
        np.negative(step, out=step, where=~fwd)
        flow[idx, arc] += step
        excess[rows, s] -= amount
        excess[rows, t] += amount

        # capped potential shift, as in mcnf.solve: min(inf, dt) is dt
        pi -= np.minimum(dist, dist[rows, t][:, None])
    return x, y, pi_out
