"""The (sector, RB) subproblems of a master pass, solved in closed form.

All subproblems of one master pass share one flow topology (see the
coordinator module docstring), so `solve_lanes` solves many of them at
once, every array with a leading lane axis. The RB source supplies
S = 1 - I_own <= 1 and every user arc has capacity 1, so no user arc
binds, and a unit of supply is worth

  c_j = max_i w_i (r_i + rtil_ij)   sent through a user to neighbor j,
  c_0 = max_i w_i r_i               sent through a user to the collector.

What is left is a fractional knapsack (Dantzig 1957, "Discrete-variable
extremum problems"): fill the neighbors of positive gain c_j - c_0 in
decreasing order of gain, each up to its level I_nbr[j] and through its
best user, until S runs out; the rest goes to the collector through its
best user. This is a vertex of the flow polytope: at most one neighbor
is partly filled. One optimal dual follows. Let t be the gain of the
first neighbor in that order that has positive gain and is not full, or
0 if there is none; then lam_eq = c_0 + t and lam_nbr[j] =
max(c_j - c_0 - t, 0), dual feasible and complementary slack by
construction, whatever the tie rule.

`coordinator.solve_subproblem` (one `mcnf.solve` per subproblem) stays
as the reference that `oracle.lane_mismatches` checks every lane against.
Ties (equal gains, a zero gain, users of equal value) leave several
optima, and the two may return different ones; their float orders
differ too, so values agree to rounding, not bit for bit. phi is
computed from the returned x and y as `coordinator.subproblem_objective`
computes it.
"""

import numpy as np

from . import mcnf


def solve_lanes(own, nbr, w, r, rtil):
    """Solve L subproblems that share M users and Kt neighbours.

    The arguments are those of `coordinator.solve_subproblem` stacked
    along a leading lane axis: own (L,), nbr (L, Kt), w (L, M), r (L, M),
    rtil (L, M, Kt). Returns x (L, M), y (L, M, Kt), phi (L,),
    lam_eq (L,) and lam_nbr (L, Kt). A blanking level outside [0, 1]
    (or NaN) is an mcnf.InfeasibleFlowError naming the lowest such lane.
    """
    own, nbr, w, r, rtil = (np.asarray(a, dtype=float)
                            for a in (own, nbr, w, r, rtil))
    n_lanes, m = w.shape
    kt = nbr.shape[1]
    levels = np.column_stack((own, nbr))
    bad = ~((levels >= 0.0) & (levels <= 1.0))
    if bad.any():
        lane, col = np.argwhere(bad)[0]
        raise mcnf.InfeasibleFlowError(
            f"lane {lane}: blanking level {float(levels[lane, col])!r} "
            f"outside [0, 1]")
    lane = np.arange(n_lanes)

    wr = w * r                              # a unit to the collector
    via = wr[:, :, None] + w[:, :, None] * rtil     # a unit to neighbor j
    user_0 = wr.argmax(axis=1)              # lowest index on ties
    user_j = via.argmax(axis=1)             # (L, Kt)
    c_0 = wr.max(axis=1)
    gain = via.max(axis=1) - c_0[:, None]

    # the knapsack, in decreasing gain order (lowest index on ties)
    order = np.argsort(-gain, axis=1, kind="stable")
    gain_sorted = np.take_along_axis(gain, order, axis=1)
    cap = np.where(gain_sorted > 0.0,
                   np.take_along_axis(nbr, order, axis=1), 0.0)
    supply = 1.0 - own
    start = np.zeros((n_lanes, kt))
    np.cumsum(cap[:, :-1], axis=1, out=start[:, 1:])
    fill_sorted = np.minimum(cap, np.maximum(supply[:, None] - start, 0.0))
    fill = np.empty((n_lanes, kt))
    np.put_along_axis(fill, order, fill_sorted, axis=1)

    # each neighbor's fill through its best user, the rest to the collector
    y = np.zeros((n_lanes, m, kt))
    y[lane[:, None], user_j, np.arange(kt)] = fill
    x = y.sum(axis=2)
    x[lane, user_0] += np.maximum(supply - fill.sum(axis=1), 0.0)

    # coordinator.subproblem_objective, lane by lane
    phi = np.matmul(w[:, None, :], (x * r)[:, :, None])[:, 0, 0] \
        + (w[:, :, None] * y * rtil).sum(axis=(1, 2))

    # the first open neighbor has the largest gain of the open ones; cap
    # is 0 where the gain is not positive, so such a neighbor is full
    t = np.where(fill_sorted < cap, gain_sorted, 0.0).max(axis=1)
    lam_eq = c_0 + t
    lam_nbr = np.maximum(gain - t[:, None], 0.0)
    return x, y, phi, lam_eq, lam_nbr
