"""The (sector, RB) subproblems of a master pass, solved in closed form.

All subproblems of one master pass share one flow topology (see the
coordinator module docstring), so a `LaneSet` solves many of them at
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

Within one master run only the blanking levels change from pass to
pass; w, r and rtil are fixed, and so are the best users, the gains and
their order. So the solve is split in two: a `LaneSet` is built once per
run from w, r and rtil, and each pass calls its `solve` with that pass's
levels, which only fills the knapsack. A pass needs no primal: with
fill_j the supply sent to neighbor j and rest = max(S - the summed
levels of the neighbors of positive gain, 0) the supply left for the
collector, its value is

  phi = rest * c_0 + sum_j fill_j * c_j,

added up from rest * c_0 one neighbor at a time in decreasing gain
order, and its duals follow from t. Only a caller that reads x and y
asks `primal` to route that pass's fill through the best users; in the
master loop that is the bookkeeping pass, once per round.

`coordinator.solve_subproblem` (one flow solve per subproblem) stays
as the reference that `oracle.lane_mismatches` checks every lane against.
Ties (equal gains, a zero gain, users of equal value) leave several
optima, and the two may return different ones; their float orders
differ too, so values agree to rounding, not bit for bit. The closed-
form phi and `coordinator.subproblem_objective` of the primal sum the
same terms in different orders, so they too agree to rounding.
"""

from typing import NamedTuple

import numpy as np


class LanePass(NamedTuple):
    """One `LaneSet.solve`: phi (L,), lam_eq (L,) and lam_nbr (L, Kt),
    and the knapsack it filled, fill (Kt, L) with one row per rank in
    decreasing gain order and rest (L,) the supply left for the
    collector, from which `LaneSet.primal` builds x and y."""

    phi: np.ndarray
    lam_eq: np.ndarray
    lam_nbr: np.ndarray
    fill: np.ndarray
    rest: np.ndarray


class LaneSet:
    """The level-free part of L subproblems that share M users and Kt
    neighbours: w (L, M), r (L, M) and rtil (L, M, Kt), as in
    `coordinator.solve_subproblem` stacked along a leading lane axis."""

    def __init__(self, w, r, rtil):
        w, r, rtil = (np.asarray(a, dtype=float) for a in (w, r, rtil))
        n_lanes, self.m, kt = rtil.shape

        wr = w * r                              # a unit to the collector
        via = wr[:, :, None] + w[:, :, None] * rtil     # a unit to neighbor j
        self.c_0, self.user_0 = _best_user(wr)
        best, self.user_j = _best_user(via)     # (L, Kt)
        self.gain = best - self.c_0[:, None]

        # the knapsack order: decreasing gain, lowest index on ties. The
        # knapsack runs rank by rank, so its arrays are (Kt, L), one row
        # per rank; sorted_at gathers a (L, Kt) array in that order
        order = np.argsort(-self.gain, axis=1, kind="stable")
        self.sorted_at = (np.arange(n_lanes)[:, None] * kt + order).T.ravel()
        gain_sorted = self.gain.ravel()[self.sorted_at].reshape(kt, n_lanes)
        self.best_sorted = best.ravel()[self.sorted_at].reshape(kt, n_lanes)
        positive = gain_sorted > 0.0
        # a neighbor without positive gain takes no fill: its capacity is
        # gathered from a zero appended to the levels, and its gain counts
        # as 0 when the first open neighbor is sought
        self.cap_at = np.where(positive.ravel(), self.sorted_at,
                               n_lanes * kt)
        self.gain_open = np.where(positive, gain_sorted, 0.0)

    def solve(self, own, nbr):
        """The subproblems at blanking levels own (L,) and nbr (L, Kt),
        as a `LanePass`. A blanking level outside [0, 1] (or NaN) is a
        ValueError naming the lowest such lane.
        """
        own, nbr = (np.asarray(a, dtype=float) for a in (own, nbr))
        n_lanes, kt = self.gain.shape
        # min and max are NaN when a level is, and NaN fails both tests
        if not all(a.min(initial=1.0) >= 0.0 and a.max(initial=0.0) <= 1.0
                   for a in (own, nbr)):
            levels = np.column_stack((own, nbr))
            lane, col = np.argwhere(~((levels >= 0.0) & (levels <= 1.0)))[0]
            raise ValueError(
                f"lane {lane}: blanking level {float(levels[lane, col])!r} "
                f"outside [0, 1]")

        # the knapsack, rank by rank in decreasing gain order; start adds
        # the capacities one rank at a time, in np.cumsum's order
        cap = np.append(nbr, 0.0)[self.cap_at].reshape(kt, n_lanes)
        supply = 1.0 - own
        start = np.zeros((kt, n_lanes))
        for j in range(kt - 1):
            np.add(start[j], cap[j], out=start[j + 1])
        fill = np.minimum(cap, np.maximum(supply - start, 0.0))
        # the supply left once every neighbor of positive gain is full
        rest = np.maximum(supply - (start[-1] + cap[-1]), 0.0)

        # the value, rank by rank from the collector's share
        phi = rest * self.c_0
        for j in range(kt):
            phi += fill[j] * self.best_sorted[j]

        # the first open neighbor has the largest gain of the open ones;
        # cap is 0 where the gain is not positive, so such a neighbor is
        # full
        t = (self.gain_open * (fill < cap)).max(axis=0)
        lam_eq = self.c_0 + t
        lam_nbr = np.maximum(self.gain - t[:, None], 0.0)
        return LanePass(phi, lam_eq, lam_nbr, fill, rest)

    def primal(self, lane_pass):
        """x (L, M) and y (L, M, Kt) of a `LanePass` of this set: each
        neighbor's fill into y through its best user, and the rest into x
        through the collector's best user."""
        n_lanes, kt = self.gain.shape
        lane = np.arange(n_lanes)
        fill = np.empty(n_lanes * kt)
        fill[self.sorted_at] = lane_pass.fill.ravel()   # neighbor order
        y = np.zeros((n_lanes, self.m, kt))
        y.ravel()[((lane[:, None] * self.m + self.user_j) * kt
                   + np.arange(kt)).ravel()] = fill
        x = y.sum(axis=2)
        x[lane, self.user_0] += lane_pass.rest
        return x, y


def _best_user(values):
    """The max and argmax (lowest index on ties) of values (L, M, ...)
    over the user axis 1, one user at a time, which is faster than a
    reduction over a short axis."""
    best = values[:, 0].copy()
    user = np.zeros(best.shape, dtype=np.intp)
    for i in range(1, values.shape[1]):
        user = np.where(values[:, i] > best, i, user)
        np.maximum(best, values[:, i], out=best)
    return best, user
