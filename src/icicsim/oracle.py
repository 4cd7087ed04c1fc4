"""Independent brute-force and LP references for the coordination stack.

Everything here recomputes from first principles: exhaustive search over
blanking patterns (exact rates and bounded rates), binary enumeration of
the per-sector subproblem, set-equivalence checks for the linearization,
the rate triples as masked sums, a master pass solved one subproblem at a
time, the closed-form lanes against the per-lane flow solve, lockstep
batches of rounds against single rounds, the SINR-bound factor identity,
and dense LP solves via scipy's HiGHS for real-valued cross-checks. scipy
is imported inside the two LP functions, so the rest of the module loads
without it. RBs decouple once the per-RB blanking is fixed, so
enumeration runs per RB and sums.

The problem-level oracles (`exhaustive_original`, `exhaustive_bound`,
`relaxed_lp_solve`) take a `coordinator.CoordinationProblem` and read
its weights, rate triples and AMC table, so they score exactly the
problem the coordinator solves.
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import coordinator, lanes
from .coordinator import subproblem_objective
from .linkadapt import RadioConfig, RateTriples, sinr_bound, sinr_exact

ENUM_CAP_BITS = 14       # at most 2^14 blanking patterns per RB


@functools.lru_cache(maxsize=None)
def _all_patterns(k):
    """Every binary blanking of k sectors, pats (2^k, k), and its transmit
    flags 1 - pats as one contiguous row per sector, (k, 2^k); built once
    per k and shared read-only."""
    if k > ENUM_CAP_BITS:
        raise ValueError(f"{k} sectors exceeds the 2^{ENUM_CAP_BITS} "
                         f"enumeration budget")
    bits = np.arange(2 ** k, dtype=np.int64)
    pats = ((bits[:, None] >> np.arange(k)) & 1).astype(float)
    on_rows = np.ascontiguousarray(1.0 - pats.T)
    pats.flags.writeable = on_rows.flags.writeable = False
    return pats, on_rows


@dataclass
class ExhaustiveResult:
    value: float
    patterns: np.ndarray      # (K, N) binary argmax blanking
    per_rb: np.ndarray        # (N,) per-RB optimal values


def _best_patterns(problem, sector_best):
    """Best blanking pattern per RB by full enumeration. A pattern scores
    the sum over its live sectors k of sector_best(k, n), the (P,) best
    weighted rates of sector k on RB n under each pattern."""
    pats, on_rows = _all_patterns(problem.K)         # (P, K), (K, P)
    best_val = np.full(problem.N, -np.inf)
    best_pat = np.zeros((problem.K, problem.N))
    for n in range(problem.N):
        total = np.zeros(pats.shape[0])
        for k in range(problem.K):
            total += on_rows[k] * sector_best(k, n)
        arg = int(np.argmax(total))
        best_val[n] = total[arg]
        best_pat[:, n] = pats[arg]
    return ExhaustiveResult(value=float(best_val.sum()), patterns=best_pat,
                            per_rb=best_val)


def exhaustive_original(problem):
    """Global optimum of the exact-rate problem by full enumeration.

    For every blanking pattern: exact SINR/rate for every user, then the
    per-sector argmax assignment on live RBs.
    """
    amc, weights = problem.amc, problem.weights
    p_c, p_n = problem.radio.p_c_watts, problem.radio.p_n_watts
    on = 1.0 - _all_patterns(problem.K)[0]           # (P, K) transmit flags

    def sector_best(k, n):
        g = problem.gains[k][:, n, :]                # (M, K)
        interf = on @ g.T - on[:, [k]] * g[:, k]              # (P, M)
        sinr = p_c * g[:, k] / (p_c * interf + p_n)
        rates = amc.rate_linear(sinr)                         # (P, M)
        return np.max(weights[k] * rates, axis=1)

    return _best_patterns(problem, sector_best)


def exhaustive_bound(problem):
    """Global optimum of the bounded-rate problem by full enumeration.

    The bounded rate credits only the strongest blanked neighbor, so this
    equals the optimum of the linearized binary program by construction.
    A sector's best bounded rate depends only on its K_tilde neighbors'
    bits, so it is computed once per neighbor pattern and each full
    pattern looks it up by its neighbor code: the same floats as scoring
    every full pattern.
    """
    nmap = problem.neighbors
    kt = nmap.k_tilde
    p = np.arange(_all_patterns(problem.K)[0].shape[0])  # within budget
    # code[k, p]: the neighbor bits of full pattern p, as a row of sub
    code = np.zeros((problem.K, p.size), dtype=np.intp)
    for pos in range(kt):
        code |= ((p >> nmap.nbr[:, pos, None]) & 1) << pos
    sub = _all_patterns(kt)[0]                            # (2^Kt, Kt)
    r = problem.triples.r[..., None]                      # (K, M, N, 1)
    rtil = problem.triples.rtil[:, :, :, None, :]         # (K, M, N, 1, Kt)
    credit = np.max(rtil * sub, axis=4)                   # (K, M, N, 2^Kt)
    w = problem.weights[:, :, None, None]
    best = np.max(w * (r + credit), axis=1)     # (K, N, 2^Kt) best values

    def sector_best(k, n):
        return best[k][n][code[k]]

    return _best_patterns(problem, sector_best)


def subproblem_enumeration(own_blank, nbr_blank, weights, r, rtil):
    """Binary enumeration of one sector's single-RB problem.

    Feasible points: assignment x with sum(x) = 1 - own_blank, credits y
    binary with row sums <= x and column sums <= the neighbor blanking.
    Returns (x, y, value).
    """
    m, kt = rtil.shape
    if m * kt > 16:
        raise ValueError("enumeration budget exceeded")
    if own_blank == 1:
        return np.zeros(m), np.zeros((m, kt)), 0.0
    best = None
    for chosen in range(m):
        x = np.zeros(m)
        x[chosen] = 1.0
        for bits in itertools.product((0.0, 1.0), repeat=m * kt):
            y = np.array(bits).reshape(m, kt)
            if np.any(y.sum(axis=1) > x):
                continue
            if np.any(y.sum(axis=0) > nbr_blank):
                continue
            val = subproblem_objective(weights, r, rtil, x, y)
            if best is None or val > best[2]:
                best = (x, y, val)
    return best


def set_equivalence_check(m, k_tilde):
    """Binary-point equality of the two credit-variable feasible sets.

    Context: the assignment row satisfies sum(x) <= 1 (it equals
    1 - own_blank in the parent problem). For every such binary x and
    every binary neighbor blanking, the original set
      {y : sum_j y[i, j] <= 1, y <= x row-wise, y <= blank col-wise}
    and the tightened set
      {y : sum_j y[i, j] <= x[i], sum_i y[i, j] <= blank[j]}
    must contain exactly the same binary points.
    """
    if m > 3 or k_tilde > 3:
        raise ValueError("enumeration intended for m, k_tilde <= 3")
    xs = [np.zeros(m)] + [np.eye(m)[i] for i in range(m)]
    for x in xs:
        for iblk in itertools.product((0.0, 1.0), repeat=k_tilde):
            blank = np.array(iblk)
            in_c, in_cp = set(), set()
            for bits in itertools.product((0, 1), repeat=m * k_tilde):
                y = np.array(bits, dtype=float).reshape(m, k_tilde)
                orig = (np.all(y.sum(axis=1) <= 1.0)
                        and np.all(y <= x[:, None])
                        and np.all(y <= blank[None, :]))
                tight = (np.all(y.sum(axis=1) <= x)
                         and np.all(y.sum(axis=0) <= blank))
                if orig:
                    in_c.add(bits)
                if tight:
                    in_cp.add(bits)
            if in_c != in_cp:
                return False
    return True


@dataclass
class BoundFactorReport:
    samples: int
    max_identity_error: float
    bound_violations: int       # exact SINR below the bound
    exactness_violations: int   # <=1 blanked neighbor but not bit-equal


def sinr_bound_factor_check(n_samples=10_000, seed=0):
    """Verify the multiplicative tightness factor of the SINR bound.

    For random gains and neighbor blanking: the exact SINR equals the
    bound times (1 + removed_others / exact_denominator), hence is never
    below the bound, and matches it bit for bit when at most one
    neighbor blanks.
    """
    rng = np.random.default_rng(seed)
    p_c, p_n = 1.0, 0.01
    radio = RadioConfig(p_c, p_n)
    report = BoundFactorReport(n_samples, 0.0, 0, 0)
    for _ in range(n_samples):
        k = int(rng.integers(3, 8))                 # sectors incl. serving
        serving = 0
        gains = 10 ** rng.uniform(-4, 0, size=k)
        neighbors = list(range(1, k))
        blank = np.zeros(k)
        blank[1:] = rng.integers(0, 2, size=k - 1)

        exact = sinr_exact(gains, serving, blank, radio)
        bound = sinr_bound(gains, serving, blank, neighbors, radio)
        # the bound credits the strongest blanked neighbor
        blanked = [j for j in neighbors if blank[j]]
        dominant = max(blanked, key=lambda j: gains[j], default=None)
        others = [j for j in blanked if j != dominant]
        removed = p_c * float(np.sum(gains[others])) if others else 0.0
        live = [j for j in range(k) if j != serving and not blank[j]]
        denom = p_c * float(np.sum(gains[live])) + p_n if live else p_n
        factor = 1.0 + removed / denom

        err = abs(exact - bound * factor) / max(exact, 1e-300)
        report.max_identity_error = max(report.max_identity_error, err)
        if exact < bound - 1e-15 * exact:
            report.bound_violations += 1
        if blank.sum() <= 1 and exact != bound:
            report.exactness_violations += 1
    return report


# --- the rate triples as masked sums ---

def masked_sum_triples(gains, radio, neighbors, amc, silenced=None):
    """The reference for `linkadapt.precompute_rate_triples`, same
    arguments: each denominator is a masked sum, per sector one gather of
    every column but k and one (K_tilde, K - 2) gather of every column
    but k and the neighbor, summed in numpy's order for that gather.
    `silenced` zeroes the gathered gains of the sectors it marks on each
    RB. The SINRs go into (..., K, M, ...) buffers, so the AMC lookup
    runs once for r and once for rtil over all users.
    """
    p_c, p_n = radio.p_c_watts, radio.p_n_watts
    *batch, n_sec, m, n_rb, _ = gains.shape
    nbr = np.asarray(neighbors.nbr)
    k_tilde = nbr.shape[1]
    # others[k]: every column but k; removed[k, pos]: also without nbr[k, pos]
    col = np.arange(n_sec - 1)
    others = col + (col >= np.arange(n_sec)[:, None])
    keep = others[:, None, :] != nbr[:, :, None]
    removed = np.broadcast_to(others[:, None, :], keep.shape)[keep].reshape(
        n_sec, k_tilde, n_sec - 2)
    if silenced is not None:       # (..., 1, N, K), over the users
        on = np.swapaxes(1.0 - silenced, -1, -2)[..., None, :, :]
    gamma = np.empty((*batch, n_sec, m, n_rb))
    gamma_t = np.empty((*batch, n_sec, m, n_rb, k_tilde))

    def interference(g, cols):
        picked = g[..., cols]                       # a gather, so a copy
        if silenced is not None:
            picked *= on[..., cols]
        return p_c * picked.sum(axis=-1)

    for k in range(n_sec):
        g = gains[..., k, :, :, :]
        serving = p_c * g[..., k]
        total_int = interference(g, others[k])                 # (.., M, N)
        gamma[..., k, :, :] = serving / (total_int + p_n)
        removed_int = interference(g, removed[k])              # (.., M, N, Kt)
        gamma_t[..., k, :, :, :] = serving[..., None] / (removed_int + p_n)
    r = amc.rate_linear(gamma)
    rtil = amc.rate_linear(gamma_t) - r[..., None]
    return RateTriples(r=r, rtil=rtil)


# --- the master pass and the closed-form lanes against the flow solve ---

def reference_pass(problem, weights, blanking):
    """One master pass with one coordinator.solve_subproblem call per
    (sector, RB): the master value, summed in (k, n) order, and the duals
    lam_eq (K, N) and lam_nbr (K, N, K_tilde).

    Every neighbor sees `blanking` unquantized. The lane pass of the
    master loop must match it within REF_TOL.
    """
    nmap = problem.neighbors
    lam_eq = np.empty((problem.K, problem.N))
    lam_nbr = np.empty((problem.K, problem.N, nmap.k_tilde))
    value = 0.0
    for k in range(problem.K):
        for n in range(problem.N):
            sol = coordinator.solve_subproblem(
                blanking[k, n], blanking[nmap.nbr[k], n], weights[k],
                problem.triples.r[k][:, n], problem.triples.rtil[k][:, n, :])
            value += sol.phi
            lam_eq[k, n] = sol.lam_eq
            lam_nbr[k, n] = sol.lam_nbr
    return value, lam_eq, lam_nbr


LANE_SHAPES = [(m, kt) for m in range(1, 6) for kt in range(1, 10)]


def random_lanes(rng, n_lanes, m, k_tilde):
    """Subproblem inputs stacked along a lane axis, each lane of one kind:
    binary, fractional or mixed blanking levels with continuous weights
    and rates, or small-integer weights, rates and levels (cost ties)."""
    kind = rng.integers(0, 4, n_lanes)
    col = kind[:, None]
    own_b = rng.integers(0, 2, n_lanes).astype(float)
    nbr_b = rng.integers(0, 2, (n_lanes, k_tilde)).astype(float)
    own_f = rng.random(n_lanes)
    nbr_f = rng.random((n_lanes, k_tilde))
    own_mix = np.where(rng.random(n_lanes) < 0.5, own_b, own_f)
    nbr_mix = np.where(rng.random((n_lanes, k_tilde)) < 0.5, nbr_b, nbr_f)
    tied_levels = np.array([0.0, 0.25, 0.5, 1.0])
    own = np.select([kind == 0, kind == 1, kind == 2],
                    [own_b, own_f, own_mix],
                    rng.choice(tied_levels, n_lanes))
    nbr = np.select([col == 0, col == 1, col == 2],
                    [nbr_b, nbr_f, nbr_mix],
                    rng.choice(tied_levels, (n_lanes, k_tilde)))
    tied = col == 3
    w = np.where(tied, rng.integers(1, 3, (n_lanes, m)),
                 rng.uniform(0.2, 2.0, (n_lanes, m)))
    r = np.where(tied, 10.0 * rng.integers(0, 4, (n_lanes, m)),
                 rng.uniform(0.0, 500.0, (n_lanes, m)))
    rtil = np.where(tied[:, :, None],
                    5.0 * rng.integers(0, 4, (n_lanes, m, k_tilde)),
                    rng.uniform(0.0, 400.0, (n_lanes, m, k_tilde)))
    return own, nbr, w, r, rtil


def edge_lanes(rng, m, k_tilde):
    """Subproblem inputs of the edge cases, one lane each: no RB supply
    (own = 1), more neighbor demand than supply, no credits (rtil = 0), a
    user of weight 0, equal gains at every neighbor, supply that ends
    exactly at a neighbor's level, and all levels at 1."""
    own, nbr, w, r, rtil = random_lanes(rng, 7, m, k_tilde)
    own[0] = 1.0
    own[1], nbr[1] = 0.6, 0.5
    rtil[2] = 0.0
    w[3, 0] = 0.0
    rtil[4] = rtil[4, :, :1]
    # distinct gains; the dyadic levels make 1 - own a sum of levels
    rtil[5] = 100.0 * np.arange(1, k_tilde + 1)
    own[5], nbr[5] = 1.0 - 0.25 * min(k_tilde, 2), 0.25
    own[6], nbr[6] = 1.0, 1.0
    return own, nbr, w, r, rtil


LANE_TOL = 1e-12    # float order: feasibility, duality gap, near ties
REF_TOL = 1e-9      # phi and the duals against the flow solve


def _close(a, b, tol):
    return np.abs(a - b) <= tol * np.maximum(
        1.0, np.maximum(np.abs(a), np.abs(b)))


def _at_least(a, b):
    return a >= b - LANE_TOL * np.maximum(1.0, np.abs(b))


def _unique_optimum(w, r, rtil):
    """Lanes whose subproblem has one optimum: no two best-user candidates
    within LANE_TOL, no two equal gains and no zero gain."""
    wr = w[:, :, None] * r[:, :, None]
    top = np.sort(np.concatenate((wr, wr + w[:, :, None] * rtil), axis=2),
                  axis=1)                                # (L, M, 1 + Kt)
    gain = np.sort(top[:, -1, 1:] - top[:, -1, :1], axis=1)
    tied = _close(gain, 0.0, LANE_TOL).any(axis=1) \
        | _close(gain[:, 1:], gain[:, :-1], LANE_TOL).any(axis=1)
    if top.shape[1] > 1:
        tied |= _close(top[:, -1], top[:, -2], LANE_TOL).any(axis=1)
    return ~tied


def lane_mismatches(own, nbr, w, r, rtil):
    """Indices of the lanes where `lanes.LaneSet(w, r, rtil).solve(own,
    nbr)`, with x and y from the set's `primal` of that pass, fails to
    be optimal.

    Every lane must be primal feasible (x, y >= 0, sum x = 1 - own, the
    neighbor columns of y within nbr, each user's row of y within x) and
    dual feasible (lam_nbr >= 0, lam_eq >= w r, lam_eq + lam_nbr >=
    w (r + rtil)), close the duality gap (phi = (1 - own) lam_eq +
    sum nbr lam_nbr), give the closed-form phi within LANE_TOL of
    coordinator.subproblem_objective of its x and y, and give phi,
    lam_eq and lam_nbr within REF_TOL of coordinator.solve_subproblem.
    Where the optimum is unique (see `_unique_optimum`), x and y must
    also be within LANE_TOL of the flow solve's; ties leave several
    optima, and the two may differ there. Float-order comparisons use
    LANE_TOL relative to max(1, |value|).
    """
    lane_set = lanes.LaneSet(w, r, rtil)
    sol = lane_set.solve(own, nbr)
    phi, lam_eq, lam_nbr = sol.phi, sol.lam_eq, sol.lam_nbr
    x, y = lane_set.primal(sol)
    of_primal = np.array([coordinator.subproblem_objective(
        w[i], r[i], rtil[i], x[i], y[i]) for i in range(own.shape[0])])
    sols = [coordinator.solve_subproblem(own[i], nbr[i], w[i], r[i], rtil[i])
            for i in range(own.shape[0])]
    ref = {name: np.array([getattr(s, name) for s in sols])
           for name in ("x", "y", "phi", "lam_eq", "lam_nbr")}
    wr = w * r
    unique = _unique_optimum(w, r, rtil)
    checks = [
        x >= 0.0, y >= 0.0, lam_nbr >= 0.0,
        _close(x.sum(axis=1), 1.0 - own, LANE_TOL),
        _at_least(nbr, y.sum(axis=1)),
        _at_least(x, y.sum(axis=2)),
        _at_least(lam_eq[:, None], wr),
        _at_least(lam_eq[:, None, None] + lam_nbr[:, None, :],
                  wr[:, :, None] + w[:, :, None] * rtil),
        _close(phi, (1.0 - own) * lam_eq + (nbr * lam_nbr).sum(axis=1),
               LANE_TOL),
        _close(phi, of_primal, LANE_TOL),
        _close(phi, ref["phi"], REF_TOL),
        _close(lam_eq, ref["lam_eq"], REF_TOL),
        _close(lam_nbr, ref["lam_nbr"], REF_TOL),
        # ties leave several optima: x and y are compared where it is unique
        _close(x, ref["x"], LANE_TOL) | ~unique[:, None],
        _close(y, ref["y"], LANE_TOL) | ~unique[:, None, None],
    ]
    ok = np.logical_and.reduce(
        [c.reshape(own.shape[0], -1).all(axis=1) for c in checks])
    return np.flatnonzero(~ok).tolist()


def lane_engine_check(n_lanes, seed=0):
    """Number of failing lanes (see lane_mismatches) among n_lanes random
    ones spread over M 1-5 and K_tilde 1-9 (see random_lanes for the
    input kinds), plus the edge lanes of every shape."""
    rng = np.random.default_rng(seed)
    per_shape, extra = divmod(n_lanes, len(LANE_SHAPES))
    mismatches = 0
    for idx, (m, kt) in enumerate(LANE_SHAPES):
        count = per_shape + (idx < extra)
        if count:
            mismatches += len(lane_mismatches(
                *random_lanes(rng, count, m, kt)))
        mismatches += len(lane_mismatches(*edge_lanes(rng, m, kt)))
    return mismatches


def bit_equal(a, b):
    """Exact equality: dataclasses field by field, arrays by dtype, shape
    and bytes (so sign bits count), sequences item by item, and anything
    else by type and repr."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            bit_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(bit_equal, a, b))
    return type(a) is type(b) and repr(a) == repr(b)


def batch_mismatches(batch, config, warm_start=None):
    """Indices of the rounds whose coordinator.run_rounds result on the
    batch is not bit_equal to coordinator.run_rounds on that round
    alone. warm_start: None or the batch's (P, K, N) warm start."""
    results = coordinator.run_rounds(batch, config, warm_start)
    return [p for p, res in enumerate(results)
            if not bit_equal(res, coordinator.run_rounds(
                batch[p], config,
                None if warm_start is None else warm_start[p])[0])]


# --- dense LP references (HiGHS) ---

def lp_flow_reference(net):
    """LP optimum of an MCNF instance, solved densely."""
    from scipy.optimize import linprog

    v, a = net.num_nodes, net.num_arcs
    a_eq = np.zeros((v, a))
    for i in range(a):
        a_eq[net.tail[i], i] += 1.0
        a_eq[net.head[i], i] -= 1.0
    res = linprog(np.asarray(net.cost), A_eq=a_eq, b_eq=net.supply,
                  bounds=[(0.0, c) for c in net.cap], method="highs")
    if not res.success:
        raise RuntimeError(f"LP reference failed: {res.message}")
    return float(res.fun)


@dataclass
class RelaxedSolveResult:
    value: float
    x: np.ndarray           # (K, M)
    y: np.ndarray           # (K, M, K_tilde)
    blanking: np.ndarray    # (K,)
    binary_fraction: float


def relaxed_lp_solve(problem, rb, tol=1e-6):
    """Exact optimum of the relaxed linearized problem for one RB.

    Solved with HiGHS dual simplex so the optimum is a vertex, which is
    what the binary-share guarantee speaks about. Variable order:
    assignments, credits, blanking levels.
    """
    from scipy.optimize import linprog

    weights, triples = problem.weights, problem.triples
    k_sec, m = weights.shape
    nmap = problem.neighbors
    kt = nmap.k_tilde
    x_off = m * np.arange(k_sec)
    y_off = k_sec * m + m * kt * np.arange(k_sec)
    i_off = k_sec * m * (1 + kt)
    n_var = i_off + k_sec

    cost = np.zeros(n_var)
    cost[:k_sec * m] = -(weights * triples.r[:, :, rb]).ravel()
    cost[k_sec * m:i_off] = \
        -(weights[:, :, None] * triples.rtil[:, :, rb, :]).ravel()

    rows_eq, rhs_eq = [], []
    for k in range(k_sec):
        row = np.zeros(n_var)
        row[x_off[k]:x_off[k] + m] = 1.0
        row[i_off + k] = 1.0
        rows_eq.append(row)
        rhs_eq.append(1.0)

    rows_ub, rhs_ub = [], []
    for k in range(k_sec):
        for i in range(m):
            row = np.zeros(n_var)
            row[y_off[k] + i * kt:y_off[k] + (i + 1) * kt] = 1.0
            row[x_off[k] + i] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)
        for pos, j in enumerate(nmap.nbr[k]):
            row = np.zeros(n_var)
            row[y_off[k] + pos:y_off[k] + m * kt:kt] = 1.0
            row[i_off + j] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)

    res = linprog(cost, A_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
                  A_eq=np.array(rows_eq), b_eq=np.array(rhs_eq),
                  bounds=[(0.0, 1.0)] * n_var, method="highs-ds")
    if not res.success:
        raise RuntimeError(f"relaxed LP failed: {res.message}")

    sol = res.x
    at_bound = np.sum((np.abs(sol) < tol) | (np.abs(1.0 - sol) < tol))
    return RelaxedSolveResult(value=float(-res.fun),
                              x=sol[:k_sec * m].reshape(k_sec, m),
                              y=sol[k_sec * m:i_off].reshape(k_sec, m, kt),
                              blanking=sol[i_off:].copy(),
                              binary_fraction=float(at_bound) / n_var)
