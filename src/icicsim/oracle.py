"""Independent brute-force and LP references for the coordination stack.

Everything here recomputes from first principles: exhaustive search over
blanking patterns (exact rates and bounded rates), binary enumeration of
the per-sector subproblem, set-equivalence checks for the linearization,
a master pass solved one subproblem at a time, the lane engine against
the per-lane flow solve, lockstep batches of rounds against single
rounds, the SINR-bound factor identity, and dense LP
solves via scipy's HiGHS for real-valued cross-checks. scipy is imported
inside the two LP functions, so the rest of the module loads without it.
RBs decouple once the per-RB blanking is fixed, so enumeration runs per
RB and sums.
"""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import coordinator, lanes
from .coordinator import subproblem_objective
from .linkadapt import (RadioConfig, default_amc_table, sinr_all_on,
                        sinr_exact, sinr_one_blanked)

ENUM_CAP_BITS = 14       # at most 2^14 blanking patterns per RB


def _all_patterns(k):
    if k > ENUM_CAP_BITS:
        raise ValueError(f"{k} sectors exceeds the 2^{ENUM_CAP_BITS} "
                         f"enumeration budget")
    bits = np.arange(2 ** k, dtype=np.int64)
    return ((bits[:, None] >> np.arange(k)) & 1).astype(float)   # (P, K)


@dataclass
class ExhaustiveResult:
    value: float
    patterns: np.ndarray      # (K, N) binary argmax blanking
    per_rb: np.ndarray        # (N,) per-RB optimal values


def exhaustive_original(inst, weights=None, amc=None, margin_db=0.0):
    """Global optimum of the exact-rate problem by full enumeration.

    For every blanking pattern: exact SINR/rate for every user, then the
    per-sector argmax assignment on live RBs.
    """
    amc = amc or default_amc_table()
    weights = weights if weights is not None else inst.weights
    k_sec, n_rb = inst.K, inst.N
    pats = _all_patterns(k_sec)                      # (P, K)
    on = 1.0 - pats                                  # transmit indicator
    p_c, p_n = inst.radio.p_c_watts, inst.radio.p_n_watts

    best_val = np.full(n_rb, -np.inf)
    best_pat = np.zeros((k_sec, n_rb))
    for n in range(n_rb):
        total = np.zeros(pats.shape[0])
        for k in range(k_sec):
            g = inst.gains[k][:, n, :]               # (M, K)
            interf = on @ g.T - on[:, [k]] * g[:, k]          # (P, M)
            sinr = p_c * g[:, k] / (p_c * interf + p_n)
            rates = amc.rate_linear(sinr, margin_db)          # (P, M)
            sector_best = np.max(weights[k] * rates, axis=1)
            total += on[:, k] * sector_best
        arg = int(np.argmax(total))
        best_val[n] = total[arg]
        best_pat[:, n] = pats[arg]
    return ExhaustiveResult(value=float(best_val.sum()), patterns=best_pat,
                            per_rb=best_val)


def exhaustive_bound(inst, triples, weights=None):
    """Global optimum of the bounded-rate problem by full enumeration.

    The bounded rate credits only the strongest blanked neighbor, so this
    equals the optimum of the linearized binary program by construction.
    """
    weights = weights if weights is not None else inst.weights
    k_sec, n_rb = inst.K, inst.N
    pats = _all_patterns(k_sec)
    nmap = inst.neighbors

    best_val = np.full(n_rb, -np.inf)
    best_pat = np.zeros((k_sec, n_rb))
    for n in range(n_rb):
        total = np.zeros(pats.shape[0])
        for k in range(k_sec):
            r = triples.r[k][:, n]                    # (M,)
            rtil = triples.rtil[k][:, n, :]           # (M, Kt)
            if nmap.k_tilde:
                blanked = pats[:, nmap.nbr[k]]        # (P, Kt)
                credit = np.max(rtil[None, :, :] * blanked[:, None, :],
                                axis=2)
            else:
                credit = 0.0
            sector_best = np.max(weights[k] * (r + credit), axis=1)
            total += (1.0 - pats[:, k]) * sector_best
        arg = int(np.argmax(total))
        best_val[n] = total[arg]
        best_pat[:, n] = pats[arg]
    return ExhaustiveResult(value=float(best_val.sum()), patterns=best_pat,
                            per_rb=best_val)


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


def sinr_bound_factor_check(n_samples=10_000, seed=0, p_c=1.0, p_n=0.01):
    """Verify the multiplicative tightness factor of the SINR bound.

    For random gains and neighbor blanking: the exact SINR equals the
    bound times (1 + removed_others / exact_denominator), hence is never
    below the bound, and matches it bit for bit when at most one
    neighbor blanks.
    """
    rng = np.random.default_rng(seed)
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
        base = sinr_all_on(gains, serving, radio)
        bound = base
        dominant = None
        for j in neighbors:
            if blank[j]:
                cand = sinr_one_blanked(gains, serving, j, radio)
                if cand > bound:
                    bound = cand
                    dominant = j
        if blank[1:].sum() > 0 and dominant is None:
            # all blanked neighbors are weaker than keeping everyone on
            dominant = max((j for j in neighbors if blank[j]),
                           key=lambda j: gains[j])

        others = [j for j in neighbors
                  if blank[j] and j != dominant]
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


# --- the master pass and the lane engine against the per-lane flow solve ---

def reference_pass(problem, weights, blanking):
    """One master pass with one coordinator.solve_subproblem call per
    (sector, RB): the master value, summed in (k, n) order, and the duals
    lam_eq (K, N) and lam_nbr (K, N, K_tilde).

    Every neighbor sees `blanking` unquantized. The lane pass of the
    master loop must equal this bit for bit.
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


def lane_mismatches(own, nbr, w, r, rtil):
    """Indices of the lanes where lanes.solve_lanes and
    coordinator.solve_subproblem disagree on x, y, phi, lam_eq or lam_nbr
    (exact float equality)."""
    got = lanes.solve_lanes(own, nbr, w, r, rtil)
    refs = [coordinator.solve_subproblem(own[i], nbr[i], w[i], r[i], rtil[i])
            for i in range(own.shape[0])]
    same = np.ones(own.shape[0], dtype=bool)
    for out, name in zip(got, ("x", "y", "phi", "lam_eq", "lam_nbr")):
        ref = np.array([getattr(s, name) for s in refs]).reshape(out.shape)
        same &= (out == ref).reshape(out.shape[0], -1).all(axis=1)
    return np.flatnonzero(~same).tolist()


def lane_engine_check(n_lanes, seed=0):
    """Number of mismatching lanes among n_lanes random ones, spread over
    M 1-5 and K_tilde 1-9 (see random_lanes for the input kinds)."""
    rng = np.random.default_rng(seed)
    per_shape, extra = divmod(n_lanes, len(LANE_SHAPES))
    mismatches = 0
    for idx, (m, kt) in enumerate(LANE_SHAPES):
        count = per_shape + (idx < extra)
        if count:
            mismatches += len(lane_mismatches(
                *random_lanes(rng, count, m, kt)))
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


def batch_mismatches(problems, config, warm_starts=None):
    """Indices of the problems whose coordinator.run_rounds result is not
    bit_equal to coordinator.run_coordination on that problem alone."""
    if warm_starts is None:
        warm_starts = [None] * len(problems)
    batch = coordinator.run_rounds(problems, config, warm_starts)
    return [p for p, (prob, ws, res)
            in enumerate(zip(problems, warm_starts, batch))
            if not bit_equal(res, coordinator.run_coordination(prob, config,
                                                               ws))]


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
    x: list                 # per sector (M,)
    y: list                 # per sector (M, K_tilde)
    blanking: np.ndarray    # (K,)
    binary_fraction: float


def relaxed_lp_solve(inst, triples, rb, weights=None, tol=1e-6):
    """Exact optimum of the relaxed linearized problem for one RB.

    Solved with HiGHS dual simplex so the optimum is a vertex, which is
    what the binary-share guarantee speaks about. Variable order:
    assignments, credits, blanking levels.
    """
    from scipy.optimize import linprog

    weights = weights if weights is not None else inst.weights
    k_sec = inst.K
    nmap = inst.neighbors
    kt = nmap.k_tilde
    m_of = [w.shape[0] for w in weights]

    x_off, y_off = [], []
    off = 0
    for k in range(k_sec):
        x_off.append(off)
        off += m_of[k]
    for k in range(k_sec):
        y_off.append(off)
        off += m_of[k] * kt
    i_off = off
    n_var = off + k_sec

    cost = np.zeros(n_var)
    for k in range(k_sec):
        cost[x_off[k]:x_off[k] + m_of[k]] = \
            -weights[k] * triples.r[k][:, rb]
        cost[y_off[k]:y_off[k] + m_of[k] * kt] = \
            -(weights[k][:, None] * triples.rtil[k][:, rb, :]).ravel()

    rows_eq, rhs_eq = [], []
    for k in range(k_sec):
        row = np.zeros(n_var)
        row[x_off[k]:x_off[k] + m_of[k]] = 1.0
        row[i_off + k] = 1.0
        rows_eq.append(row)
        rhs_eq.append(1.0)

    rows_ub, rhs_ub = [], []
    for k in range(k_sec):
        for m in range(m_of[k]):
            row = np.zeros(n_var)
            row[y_off[k] + m * kt:y_off[k] + (m + 1) * kt] = 1.0
            row[x_off[k] + m] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)
        for pos, j in enumerate(nmap.nbr[k]):
            row = np.zeros(n_var)
            row[y_off[k] + pos:y_off[k] + m_of[k] * kt:kt] = 1.0
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
    xs = [sol[x_off[k]:x_off[k] + m_of[k]].copy() for k in range(k_sec)]
    ys = [sol[y_off[k]:y_off[k] + m_of[k] * kt].reshape(m_of[k], kt).copy()
          for k in range(k_sec)]
    return RelaxedSolveResult(value=float(-res.fun), x=xs, y=ys,
                              blanking=sol[i_off:].copy(),
                              binary_fraction=float(at_bound) / n_var)
