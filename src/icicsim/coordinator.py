"""Distributed blanking coordination: per-(sector, RB) flow subproblems,
a projected-subgradient master over the blanking variables, rounding,
and the paper's optimality-gap estimate (not a proven bound).

Each subproblem is the single-RB weighted-rate LP of one sector given
everyone's (possibly fractional) blanking levels. Its flow form:

  node 0          RB source, supply 1 - I_own
  nodes 1..M      users, supply 0
  nodes M+1..M+Kt neighbors, supply -I_nbr[j]
  node M+Kt+1     collector, supply -1 + I_own + sum(I_nbr)

  arcs  RB->user      cap 1  cost -w*r      (assignment)
        user->nbr     cap 1  cost -w*rtil   (credit for a blanked neighbor)
        user->coll    cap 1  cost 0         (slack)
        coll->nbr     cap 1  cost 0         (surplus)

Within one master pass all K*N subproblems share this topology, so the
pass hands them to `lanes.solve_lanes` as array lanes, one call per group
of sectors with the same user count M_k and neighbor count K_tilde.
`solve_subproblem` (one FlowNetwork, solved by `mcnf.solve`) is the
per-lane reference that the engine must equal bit for bit; the master
loop itself never calls it.

Independent rounds run as a lockstep batch: `run_rounds` advances the
master loops of several problems together, including the `runs=2`
re-run, where each problem keeps its own masked channel and frozen set.
Each pass puts the lanes of every problem into the same engine calls;
the exchange, master steps, rounding scores and final schedules stay
per problem, and each master value is summed in its own (k, n) order,
so a batched result equals the round run alone bit for bit.
`run_coordination` is a batch of one.

The master consumes one dual per subproblem balance constraint: the
subgradient of the summed sector values with respect to I[k] is the
neighbors' credits minus the sector's own loss,
Lambda[k] = -lambda_own[k] + sum over neighbors of lambda_from[nbr -> k].
Node potentials supply these multipliers after fixing the collector
gauge to zero; validity is enforced by the subgradient inequality rather
than any sign convention (see tests). `compute_subgradient` is the one
place that assembles Lambda: each sector posts its neighbor duals to its
neighbors' `Mailbox`, and each sector drains its inbox and sums it. The
master loop, `icicsim verify` and the tests all go through it. Message
counts follow from array shapes: per iteration of each run, every sector
sends K_tilde*N duals and its K_tilde*N blanking levels.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lanes, mcnf
from . import network as nw
from .fairsched import local_schedule
from .linkadapt import default_amc_table, precompute_rate_triples
from .schema import check_fields, rule


@dataclass
class IcicConfig:
    """The `icic` config section: n_iter, step_constant, rho, runs,
    quant_bits and quantize_exchange."""

    n_iter: int = rule(5, ge=0)               # 0 skips the master
    step_constant: float = rule(1.0, gt=0)    # delta = c / iteration_index
    rho: int = rule(1, ge=1)                  # execution period, sub-frames
    runs: int = rule(1, choices=(1, 2))       # 2 = the zeroed-channel re-run
    # message width for overhead accounting; capped so that 2^bits, the
    # level count when quantizing, stays a finite float
    quant_bits: int = rule(16, ge=1, le=64)
    quantize_exchange: bool = False   # also quantize the exchanged values

    def __post_init__(self):
        check_fields(self)


@dataclass
class SubproblemSolution:
    x: np.ndarray            # (M,)
    y: np.ndarray            # (M, K_tilde)
    phi: float
    lam_eq: float            # dual of the RB balance
    lam_nbr: np.ndarray      # (K_tilde,) duals of the neighbor constraints


@dataclass
class GapReport:
    p_relaxed: float                 # relaxed-value estimate behind the gap
    p_hat: float                     # rounded feasible bound objective
    gap_bound_percent: float
    binary_fraction: float
    binary_guarantee_percent: float
    gap_history: list = field(default_factory=list)     # per iteration
    # best rounded value after each iterate of the first run only; the
    # last entry is the one-run p_hat
    p_hat_history: list = field(default_factory=list)


@dataclass
class OverheadReport:
    r_distributed_bps: float
    r_centralized_bps: float
    ratio: float
    simulated_values: int = 0
    simulated_bits: int = 0


@dataclass
class IcicResult:
    blanking: np.ndarray             # (K, N) binary
    assignments: tuple               # SectorViews, per sector (M, N) int8
    exact_rates: tuple               # SectorViews, per sector (M, N) kbit/s
    realized_objective: float        # exact-rate weighted sum
    gap: GapReport
    overhead: OverheadReport
    warm_start: np.ndarray           # final fractional iterate (K, N)


@dataclass
class CoordinationProblem:
    """Everything one coordinated scheduling round needs."""

    neighbors: object                # NeighborMap
    weights: list                    # per sector (M_k,)
    gains: list                      # per sector (M_k, N, K)
    radio: object                    # RadioConfig
    amc: object = None
    margin_db: float = 0.0
    triples: object = None

    def __post_init__(self):
        if self.amc is None:
            self.amc = default_amc_table()
        if self.triples is None:
            self.triples = precompute_rate_triples(
                self.gains, self.radio, self.neighbors, self.amc,
                self.margin_db)

    @property
    def K(self):
        return self.neighbors.K

    @property
    def N(self):
        return self.gains[0].shape[1]


# --- subproblem construction and duals ---

def build_subproblem_network(own_blank, nbr_blank, weights, r, rtil):
    """Flow instance for one (sector, RB) pair.

    own_blank: scalar I of this sector; nbr_blank: (K_tilde,) neighbor
    levels; weights: (M,); r: (M,) all-on rates; rtil: (M, K_tilde).
    """
    m = weights.shape[0]
    kt = nbr_blank.shape[0]
    supply = np.zeros(m + kt + 2)
    supply[0] = 1.0 - own_blank
    supply[m + 1:m + 1 + kt] = -nbr_blank
    supply[m + kt + 1] = -1.0 + own_blank + nbr_blank.sum()
    net = mcnf.FlowNetwork(supply=supply)
    coll = m + kt + 1
    for i in range(m):
        net.add_arc(0, 1 + i, 1.0, -weights[i] * r[i])
    for i in range(m):
        for j in range(kt):
            net.add_arc(1 + i, m + 1 + j, 1.0, -weights[i] * rtil[i, j])
    for i in range(m):
        net.add_arc(1 + i, coll, 1.0, 0.0)
    for j in range(kt):
        net.add_arc(coll, m + 1 + j, 1.0, 0.0)
    return net


def subproblem_objective(weights, r, rtil, x, y):
    """Shared evaluator so solver and enumeration agree bit for bit."""
    return float(np.dot(weights, x * r) + np.sum(weights[:, None] * y * rtil))


def solve_subproblem(own_blank, nbr_blank, weights, r, rtil):
    """Optimal (x, y), value, and balance duals for one (sector, RB)."""
    m = weights.shape[0]
    kt = nbr_blank.shape[0]
    net = build_subproblem_network(own_blank, nbr_blank, weights, r, rtil)
    sol = mcnf.solve(net)     # slack arcs keep this feasible for I in [0,1]
    x = sol.flow[:m].copy()
    y = sol.flow[m:m + m * kt].reshape(m, kt).copy()
    pi = sol.potential
    coll = m + kt + 1
    lam_eq = float(pi[coll] - pi[0])
    lam_nbr = np.maximum(pi[m + 1:m + 1 + kt] - pi[coll], 0.0)
    return SubproblemSolution(x=x, y=y,
                              phi=subproblem_objective(weights, r, rtil, x, y),
                              lam_eq=lam_eq, lam_nbr=lam_nbr)


def master_step(blanking, grad, iteration, step_constant):
    """One projected subgradient ascent step, elementwise clip to [0, 1]."""
    if iteration < 1:
        raise ValueError("iteration index is 1-based")
    return np.clip(blanking + (step_constant / iteration) * grad, 0.0, 1.0)


def round_blanking(blanking):
    """Nearest binary point; exact halves round up."""
    return np.floor(np.asarray(blanking) + 0.5).astype(np.int8)


def bound_objective(weights, triples, blanking, neighbors):
    """Bound-problem value of a binary blanking with optimal local picks.

    For each live (sector, RB): the best user counting the single
    strongest blanked neighbor's extra rate.
    """
    blanking = np.asarray(blanking)
    total = 0.0
    for k in range(neighbors.K):
        if neighbors.k_tilde:
            nbr_rows = blanking[neighbors.nbr[k]]      # (K_tilde, N)
            credit = (triples.rtil[k] * nbr_rows.T[None, :, :]).max(axis=2)
        else:
            credit = 0.0
        val = (triples.r[k] + credit) * weights[k][:, None]
        live = blanking[k] == 0
        if np.any(live):
            total += float(val[:, live].max(axis=0).sum())
    return total


def finalize_schedule(gains, weights, radio, amc, blanking, margin_db=0.0):
    """Exact rates under a binary blanking, then the per-sector argmax rule.

    gains: per sector (M_k, N, K); weights: per sector (M_k,). With
    network.SectorViews (as ChannelTensor.gains) the work runs on the
    stacked (sum of M_k, N, K) array without copying it. The exact SINR
    and the AMC lookup run once over all users; `local_schedule` runs once
    per group of sectors with equal M_k, its batch axis over the group.
    Each user's interference is summed in the same order as for a single
    sector, so results do not depend on how sectors are grouped.

    Returns (assignments, rates, objective): SectorViews of the stacked
    (sum of M_k, N) int8 assignment and kbit/s rates, and the weighted
    rate summed sector by sector. Identical code path to the uncoordinated
    scheduler, so forcing blanking to zero reproduces it bit for bit.
    """
    blanking = np.asarray(blanking)
    sizes = np.array([len(w) for w in weights])
    owner = np.repeat(np.arange(sizes.size), sizes)     # sector of each row
    g = nw.stack_rows(gains)                            # (sum M, N, K)
    w = np.asarray(nw.stack_rows(weights), dtype=float)
    on = 1.0 - blanking.T.astype(float)                # (N, K)
    own = g[np.arange(owner.size), :, owner]            # serving gain
    interf = np.einsum("mnk,nk->mn", g, on) - own * on[:, owner].T
    sinr = radio.p_c_watts * own \
        / (radio.p_c_watts * interf + radio.p_n_watts)
    rates = amc.rate_linear(sinr, margin_db)
    n_rb = rates.shape[1]
    assign = np.empty(rates.shape, dtype=np.int8)
    sector_value = np.empty(sizes.size)
    for m in np.unique(sizes):
        ks = np.flatnonzero(sizes == m)
        rows = np.flatnonzero(sizes[owner] == m)
        w_g = w[rows].reshape(-1, m)
        r_g = rates[rows].reshape(-1, m, n_rb)
        a_g = local_schedule(w_g, r_g, blanking[ks])
        assign[rows] = a_g.reshape(-1, n_rb)
        sector_value[ks] = (w_g[:, :, None] * a_g * r_g).reshape(
            ks.size, -1).sum(axis=1)
    objective = 0.0
    for v in sector_value.tolist():     # sequential, in sector order
        objective += v
    return (nw.SectorViews(assign, sizes), nw.SectorViews(rates, sizes),
            objective)


# --- the simulated sector exchange ---

class Mailbox:
    """Per-sector inbox."""

    def __init__(self):
        self._msgs = []

    def post(self, sender, payload):
        self._msgs.append((sender, payload))

    def drain(self):
        msgs, self._msgs = self._msgs, []
        return msgs


def compute_subgradient(lam_eq, lam_nbr, neighbors):
    """Assemble the master subgradient by the simulated sector exchange.

    lam_eq: (K, N); lam_nbr: (K, N, K_tilde) in neighbor-position order.
    Sector k posts lam_nbr[k, :, pos] to sector nbr[k][pos]; each sector
    then drains its inbox and adds the messages, in its own nbr order, to
    minus its lam_eq. An inbox that does not hold exactly one message
    from each neighbor is a ValueError.
    """
    k_sec = lam_eq.shape[0]
    boxes = [Mailbox() for _ in range(k_sec)]
    for k in range(k_sec):
        for pos, dest in enumerate(neighbors.nbr[k]):
            boxes[dest].post(k, lam_nbr[k, :, pos])
    grad = np.empty(lam_eq.shape)
    for k in range(k_sec):
        incoming = dict(boxes[k].drain())
        if set(incoming) != set(neighbors.nbr[k].tolist()):
            raise ValueError(f"sector {k}: incomplete dual exchange")
        grad[k] = -lam_eq[k] + sum(incoming[a] for a in neighbors.nbr[k])
    return grad


def _quantize(values, bits, vmax=None, axis=None):
    """Uniform block quantization to 2^bits - 1 levels over [0, vmax].

    Without vmax each block along `axis` (all of `values` when None) is
    scaled by its own largest magnitude, and an all-zero block stays zero.
    """
    v = np.asarray(values, dtype=float)
    levels = 2 ** bits - 1
    if vmax is not None:
        return np.round(v / vmax * levels) * (vmax / levels)
    scale = np.max(np.abs(v), axis=axis, keepdims=True)
    dead = scale <= 0
    scale = np.where(dead, 1.0, scale)
    return np.where(dead, 0.0,
                    np.round(v / scale * levels) * (scale / levels))


def _lane_groups(problems, weights, triples):
    """The fixed lane inputs of a batch of problems.

    Sectors with equal (M_k, K_tilde) form one group, whose lanes are
    those sectors' (k, n) pairs, problem by problem and in (k, n) order.
    Returns, per group in (M_k, K_tilde) order, its members, a list of
    (problem index, sector indices), and the stacked w, r and rtil of its
    lanes. `triples` is iterated once, alongside `problems` and `weights`.
    """
    parts = {}
    for p, (pr, w_p, tr) in enumerate(zip(problems, weights, triples)):
        sizes = np.array([w.shape[0] for w in w_p])
        for m in np.unique(sizes):
            ks = np.flatnonzero(sizes == m)
            parts.setdefault((int(m), pr.neighbors.k_tilde), []).append((
                (p, ks),
                np.repeat(np.stack([w_p[k] for k in ks]), pr.N, axis=0),
                np.concatenate([tr.r[k].T for k in ks]),
                np.concatenate([tr.rtil[k].transpose(1, 0, 2) for k in ks])))
    groups = []
    for key in sorted(parts):
        members, w, r, rtil = zip(*parts[key])
        groups.append((list(members), np.concatenate(w), np.concatenate(r),
                       np.concatenate(rtil)))
    return groups


def _solve_pass(problems, groups, blankings, seens):
    """Solve every (sector, RB) subproblem of one master pass of each
    problem as lanes: one `lanes.solve_lanes` call per lane group (see
    `_lane_groups`), over the lanes of all problems.

    `seens[p]` carries problem p's blanking levels as neighbors observe
    them (they differ from `blankings[p]` only when exchanged values are
    quantized). Returns, per problem, the duals lam_eq (K, N) and lam_nbr
    (K, N, K_tilde), the master value summed in (k, n) order, and the
    engine's (x, y) arrays, one pair per group of equal-size sectors.
    """
    lam_eq = [np.empty((pr.K, pr.N)) for pr in problems]
    lam_nbr = [np.empty((pr.K, pr.N, pr.neighbors.k_tilde))
               for pr in problems]
    phi = [np.empty((pr.K, pr.N)) for pr in problems]
    xy = [[] for _ in problems]
    for members, w, r, rtil in groups:
        kt = rtil.shape[2]
        own = np.concatenate([blankings[p][ks].ravel() for p, ks in members])
        nbr = np.concatenate([
            seens[p][problems[p].neighbors.nbr[ks]].transpose(0, 2, 1)
            .reshape(-1, kt) for p, ks in members])
        out = lanes.solve_lanes(own, nbr, w, r, rtil)
        lo = 0
        for p, ks in members:
            n_rb = problems[p].N
            c = slice(lo, lo + ks.size * n_rb)
            lo = c.stop
            x, y, phi_g, lam_eq_g, lam_nbr_g = (a[c] for a in out)
            phi[p][ks] = phi_g.reshape(-1, n_rb)
            lam_eq[p][ks] = lam_eq_g.reshape(-1, n_rb)
            lam_nbr[p][ks] = lam_nbr_g.reshape(-1, n_rb, kt)
            xy[p].append((x, y))
    passes = []
    for p in range(len(problems)):
        master_value = 0.0
        for v in phi[p].ravel().tolist():     # sequential, in (k, n) order
            master_value += v
        passes.append((lam_eq[p], lam_nbr[p], master_value, xy[p]))
    return passes


def _binary_fraction(xy, blanking, tol=1e-6):
    """Share of relaxed variables (x, y and blanking) at 0 or 1."""
    vals = np.concatenate([a.ravel() for pair in xy for a in pair]
                          + [np.asarray(blanking, dtype=float).ravel()])
    at_bound = (np.abs(vals) < tol) | (np.abs(1.0 - vals) < tol)
    return int(np.sum(at_bound)) / vals.size


def _subgradient_run(problems, groups, config, inits, frozen=None):
    """Run the master loops of all problems in lockstep, on the lanes of
    `groups` (see `_lane_groups`).

    Returns four lists, one entry per problem: the final I, the master
    value per pass, the rounded iterates and the final I as neighbors
    see it. `frozen[p]`, when given, marks problem p's entries held at 1.
    """
    blankings = [i.copy() for i in inits]
    if frozen is not None:
        for b, f in zip(blankings, frozen):
            b[f] = 1.0

    def as_seen(i_mat):
        if not config.quantize_exchange:
            return i_mat
        return _quantize(i_mat, config.quant_bits, vmax=1.0)

    rounded = [[round_blanking(b)] for b in blankings]
    values = [[] for _ in problems]
    seens = [as_seen(b) for b in blankings]
    for it in range(1, config.n_iter + 1):
        for p, (lam_eq, lam_nbr, value, _) in enumerate(
                _solve_pass(problems, groups, blankings, seens)):
            if config.quantize_exchange:
                # each (sector, neighbor) message carries its own scale
                lam_nbr = _quantize(lam_nbr, config.quant_bits, axis=1)
            grad = compute_subgradient(lam_eq, lam_nbr,
                                       problems[p].neighbors)
            values[p].append(value)
            blanking = master_step(blankings[p], grad, it,
                                   config.step_constant)
            if frozen is not None:
                blanking[frozen[p]] = 1.0
            blankings[p] = blanking
            seens[p] = as_seen(blanking)
            rounded[p].append(round_blanking(blanking))
    return blankings, values, rounded, seens


def _masked_triples(problem, blank1):
    """The re-run's rate triples: every gain from a sector blanked in
    `blank1` zeroed, serving gains kept."""
    off = blank1.astype(float).T[None, :, :]     # (1, N, K)
    masked = []
    for k, g in enumerate(problem.gains):
        masked.append(g * (1.0 - off))
        masked[k][:, :, k] = g[:, :, k]
    return precompute_rate_triples(masked, problem.radio, problem.neighbors,
                                   problem.amc, problem.margin_db)


def _round_start(problem, warm_start):
    """Weight scale, normalised master weights and initial blanking (the
    clipped warm start, else all zeros: reuse-1) of one round."""
    scale = 1.0
    weights = [np.asarray(w, dtype=float) for w in problem.weights]
    wr = [w[:, None] * r for w, r in zip(weights, problem.triples.r)]
    mean = float(np.mean(np.concatenate([v.ravel() for v in wr])))
    if mean > 0:
        scale = mean
        weights = [w / scale for w in weights]
    if warm_start is None:
        init = np.zeros((problem.K, problem.N))
    else:
        init = np.clip(np.asarray(warm_start, dtype=float), 0.0, 1.0)
    return scale, weights, init


def run_rounds(problems, config, warm_starts=None):
    """Coordinated rounds of independent problems, advanced in lockstep.

    Every master pass solves the subproblems of all problems together
    (see `_solve_pass`); the exchange, master steps, rounding scores and
    final schedules stay per problem, so each result equals a round of
    that problem alone, bit for bit. Returns one IcicResult per problem,
    in order.

    warm_starts: optional list, per problem None or a (K, N) fractional
    blanking from the previous execution; the default initial point is
    all zeros (reuse-1). Every problem needs K_tilde >= 1: a sector
    without neighbors has nothing to coordinate.
    """
    for pr in problems:
        if pr.neighbors.k_tilde < 1:
            raise ValueError(f"k_tilde = {pr.neighbors.k_tilde}: coordination "
                             f"needs k_tilde >= 1")
    if warm_starts is None:
        warm_starts = [None] * len(problems)
    if len(warm_starts) != len(problems):
        raise ValueError(f"{len(warm_starts)} warm starts for "
                         f"{len(problems)} problems")
    if not problems:
        return []
    scales, weights, inits = zip(*[
        _round_start(pr, ws) for pr, ws in zip(problems, warm_starts)])
    groups = _lane_groups(problems, weights,
                          (pr.triples for pr in problems))
    finals, values, rounded, seens = _subgradient_run(
        problems, groups, config, inits)
    candidates = [
        [(i, bound_objective(w, pr.triples, i, pr.neighbors)) for i in rnd]
        for pr, w, rnd in zip(problems, weights, rounded)]
    if config.n_iter > 0:
        # bookkeeping only: the final value and x/y, no exchange
        binary = []
        for vals, (_, _, final_value, xy), final_i in zip(
                values, _solve_pass(problems, groups, finals, seens), finals):
            vals.append(final_value)
            binary.append(_binary_fraction(xy, final_i))
    else:
        for vals, cands in zip(values, candidates):
            vals.append(cands[0][1])
        binary = [1.0] * len(problems)

    if config.runs == 2:
        blank1 = [max(cands, key=lambda c: c[1])[0] for cands in candidates]
        # one masked channel alive at a time: only its lanes are kept
        groups = _lane_groups(problems, weights, (
            _masked_triples(pr, b) for pr, b in zip(problems, blank1)))
        _, _, rounded2, _ = _subgradient_run(
            problems, groups, config, finals,
            frozen=[b.astype(bool) for b in blank1])
        # the re-run's iterates are scored on the true channel
        for pr, w, cands, rnd in zip(problems, weights, candidates,
                                     rounded2):
            cands += [(i, bound_objective(w, pr.triples, i, pr.neighbors))
                      for i in rnd]

    return [_round_result(*args, config) for args in zip(
        problems, weights, scales, candidates, values, finals, binary)]


def _round_result(problem, weights, scale, candidates, values, final_i,
                  binary_fraction, config):
    """Pick the rounding, schedule it on exact rates, and report."""
    k_sec, n_rb = problem.K, problem.N
    nmap = problem.neighbors
    m_bar = float(np.mean([w.shape[0] for w in weights]))
    i_star, p_hat = max(candidates, key=lambda c: c[1])

    p_hat_hist, best = [], -np.inf
    for _, v in candidates[:config.n_iter + 1]:
        best = max(best, v)
        p_hat_hist.append(best * scale)
    p_relaxed = max(max(values), max(v for _, v in candidates), p_hat)
    gap_hist = [optimality_gap(p_relaxed, v / scale) if p_relaxed > 0
                else 0.0 for v in p_hat_hist]

    gap = GapReport(
        p_relaxed=p_relaxed * scale,
        p_hat=p_hat * scale,
        gap_bound_percent=optimality_gap(p_relaxed, p_hat)
        if p_relaxed > 0 else 0.0,
        binary_fraction=binary_fraction,
        binary_guarantee_percent=binary_share_guarantee(m_bar, nmap.k_tilde),
        gap_history=gap_hist,
        p_hat_history=p_hat_hist,
    )

    assignments, rates, objective = finalize_schedule(
        problem.gains, problem.weights, problem.radio, problem.amc, i_star,
        problem.margin_db)

    overhead = overhead_report(m_bar, nmap.k_tilde, n_rb, config)
    # per iteration of each run every sector sends K_tilde*N duals and
    # its K_tilde*N blanking levels
    overhead.simulated_values = \
        config.runs * 2 * config.n_iter * k_sec * nmap.k_tilde * n_rb
    overhead.simulated_bits = overhead.simulated_values * config.quant_bits

    return IcicResult(blanking=i_star, assignments=assignments,
                      exact_rates=rates, realized_objective=objective,
                      gap=gap, overhead=overhead, warm_start=final_i)


def run_coordination(problem, config, warm_start=None):
    """Full coordinated round: subgradient master, rounding, local
    scheduling with exact rates, gap and overhead reports.

    A batch of one `run_rounds`. warm_start: optional (K, N) fractional
    blanking from the previous execution; the default initial point is
    all zeros (reuse-1).
    """
    return run_rounds([problem], config, [warm_start])[0]


# --- closed-form reports ---

def optimality_gap(p_relaxed, p_hat):
    """Estimated gap percentage, the paper's quantity.

    Not a bound on the true gap: p_relaxed is the best of several lower
    bounds, so it can fall below the exhaustive optimum and understate
    the gap.
    """
    if p_relaxed <= 0:
        raise ValueError(f"optimality gap undefined for p_relaxed={p_relaxed}")
    return 100.0 * (p_relaxed - p_hat) / p_relaxed


def binary_share_guarantee(m_bar, k_tilde):
    """Guaranteed percentage of relaxed variables at binary values."""
    if m_bar < 1 or k_tilde < 1:
        raise ValueError("need m_bar >= 1 and k_tilde >= 1")
    return 100.0 * k_tilde * (m_bar - 1) / ((k_tilde + 1) * m_bar + 1)


def overhead_report(m_per_sector, k_tilde, n_rbs, config):
    """Message-exchange rates for the distributed and centralized forms."""
    period_s = config.rho * 1e-3
    r_dist = 2.0 * config.n_iter * k_tilde * n_rbs * config.quant_bits \
        / period_s
    r_cent = n_rbs * m_per_sector * (k_tilde + 1) * config.quant_bits \
        / period_s
    ratio = m_per_sector * (k_tilde + 1) / (2.0 * k_tilde * config.n_iter) \
        if config.n_iter > 0 else np.inf
    return OverheadReport(r_distributed_bps=r_dist, r_centralized_bps=r_cent,
                          ratio=ratio)
