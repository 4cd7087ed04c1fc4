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

Every sector has the same user count M, so within one master pass all
K*N subproblems share this topology, and the pass solves them, for every
problem of a batch, as the array lanes of one `lanes.LaneSet`, in closed
form, as a fractional knapsack (see the lanes module docstring). The set
is built once per master run from the run's fixed weights and rate
triples: it holds each lane's best users, gains and gain order, so a
pass's `LaneSet.solve` call only fills the knapsacks at that pass's
blanking levels and reads each lane's value and duals off the fill. No
master pass builds x or y: run 1 ends with a bookkeeping pass at its
final iterate, which gives the last master value and is the one call
of `LaneSet.primal` per round, for the binary share. The `runs=2`
re-run, whose triples leave out the frozen sectors' interference, gets
a set of its own and has no bookkeeping pass.
`solve_subproblem` (one FlowNetwork, solved by `mcnf.solve`) is the
paper's network-flow method and the per-lane reference: every lane of
the closed form must be optimal, and its value and duals must match the
flow solve's within a stated tolerance (`oracle.lane_mismatches`). The
master loop itself never calls it.

A lockstep batch of independent rounds on one network is one
`CoordinationProblem` with a leading round axis. `run_rounds` holds the
master state of its P rounds as (P, K, N) arrays and advances them
together, including the `runs=2` re-run, where each round keeps its own
frozen set, and the re-run's rate triples of all P come from one call on
the batch's gains, with each round's frozen sectors silenced. Each pass
is one lane call, one exchange and one master step for the batch, and
each run's rounded iterates of all P are scored by one `bound_objective`
call and picked by argmax over the (P, C) scores. These steps are
elementwise or keep each round's own float order (each master value and
score is summed in its own (k, n) order), so a batched result equals the
round run alone bit for bit; only the reports are built per round.
`run_coordination` is a batch of one that also schedules its blanking.

The master consumes one dual per subproblem balance constraint: the
subgradient of the summed sector values with respect to I[k] is the
neighbors' credits minus the sector's own loss,
Lambda[k] = -lambda_own[k] + sum over neighbors of lambda_from[nbr -> k].
The lane solve returns these multipliers (for the flow solve they are
node potentials with the collector gauge fixed to zero); validity is
enforced by the subgradient inequality rather than any sign convention
(see tests). `compute_subgradient` is the one place that assembles
Lambda: a pass posts all its (..., K, N, K_tilde) duals to a `Mailbox`
once, and one gather through a fixed (sender, position) index drains
every inbox. The master loop, `icicsim verify` and the tests all go
through it. Message counts follow from array shapes: per iteration of
each run, every sector sends K_tilde*N duals and its K_tilde*N blanking
levels.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lanes, mcnf
from .fairsched import local_schedule
from .linkadapt import (RateTriples, default_amc_table,
                        precompute_rate_triples)
from .schema import check_fields, rule


@dataclass
class IcicConfig:
    """The `icic` config section: n_iter, rho, runs, quant_bits and
    quantize_exchange. The master's step at iteration t is 1 / t."""

    n_iter: int = rule(5, ge=0)               # 0 skips the master
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
    gap: GapReport
    overhead: OverheadReport
    warm_start: np.ndarray           # final fractional iterate (K, N)
    assignments: np.ndarray = None   # (K, M, N) int8, run_coordination only
    exact_rates: np.ndarray = None   # (K, M, N) kbit/s
    realized_objective: float = None  # exact-rate weighted sum


@dataclass
class CoordinationProblem:
    """Everything one coordinated scheduling round needs. Every sector has
    the same user count M; weights and gains may be given per sector.
    A batch of P rounds on one network puts a round axis in front of the
    weights, gains and triples; `rounds` is P (None for one round), and
    `batch[p]` is round p as views, walked by index, not iteration."""

    neighbors: object                # NeighborMap
    weights: np.ndarray              # (..., K, M)
    gains: np.ndarray                # (..., K, M, N, K)
    radio: object                    # RadioConfig
    amc: object = None
    triples: object = None           # RateTriples, stacked like the gains

    __iter__ = None

    def __post_init__(self):
        counts = [len(w) for w in self.weights]
        if len(set(counts)) > 1:
            raise ValueError(f"every sector needs the same user count, "
                             f"got weights for {counts} users")
        self.weights = np.asarray(self.weights, dtype=float)
        self.gains = np.asarray(self.gains)
        users = self.gains.shape[:self.weights.ndim]
        if users != self.weights.shape:
            raise ValueError(
                f"gains for (..., K, M) = {users} users do not match "
                f"weights for {self.weights.shape}")
        if self.amc is None:
            self.amc = default_amc_table()
        if self.triples is None:
            self.triples = precompute_rate_triples(
                self.gains, self.radio, self.neighbors, self.amc)

    @property
    def K(self):
        return self.neighbors.K

    @property
    def N(self):
        return self.gains.shape[-2]

    @property
    def rounds(self):
        return len(self.weights) if self.weights.ndim == 3 else None

    def __getitem__(self, p):
        """Round p of a batch; a slice is a sub-batch, and None makes a
        single round a batch of one."""
        if self.rounds is None and p is not None:
            raise TypeError("a single round has no rounds to index")
        return CoordinationProblem(
            neighbors=self.neighbors, weights=self.weights[p],
            gains=self.gains[p], radio=self.radio, amc=self.amc,
            triples=RateTriples(r=self.triples.r[p],
                                rtil=self.triples.rtil[p]))


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


def master_step(blanking, grad, iteration):
    """One projected subgradient ascent step of size 1 / iteration,
    elementwise clip to [0, 1]."""
    if iteration < 1:
        raise ValueError("iteration index is 1-based")
    # (1 / t) * grad, not grad / t: the two round differently
    return np.clip(blanking + (1.0 / iteration) * grad, 0.0, 1.0)


def round_blanking(blanking):
    """Nearest binary point; exact halves round up."""
    return np.floor(np.asarray(blanking) + 0.5).astype(np.int8)


def bound_objective(weights, triples, blanking, neighbors):
    """Bound-problem value of a binary blanking with optimal local picks.

    For each live (sector, RB): the best user counting the single
    strongest blanked neighbor's extra rate. `blanking` is (..., K, N)
    under any leading axes, and the value has those leading axes; a
    single (K, N) pattern gives a float. weights (..., K, M) and the
    triples r (..., K, M, N) and rtil (..., K, M, N, K_tilde) broadcast
    over the same leading axes, so a batch of P problems scores its
    (P, C, K, N) candidates with weights (P, 1, K, M) and triples
    (P, 1, ...).

    All sectors are scored together on the triples (products and maxima
    are exact); the credit is a running maximum over the K_tilde
    neighbor positions. Each sector total sums only the live RBs of its
    pattern: rows with the same live count are summed together, and a
    row sum adds the same values in the same order as a 1-D sum, so each
    value equals scoring its pattern alone bit for bit. The sector
    totals are added one at a time, in sector order.
    """
    blanking = np.asarray(blanking)
    nbr_rows = blanking[..., neighbors.nbr, :][..., None, :, :]
    credit = triples.rtil[..., 0] * nbr_rows[..., 0, :]  # (..., K, M, N)
    for pos in range(1, neighbors.k_tilde):
        np.maximum(credit, triples.rtil[..., pos] * nbr_rows[..., pos, :],
                   out=credit)
    best = ((triples.r + credit) * weights[..., None]).max(axis=-2)
    live = blanking == 0
    counts = live.sum(axis=-1)                          # (..., K)
    sector_total = np.zeros(counts.shape)
    for n_live in np.unique(counts[counts > 0]).tolist():
        rows = counts == n_live
        sector_total[rows] = best[rows][live[rows]].reshape(
            -1, n_live).sum(axis=1)
    total = np.zeros(counts.shape[:-1])
    for k in range(neighbors.K):
        total += sector_total[..., k]
    return total if total.ndim else float(total)


def finalize_schedule(gains, weights, radio, amc, blanking):
    """Exact rates under a binary blanking, then the per-sector argmax rule.

    gains: (K, M, N, K); weights: (K, M). The exact SINR and the AMC
    lookup run on the (K*M, N, K) view of the gains, and `local_schedule`
    runs once, its batch axis over the sectors. Each user's interference
    is summed in the same order as for a single sector.

    Returns (assignments, rates, objective): the (K, M, N) int8 assignment
    and kbit/s rates, and the weighted rate summed sector by sector.
    Identical code path to the uncoordinated scheduler, so forcing
    blanking to zero reproduces it bit for bit.
    """
    blanking = np.asarray(blanking)
    k_sec, m = gains.shape[:2]
    g = gains.reshape(k_sec * m, *gains.shape[2:])     # a view, no copy
    w = np.asarray(weights, dtype=float)
    owner = np.repeat(np.arange(k_sec), m)             # sector of each row
    on = 1.0 - blanking.T.astype(float)                # (N, K)
    own = g[np.arange(owner.size), :, owner]            # serving gain
    interf = np.einsum("mnk,nk->mn", g, on) - own * on[:, owner].T
    sinr = radio.p_c_watts * own \
        / (radio.p_c_watts * interf + radio.p_n_watts)
    rates = amc.rate_linear(sinr).reshape(k_sec, m, -1)
    assign = local_schedule(w, rates, blanking)
    sector_value = (w[:, :, None] * assign * rates).reshape(
        k_sec, -1).sum(axis=1)
    objective = 0.0
    for v in sector_value.tolist():     # sequential, in sector order
        objective += v
    return assign, rates, objective


# --- the simulated sector exchange ---

class Mailbox:
    """Every sector's inbox. The message to k from s = nbr[k][i] is s's
    post at the j where nbr[s][j] == k, a fixed (sender, position) index:
    `NeighborMap` ensures each sector hears once from each neighbor."""

    def __init__(self, neighbors):
        nbr = neighbors.nbr
        back = (nbr[nbr] == np.arange(len(nbr))[:, None, None]).argmax(2)
        self._slot = nbr * nbr.shape[1] + back      # (K, K_tilde), flat

    def post(self, lam_nbr):
        """All of a pass's messages, lam_nbr (..., K, N, K_tilde)."""
        self._posted = lam_nbr

    def drain(self):
        """Every inbox, (..., K, K_tilde, N) in its sector's nbr order."""
        sent = np.swapaxes(self._posted, -1, -2)    # (..., K, K_tilde, N)
        sent = sent.reshape(*sent.shape[:-3], -1, sent.shape[-1])
        return sent[..., self._slot, :]


def compute_subgradient(lam_eq, lam_nbr, neighbors):
    """Assemble the master subgradient by the simulated sector exchange.

    lam_eq: (..., K, N); lam_nbr: (..., K, N, K_tilde) in neighbor-position
    order, under any leading batch axes. One `Mailbox` post and drain
    give every inbox; each sector adds its messages onto zero in its nbr
    order, as a sum over them would, then to minus its lam_eq, so each
    batch member's subgradient equals its own call's, bit for bit.
    """
    box = Mailbox(neighbors)
    box.post(lam_nbr)
    inbox = box.drain()
    total = np.zeros(lam_eq.shape)
    for i in range(inbox.shape[-2]):
        total += inbox[..., i, :]
    return -lam_eq + total


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


def _lane_inputs(weights, r, rtil):
    """The lane set of one master run of a batch: a `lanes.LaneSet` on
    w and r (L, M) and rtil (L, M, K_tilde), for the L = P*K*N lanes in
    (p, k, n) order, from the (P, K, M) weights and the stacked rate
    triples r (P, K, M, N) and rtil (P, K, M, N, K_tilde)."""
    m, n_rb, kt = rtil.shape[2:]
    return lanes.LaneSet(np.repeat(weights, n_rb, axis=1).reshape(-1, m),
                         r.transpose(0, 1, 3, 2).reshape(-1, m),
                         rtil.transpose(0, 1, 3, 2, 4).reshape(-1, m, kt))


def _solve_pass(lane_set, nbr, blanking, config, primal=False):
    """Solve every (sector, RB) subproblem of one master pass of a batch
    in one `solve` call of the run's lane set (see `_lane_inputs`).

    blanking: (P, K, N), which neighbors see quantized when the config
    quantizes the exchange; nbr: the (K, K_tilde) neighbor sets. Returns
    the duals lam_eq (P, K, N) and lam_nbr (P, K, N, K_tilde), the (P,)
    master values, each summed in (k, n) order from the lanes' closed-
    form phi, and, when `primal` is set, the lanes' x and y (else None).
    """
    seen = blanking
    if config.quantize_exchange:
        seen = _quantize(blanking, config.quant_bits, vmax=1.0)
    shape = blanking.shape
    kt = nbr.shape[1]
    nbr_levels = seen[:, nbr].transpose(0, 1, 3, 2).reshape(-1, kt)
    sol = lane_set.solve(blanking.ravel(), nbr_levels)
    # cumsum adds each problem's terms one at a time, as a loop would; a
    # pairwise sum would move the last bits
    value = np.cumsum(sol.phi.reshape(shape[0], -1), axis=1)[:, -1]
    xy = lane_set.primal(sol) if primal else None
    return (sol.lam_eq.reshape(shape), sol.lam_nbr.reshape(*shape, kt),
            value, xy)


def _binary_fraction(arrays, tol=1e-6):
    """Each problem's share of relaxed variables (x, y and blanking) at 0
    or 1. Every array holds the batch's problems in order along its first
    axis."""
    flat = [a.reshape(arrays[-1].shape[0], -1) for a in arrays]  # no copy
    at_bound = sum(((np.abs(v) < tol) | (np.abs(1.0 - v) < tol)).sum(axis=1)
                   for v in flat)
    return (at_bound / sum(v.shape[1] for v in flat)).tolist()


def _subgradient_run(lane_set, neighbors, config, init, frozen=None):
    """Run the master loops of a batch in lockstep, on the run's lane set
    (see `_lane_inputs`; None when n_iter is 0): each pass is one lane
    call, one exchange and one master step for the whole batch.

    init: (P, K, N). Returns the final I (P, K, N), the (P,) master
    values of each pass and the rounded iterates (P, n_iter + 1, K, N).
    `frozen`, when given, is a (P, K, N) mask of the entries held at 1.
    """
    blanking = init.copy()
    if frozen is not None:
        blanking[frozen] = 1.0
    rounded = [round_blanking(blanking)]
    values = []
    for it in range(1, config.n_iter + 1):
        lam_eq, lam_nbr, value, _ = _solve_pass(lane_set, neighbors.nbr,
                                                blanking, config)
        if config.quantize_exchange:
            # each (sector, neighbor) message carries its own scale
            lam_nbr = _quantize(lam_nbr, config.quant_bits, axis=-2)
        grad = compute_subgradient(lam_eq, lam_nbr, neighbors)
        values.append(value)
        blanking = master_step(blanking, grad, it)
        if frozen is not None:
            blanking[frozen] = 1.0
        rounded.append(round_blanking(blanking))
    return blanking, values, np.stack(rounded, axis=1)


def run_rounds(batch, config, warm_start=None):
    """Coordinated rounds of a batch (see `CoordinationProblem`),
    advanced in lockstep; a single round runs as a batch of one.

    The master state is held as (P, K, N) arrays, so each master pass is
    one lane call, one exchange and one master step for the whole batch
    (see `_subgradient_run`) on a lane set built once per run (see
    `_lane_inputs`), and each run's rounded iterates of every round are
    scored by one `bound_objective` call, as a (P, C) array from which
    the picks are argmax and running-max reductions along C. Only the
    reports are built per round. Every step is elementwise or keeps each
    round's own float order, so each result equals that round run alone,
    bit for bit. Returns one IcicResult per round, in order, with no
    schedule.

    warm_start: optional fractional blanking from the previous execution,
    shaped (..., K, N) like the batch's blankings, else a ValueError; the
    default initial point is all zeros (reuse-1).
    """
    shape = (*batch.weights.shape[:-1], batch.N)
    # the clipped warm start, else all zeros: reuse-1
    init = np.zeros(shape) if warm_start is None else \
        np.clip(np.asarray(warm_start, dtype=float), 0.0, 1.0)
    if init.shape != shape:
        raise ValueError(f"a warm start of shape {init.shape} for "
                         f"blankings of shape {shape}")
    if batch.rounds is None:
        batch, init = batch[None], init[None]
    if not batch.rounds:
        return []
    nmap, k_sec, n_rb = batch.neighbors, batch.K, batch.N
    r, rtil = batch.triples.r, batch.triples.rtil       # (P, K, M, N, ...)
    # master weights are normalised by each round's mean weighted rate
    mean = np.array([np.mean(w[:, :, None] * r_p)
                     for w, r_p in zip(batch.weights, r)])
    scale = np.where(mean > 0, mean, 1.0)
    weights = batch.weights / scale[:, None, None]
    # a run's rounded iterates (P, C, K, N) are scored on the true channel;
    # the weights and triples broadcast over C
    true_channel = RateTriples(r=r[:, None], rtil=rtil[:, None])

    def score(rounded):
        return bound_objective(weights[:, None], true_channel, rounded, nmap)

    # one lane set per master run; a run without a master pass solves no
    # lane and builds none
    run1 = _lane_inputs(weights, r, rtil) if config.n_iter > 0 else None
    finals, values, rounded = _subgradient_run(run1, nmap, config, init)
    scores = score(rounded)
    if config.n_iter > 0:
        # bookkeeping only: the final value and the run's one x and y,
        # for the binary share; no exchange
        _, _, final_value, xy = _solve_pass(run1, nmap.nbr, finals, config,
                                            primal=True)
        # run 1 has no pass left: free its lane set before the round's
        # largest arrays, the binary share's, are built
        del run1
        values = np.column_stack(values + [final_value])
        binary = _binary_fraction((*xy, finals))
    else:
        values = scores[:, :1]
        binary = [1.0] * batch.rounds
    # best rounded value after each iterate of the first run
    p_hat_hist = (np.maximum.accumulate(scores, axis=1)
                  * scale[:, None]).tolist()
    rows = np.arange(batch.rounds)

    if config.runs == 2:
        blank1 = rounded[rows, scores.argmax(axis=1)]
        run2 = None
        if config.n_iter > 0:
            rerun = precompute_rate_triples(batch.gains, batch.radio, nmap,
                                            batch.amc, silenced=blank1)
            run2 = _lane_inputs(weights, rerun.r, rerun.rtil)
        _, _, rounded2 = _subgradient_run(run2, nmap, config, finals,
                                          frozen=blank1.astype(bool))
        rounded = np.concatenate([rounded, rounded2], axis=1)
        scores = np.concatenate([scores, score(rounded2)], axis=1)

    # argmax takes the first maximum, as max() over the iterates would
    pick = scores.argmax(axis=1)
    i_star = rounded[rows, pick]
    p_hat = scores[rows, pick]
    p_relaxed = np.maximum(values.max(axis=1), p_hat)

    m_bar = float(batch.weights.shape[-1])
    guarantee = binary_share_guarantee(m_bar, nmap.k_tilde)
    overhead = overhead_report(m_bar, nmap.k_tilde, n_rb, config)
    # per iteration of each run every sector sends K_tilde*N duals and
    # its K_tilde*N blanking levels
    overhead.simulated_values = \
        config.runs * 2 * config.n_iter * k_sec * nmap.k_tilde * n_rb
    overhead.simulated_bits = overhead.simulated_values * config.quant_bits

    results = []
    for rel, hat, s, hist, frac, blank, final in zip(
            p_relaxed.tolist(), p_hat.tolist(), scale.tolist(),
            p_hat_hist, binary, i_star, finals):
        gap = GapReport(
            p_relaxed=rel * s,
            p_hat=hat * s,
            gap_bound_percent=optimality_gap(rel, hat) if rel > 0 else 0.0,
            binary_fraction=frac,
            binary_guarantee_percent=guarantee,
            gap_history=[optimality_gap(rel, v / s) if rel > 0 else 0.0
                         for v in hist],
            p_hat_history=hist,
        )
        results.append(IcicResult(blanking=blank, gap=gap,
                                  overhead=overhead, warm_start=final))
    return results


def run_coordination(problem, config, warm_start=None):
    """Full coordinated round: subgradient master, rounding, local
    scheduling with exact rates, gap and overhead reports.

    A batch of one `run_rounds` plus `finalize_schedule` on its blanking.
    warm_start: optional (K, N) fractional blanking from the previous
    execution; the default initial point is all zeros (reuse-1).
    """
    res = run_rounds(problem, config, warm_start)[0]
    res.assignments, res.exact_rates, res.realized_objective = \
        finalize_schedule(problem.gains, problem.weights, problem.radio,
                          problem.amc, res.blanking)
    return res


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
