"""Stacked scoring and rate triples against the loops they replaced.

`bound_objective` scores a stack of blankings over all sectors at once,
also one stack per problem of a batch, `run_rounds` picks every
problem's rounding from the batch's (P, C) scores,
`precompute_rate_triples` takes each rate from a certified AMC row of a
total less the removed gains, also for a stack of problems, the lane
inputs are read from the stacked (P, K, M, ...) arrays, the re-run's
triples silence the frozen sectors instead of reading a masked copy of
the gains (a plain call silencing none), and `exhaustive_bound` scores
each neighbor pattern once.
The references below are the per-candidate, per-problem, per-sector,
masked-copy and per-pattern versions, and the new code must equal them
bit for bit. Tables whose edges sit on the reference SINRs, and one
interferer 1e16 times the rest, send the triples to their masked-sum
fallback.
"""

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import network as nw
from icicsim import oracle
from icicsim.instances import random_desk_instance, random_desk_instances
from icicsim.linkadapt import (DEFAULT_AMC_ROWS, AmcTable, RadioConfig,
                               RateTriples, default_amc_table,
                               precompute_rate_triples)
from icicsim.simulate import SimConfig

RADIO = RadioConfig(p_c_watts=1.0, p_n_watts=0.01)


def _bound_objective_one(weights, triples, blanking, neighbors):
    blanking = np.asarray(blanking)
    total = 0.0
    for k in range(neighbors.K):
        nbr_rows = blanking[neighbors.nbr[k]]
        credit = (triples.rtil[k] * nbr_rows.T[None, :, :]).max(axis=2)
        val = (triples.r[k] + credit) * weights[k][:, None]
        live = blanking[k] == 0
        if np.any(live):
            total += float(val[:, live].max(axis=0).sum())
    return total


def _triples_per_sector(gains_per_sector, radio, neighbors, amc):
    p_c, p_n = radio.p_c_watts, radio.p_n_watts
    r_out, rtil_out = [], []
    for k, g in enumerate(gains_per_sector):
        m_k, n_rb, n_sec = g.shape
        nbr = neighbors.nbr[k]
        others = np.ones(n_sec, dtype=bool)
        others[k] = False
        total_int = p_c * g[:, :, others].sum(axis=2)
        gamma = p_c * g[:, :, k] / (total_int + p_n)
        r = amc.rate_linear(gamma)
        rtil = np.empty((m_k, n_rb, len(nbr)))
        for pos, j in enumerate(nbr):
            mask = others.copy()
            mask[j] = False
            removed_int = p_c * g[:, :, mask].sum(axis=2)
            gamma_t = p_c * g[:, :, k] / (removed_int + p_n)
            rtil[:, :, pos] = amc.rate_linear(gamma_t) - r
        r_out.append(r)
        rtil_out.append(rtil)
    return r_out, rtil_out


def _exhaustive_bound_per_pattern(problem):
    weights, triples = problem.weights, problem.triples
    nmap = problem.neighbors
    pats = oracle._all_patterns(problem.K)[0]

    def sector_best(k, n):
        r = triples.r[k][:, n]
        rtil = triples.rtil[k][:, n, :]
        blanked = pats[:, nmap.nbr[k]]
        credit = np.max(rtil[None, :, :] * blanked[:, None, :], axis=2)
        return np.max(weights[k] * (r + credit), axis=1)

    return oracle._best_patterns(problem, sector_best)


def _random_blankings(rng, count, k_sec, n_rb):
    """Each (pattern, sector) row gets a live count drawn from 0..n_rb."""
    stack = np.ones((count, k_sec, n_rb), dtype=np.int8)
    for row in stack.reshape(-1, n_rb):
        row[rng.permutation(n_rb)[:rng.integers(0, n_rb + 1)]] = 0
    return stack


@pytest.mark.parametrize("users", [2, 1, 3],
                         ids=["uniform", "one_user", "three_users"])
def test_bound_objective_stack_equals_per_candidate_loop(users):
    prob = random_desk_instance(n_sectors=6, users_per_sector=users,
                                n_rbs=50, k_tilde=2, seed=31)
    rng = np.random.default_rng(32)
    weights = prob.weights * rng.uniform(0.1, 3.0, (6, 1))
    stack = _random_blankings(rng, 40, 6, 50)
    live = (stack == 0).sum(axis=2)
    assert live.min() == 0 and (live < 8).any() and (live >= 8).any()
    got = co.bound_objective(weights, prob.triples, stack, prob.neighbors)
    ref = np.array([_bound_objective_one(weights, prob.triples, b,
                                         prob.neighbors) for b in stack])
    assert got.shape == (40,)
    assert got.tobytes() == ref.tobytes()
    one = co.bound_objective(weights, prob.triples, stack[3], prob.neighbors)
    assert type(one) is float and one == ref[3]

    # a (P, C, K, N) stack, each problem with its own weights and triples
    batch = random_desk_instances([31, 33, 34], n_sectors=6,
                                  users_per_sector=users, n_rbs=50,
                                  k_tilde=2)
    weights = np.stack([w * rng.uniform(0.1, 3.0, (6, 1))
                        for w in batch.weights])
    stack = _random_blankings(rng, 3 * 7, 6, 50).reshape(3, 7, 6, 50)
    triples = RateTriples(r=batch.triples.r[:, None],
                          rtil=batch.triples.rtil[:, None])
    got = co.bound_objective(weights[:, None], triples, stack,
                             prob.neighbors)
    ref = np.array([[_bound_objective_one(w, batch[p].triples, b,
                                          batch.neighbors)
                     for b in cands]
                    for p, (w, cands) in enumerate(zip(weights, stack))])
    assert got.shape == (3, 7)
    assert got.tobytes() == ref.tobytes()


def _gains(rng, users, n_rb, n_sec):
    """(K, M, N, K) gains spread over 40 dB, the serving column strongest,
    so the SINRs cover most AMC rows."""
    gains = np.empty((n_sec, users, n_rb, n_sec))
    for k, g in enumerate(gains):
        g[:] = 10 ** rng.uniform(-4.0, -1.0, g.shape)
        g[:, :, k] = 10 ** rng.uniform(-1.5, 0.0, (users, n_rb))
    return gains


class _SinrTable:
    """Stands in for an AMC table and returns the SINR, so the SINR
    arithmetic itself is compared bit for bit. It certifies no interval,
    so every entry of the triples takes the masked-sum fallback."""

    @staticmethod
    def rate_linear(sinr_linear):
        return np.asarray(sinr_linear)

    @staticmethod
    def certify(lo, hi):
        return np.zeros(np.shape(hi)), np.ones(np.shape(hi), dtype=bool)


@pytest.mark.parametrize("amc", [default_amc_table(), _SinrTable()],
                         ids=["amc", "sinr"])
@pytest.mark.parametrize("n_sec, k_tilde", [(6, 2), (9, 4), (12, 4), (12, 3)])
def test_triples_equal_per_sector_masks(n_sec, k_tilde, amc):
    # K - 1 below 8 and at least 8, so the pairwise sums differ in shape
    rng = np.random.default_rng(n_sec)
    users = 1 + n_sec % 4                   # 3, 2 or 1 users per sector
    gains = _gains(rng, users, 7, n_sec)
    nmap = nw.ring_neighbor_map(n_sec, k_tilde)
    ref_r, ref_rtil = _triples_per_sector(gains, RADIO, nmap, amc)
    got = precompute_rate_triples(gains, RADIO, nmap, amc)
    assert got.r.shape == (n_sec, users, 7)
    assert got.rtil.shape == (n_sec, users, 7, k_tilde)
    for k in range(n_sec):
        assert got.r[k].tobytes() == ref_r[k].tobytes()
        assert got.rtil[k].tobytes() == ref_rtil[k].tobytes()


def _desk(seed, k_tilde, users, n_rbs=3):
    return random_desk_instance(n_sectors=6, users_per_sector=users,
                                n_rbs=n_rbs, k_tilde=k_tilde, seed=seed)


@pytest.mark.parametrize("k_tilde", [1, 2, 3])
def test_exhaustive_bound_equals_full_pattern_scoring(k_tilde):
    for users in (1, 3):
        prob = _desk(50 + k_tilde, k_tilde, users)
        assert oracle.bit_equal(oracle.exhaustive_bound(prob),
                                _exhaustive_bound_per_pattern(prob))


def _masked_gains(gains, blank1):
    """The re-run's channel as a copy of the (P, K, M, N, K) gains: in
    round p every gain from a sector blanked in blank1[p] (P, K, N) is
    zeroed, sector by sector, and the serving gains are kept."""
    masked = np.empty_like(gains)
    for p, off in enumerate(blank1.astype(float).transpose(0, 2, 1)):
        for k, g in enumerate(gains[p]):
            masked[p, k] = g * (1.0 - off[None, :, :])
            masked[p, k, :, :, k] = g[:, :, k]
    return masked


class _WatchedTable(AmcTable):
    """An AmcTable that keeps the uncertain mask of every SINR interval
    it certifies (rate_linear certifies points, as intervals lo is hi)."""

    def __init__(self, rows):
        super().__init__(rows)
        self.near = []

    def certify(self, lo, hi):
        rate, near = super().certify(lo, hi)
        if lo is not hi:
            self.near.append(near)
        return rate, near


class _SinrRecorder(_SinrTable):
    """Returns the SINRs, as _SinrTable does, and keeps them."""

    def __init__(self):
        self.seen = []

    def rate_linear(self, sinr_linear):
        self.seen.append(np.array(sinr_linear).ravel())
        return np.asarray(sinr_linear)


def _reference_triples(gains, nmap, amc, silenced):
    """The per-sector masks on each problem of (P, K, M, N, K) gains,
    zeroed where silenced, as stacked (P, ...) arrays."""
    if silenced is not None:
        gains = _masked_gains(gains, silenced)
    per = [_triples_per_sector(g, RADIO, nmap, amc) for g in gains]
    return (np.stack([np.stack(r) for r, _ in per]),
            np.stack([np.stack(rtil) for _, rtil in per]))


@pytest.mark.parametrize("every", [True, False], ids=["every", "r_only"])
@pytest.mark.parametrize("silence", [False, True],
                         ids=["all_on", "silenced"])
def test_triples_fallback_on_edges_at_the_reference_sinrs(silence, every):
    # a table whose edges are the instance's own reference SINRs in dB
    # leaves every entry uncertain, so each is recomputed as a masked sum;
    # with edges at the all-on SINRs only, r is uncertain where most of
    # the one-blanked rates are certified, and rtil must use r's fallback
    rng = np.random.default_rng(91)
    gains = np.stack([_gains(rng, 2, 3, 12) for _ in range(2)])
    nmap = nw.ring_neighbor_map(12, 4)
    silenced = (rng.random((2, 12, 3)) < 0.4).astype(np.int8) \
        if silence else None
    recorder = _SinrRecorder()
    sinr_r = _reference_triples(gains, nmap, recorder, silenced)[0]
    edges = np.unique(10.0 * np.log10(
        np.concatenate(recorder.seen) if every else sinr_r.ravel()))
    amc = _WatchedTable([(-np.inf, edges[0], 0.0)]
                        + [(lo, hi, float(i + 1)) for i, (lo, hi)
                           in enumerate(zip(edges[:-1], edges[1:]))]
                        + [(edges[-1], np.inf, float(len(edges)))])
    got = precompute_rate_triples(gains, RADIO, nmap, amc, silenced)
    assert len(amc.near) == 1
    near = amc.near[0]                    # (P, 1 + K_tilde, K, M, N)
    assert near.all() if every else \
        near[:, 0].all() and near[:, 1:].mean() < 0.5
    ref_r, ref_rtil = _reference_triples(gains, nmap, amc, silenced)
    assert got.r.tobytes() == ref_r.tobytes()
    assert got.rtil.tobytes() == ref_rtil.tobytes()
    # the rates took many rows, so a wrong SINR bit would show
    assert len(np.unique(got.r)) > 20


@pytest.mark.parametrize("silence", [False, True],
                         ids=["all_on", "silenced"])
def test_triples_fallback_under_cancellation(silence):
    # one neighbor 1e16 times the other interferers: the total less that
    # neighbor cancels to noise, and no interval it gives is certified
    rng = np.random.default_rng(92)
    gains = np.stack([_gains(rng, 3, 4, 12) for _ in range(2)])
    nmap = nw.ring_neighbor_map(12, 4)
    for k in range(12):
        gains[:, k, :, :, nmap.nbr[k, 1]] = 1e16 * gains[:, k].max()
    silenced = (rng.random((2, 12, 4)) < 0.4).astype(np.int8) \
        if silence else None
    watched = _WatchedTable(DEFAULT_AMC_ROWS)
    for amc in (watched, _SinrTable()):
        got = precompute_rate_triples(gains, RADIO, nmap, amc, silenced)
        ref_r, ref_rtil = _reference_triples(gains, nmap, amc, silenced)
        assert got.r.tobytes() == ref_r.tobytes()
        assert got.rtil.tobytes() == ref_rtil.tobytes()
        if amc is watched:         # removing the giant raised some rates
            assert (got.rtil > 0).any()
    assert any(near.any() for near in watched.near)


def test_masked_triples_equal_per_sector_masking():
    # one silenced call for a batch of three, each with its own blanking,
    # against one plain call on the masked copy of the gains
    for batch in (random_desk_instances([60, 61, 62], n_sectors=6,
                                        users_per_sector=1, n_rbs=6),
                  random_desk_instances([63, 64, 65], n_sectors=6,
                                        users_per_sector=3, n_rbs=6),
                  random_desk_instances([66, 67, 68], n_sectors=8,
                                        users_per_sector=2, n_rbs=6,
                                        k_tilde=3)):
        rng = np.random.default_rng(63)
        blank1 = (rng.random((3, batch.K, batch.N)) < 0.4).astype(np.int8)
        masked = _masked_gains(batch.gains, blank1)
        for amc in (default_amc_table(), _SinrTable()):
            got = precompute_rate_triples(batch.gains, batch.radio,
                                          batch.neighbors, amc,
                                          silenced=blank1)
            ref = precompute_rate_triples(masked, batch.radio,
                                          batch.neighbors, amc)
            assert got.r.shape == batch.triples.r.shape
            assert got.r.tobytes() == ref.r.tobytes()
            assert got.rtil.tobytes() == ref.rtil.tobytes()
        # the silenced interference raised every SINR it touched
        plain = precompute_rate_triples(batch.gains, batch.radio,
                                        batch.neighbors, _SinrTable())
        assert (got.r >= plain.r).all() and (got.r > plain.r).any()


@pytest.mark.parametrize("amc", [default_amc_table(), _SinrTable()],
                         ids=["amc", "sinr"])
@pytest.mark.parametrize("n_sec, k_tilde", [(6, 2), (9, 4), (12, 4)])
def test_stacked_triples_equal_single_calls(n_sec, k_tilde, amc):
    # K - 1 below 8 and at least 8, so the pairwise sums differ in shape
    rng = np.random.default_rng(100 + n_sec)
    users = 1 + n_sec % 4
    stack = np.stack([_gains(rng, users, 5, n_sec) for _ in range(4)])
    nmap = nw.ring_neighbor_map(n_sec, k_tilde)
    got = precompute_rate_triples(stack, RADIO, nmap, amc)
    assert got.r.shape == (4, n_sec, users, 5)
    assert got.rtil.shape == (4, n_sec, users, 5, k_tilde)
    for p, gains in enumerate(stack):
        one = precompute_rate_triples(gains, RADIO, nmap, amc)
        assert got.r[p].tobytes() == one.r.tobytes()
        assert got.rtil[p].tobytes() == one.rtil.tobytes()


def _round57_drop():
    """A 57-sector, 3-user, 50-RB drop on the nearest-6 neighbor map."""
    cfg = SimConfig()
    cfg.scenario.rbs = 50
    dims = nw.NetworkDims.uniform(19, 3, 50)
    layout = nw.generate_layout(dims, cfg.scenario.isd_m)
    radio = cfg.radio()
    gains = nw.draw_channels(layout, dims, nw.ChannelConfig(), radio,
                             np.random.SeedSequence(0).spawn(2)[0]).gains
    return gains, radio, nw.neighbor_map(layout, 6), default_amc_table()


def _gapbench_batch():
    gap = random_desk_instances(range(50), n_sectors=12, users_per_sector=2,
                                n_rbs=2, k_tilde=2)
    return gap.gains, gap.radio, gap.neighbors, gap.amc


@pytest.mark.parametrize("inputs", [_round57_drop, _gapbench_batch],
                         ids=["round57", "gapbench"])
def test_plain_triples_equal_all_zero_silenced(inputs):
    # a plain call is the call that silences no sector
    gains, radio, nmap, amc = inputs()
    silenced = np.zeros((*gains.shape[:-4], nmap.K, gains.shape[-2]))
    assert oracle.bit_equal(
        precompute_rate_triples(gains, radio, nmap, amc),
        precompute_rate_triples(gains, radio, nmap, amc, silenced))


def test_lane_inputs_equal_per_sector_transposes(monkeypatch):
    # the w, r and rtil that `_lane_inputs` builds its lane set from
    batch = random_desk_instances([71, 72, 73], n_sectors=6,
                                  users_per_sector=3, n_rbs=4)
    weights = batch.weights * 0.5
    built = []
    monkeypatch.setattr(co.lanes, "LaneSet", lambda *args: built.append(args))
    co._lane_inputs(weights, batch.triples.r, batch.triples.rtil)
    (got,) = built
    want = [np.concatenate([np.repeat(w, 4, axis=0) for w in weights]),
            np.concatenate([batch[p].triples.r[k].T
                            for p in range(3) for k in range(batch.K)]),
            np.concatenate([batch[p].triples.rtil[k].transpose(1, 0, 2)
                            for p in range(3) for k in range(batch.K)])]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _reference_rounds(batch, config, warm_start):
    """The per-problem selection `run_rounds` replaced: each round's
    weight scale and start, its candidates as (blanking, value) pairs
    scored one pattern per call, and Python max and a running max for
    the picks. The master runs themselves are `run_rounds`' own."""
    nmap = batch.neighbors
    problems = [batch[p] for p in range(batch.rounds)]
    scales, weights, inits = [], [], []
    for pr, ws in zip(problems, warm_start):
        scale, w = 1.0, pr.weights
        mean = float(np.mean(w[:, :, None] * pr.triples.r))
        if mean > 0:
            scale, w = mean, w / mean
        scales.append(scale)
        weights.append(w)
        inits.append(np.clip(ws, 0.0, 1.0))

    def scored(pr, w, rounded):
        return [(b, co.bound_objective(w, pr.triples, b, nmap))
                for b in rounded]

    lane_set = co._lane_inputs(np.stack(weights),
                               np.stack([pr.triples.r for pr in problems]),
                               np.stack([pr.triples.rtil for pr in problems]))
    finals, values, rounded = co._subgradient_run(lane_set, nmap, config,
                                                  np.stack(inits))
    candidates = [scored(pr, w, rnd)
                  for pr, w, rnd in zip(problems, weights, rounded)]
    if config.n_iter > 0:
        _, _, final_value, _ = co._solve_pass(lane_set, nmap.nbr, finals,
                                              config)
        values = np.column_stack(values + [final_value]).tolist()
    else:
        values = [[cands[0][1]] for cands in candidates]
    if config.runs == 2:
        blank1 = np.stack([max(cands, key=lambda c: c[1])[0]
                           for cands in candidates])
        masked = precompute_rate_triples(_masked_gains(batch.gains, blank1),
                                         batch.radio, nmap, batch.amc)
        lane_set = co._lane_inputs(np.stack(weights), masked.r, masked.rtil)
        _, _, rounded2 = co._subgradient_run(
            lane_set, nmap, config, finals, frozen=blank1.astype(bool))
        for pr, w, cands, rnd in zip(problems, weights, candidates,
                                     rounded2):
            cands += scored(pr, w, rnd)

    picks = []
    for scale, cands, vals in zip(scales, candidates, values):
        i_star, p_hat = max(cands, key=lambda c: c[1])
        hist, best = [], -np.inf
        for _, v in cands[:config.n_iter + 1]:
            best = max(best, v)
            hist.append(best * scale)
        p_relaxed = max(max(vals), p_hat)
        gaps = [co.optimality_gap(p_relaxed, v / scale) if p_relaxed > 0
                else 0.0 for v in hist]
        picks.append((i_star, p_hat * scale, p_relaxed * scale, hist, gaps))
    return picks


def _coarse_scores(monkeypatch):
    """Round every bound value down to a multiple of 4 (the values are
    about 20 to 30 here), so that distinct blankings tie and the pick
    must take the first of them."""
    exact = co.bound_objective

    def coarse(*args):
        value = exact(*args)
        floored = np.floor(np.divide(value, 4.0)) * 4.0
        return floored if np.ndim(value) else float(floored)

    monkeypatch.setattr(co, "bound_objective", coarse)


@pytest.mark.parametrize("coarse", [False, True], ids=["exact", "ties"])
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("n_iter", [0, 5])
def test_batch_picks_equal_per_problem_selection(runs, n_iter, coarse,
                                                 monkeypatch):
    if coarse:
        _coarse_scores(monkeypatch)
    batch = random_desk_instances(range(81, 86), n_sectors=8,
                                  users_per_sector=3, n_rbs=2, k_tilde=3)
    rng = np.random.default_rng(11)
    # warm starts outside [0, 1] are clipped; the even rounds start cold
    warm_start = rng.uniform(-0.2, 1.2, (batch.rounds, batch.K, batch.N))
    warm_start[::2] = 0.0
    config = co.IcicConfig(n_iter=n_iter, runs=runs)
    results = co.run_rounds(batch, config, warm_start)
    ref = _reference_rounds(batch, config, warm_start)
    for res, (i_star, p_hat, p_relaxed, hist, gaps) in zip(results, ref):
        assert res.blanking.dtype == i_star.dtype
        assert res.blanking.tobytes() == i_star.tobytes()
        assert type(res.gap.p_hat) is float and res.gap.p_hat == p_hat
        assert type(res.gap.p_relaxed) is float \
            and res.gap.p_relaxed == p_relaxed
        assert res.gap.p_hat_history == hist
        assert res.gap.gap_history == gaps
        assert all(type(v) is float for v in res.gap.p_hat_history
                   + res.gap.gap_history)
