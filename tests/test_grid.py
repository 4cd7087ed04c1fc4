"""The sub-frame step on the (K, M) user grid against its per-sector form.

Every sector has the same user count M. `finalize_schedule`,
`local_schedule`, `refade` and the large-scale gains work on all users at
once; the references below are the one-sector-at-a-time versions they
replaced, and the grid versions must equal them bit for bit, with one
user per sector and with several.
"""

from dataclasses import replace

import numpy as np
import pytest

from icicsim import coordinator as co
from icicsim import network as nw
from icicsim.fairsched import local_schedule
from icicsim.instances import random_desk_instance
from icicsim.linkadapt import RadioConfig, default_amc_table

RADIO = RadioConfig(p_c_watts=0.8, p_n_watts=3.6e-12)


def _local_schedule_one(weights, rates, blanking):
    m, n = rates.shape
    assign = np.zeros((m, n), dtype=np.int8)
    winners = np.argmax(weights[:, None] * rates, axis=0)
    cols = np.nonzero(np.asarray(blanking) == 0)[0]
    assign[winners[cols], cols] = 1
    return assign


def _finalize_per_sector(gains, weights, radio, amc, blanking):
    blanking = np.asarray(blanking)
    on = 1.0 - blanking.T.astype(float)
    assignments, rates_out = [], []
    objective = 0.0
    for k, g in enumerate(gains):
        interf = np.einsum("mnk,nk->mn", g, on) \
            - g[:, :, k] * on[None, :, k]
        sinr = radio.p_c_watts * g[:, :, k] \
            / (radio.p_c_watts * interf + radio.p_n_watts)
        rates = amc.rate_linear(sinr)
        assign = _local_schedule_one(weights[k], rates, blanking[k])
        assignments.append(assign)
        rates_out.append(rates)
        objective += float(np.sum(weights[k][:, None] * assign * rates))
    return assignments, rates_out, objective


def _cases():
    for name, users, n_rbs, seed in (("three users", 3, 5, 81),
                                     ("one user", 1, 4, 82),
                                     ("one RB", 3, 1, 83)):
        prob = random_desk_instance(n_sectors=6, users_per_sector=users,
                                    n_rbs=n_rbs, k_tilde=2, seed=seed)
        yield name, prob.gains, prob.weights, prob.radio
    dims = nw.NetworkDims.uniform(7, 3, 6)
    lay = nw.generate_layout(dims, 500.0)
    chan = nw.draw_channels(lay, dims, nw.ChannelConfig(), RADIO, seed=84)
    rng = np.random.default_rng(84)
    # equal weights make many weight * rate ties among AMC rates
    weights = rng.choice([0.5, 1.0], size=(dims.K, dims.M[0]))
    yield "drawn channel", chan.gains, weights, RADIO


@pytest.mark.parametrize("noise_rise_db", [0.0, 2.5])
def test_finalize_grid_equals_per_sector_loop(noise_rise_db):
    # a noise rise moves every SINR, and so the AMC levels both paths pick
    amc = default_amc_table()
    rng = np.random.default_rng(5)
    for name, gains, weights, radio in _cases():
        radio = replace(radio, p_n_watts=radio.p_n_watts
                        * 10.0 ** (noise_rise_db / 10.0))
        k_sec, n_rb = len(gains), gains[0].shape[1]
        for p_blank in (0.0, 0.3, 0.7):
            blank = (rng.random((k_sec, n_rb)) < p_blank).astype(np.int8)
            ref = _finalize_per_sector(gains, weights, radio, amc, blank)
            got = co.finalize_schedule(gains, weights, radio, amc, blank)
            assert got[0].dtype == np.int8
            assert got[0].shape == got[1].shape == gains.shape[:3]
            for k in range(k_sec):
                assert np.array_equal(got[0][k], ref[0][k]), name
                assert np.array_equal(got[1][k], ref[1][k]), name
            assert got[2] == ref[2], name


def test_local_schedule_batch_equals_per_sector_calls():
    rng = np.random.default_rng(11)
    for m, n in ((1, 4), (3, 5), (4, 1)):
        weights = rng.choice([1.0, 2.0], size=(7, m))
        # few distinct rates, so scores tie often
        rates = rng.choice([0.0, 35.3, 70.6], size=(7, m, n))
        blank = (rng.random((7, n)) < 0.4).astype(np.int8)
        batch = local_schedule(weights, rates, blank)
        assert batch.dtype == np.int8 and batch.shape == (7, m, n)
        for g in range(7):
            one = local_schedule(weights[g], rates[g], blank[g])
            assert np.array_equal(batch[g], one)
            assert np.array_equal(one, _local_schedule_one(
                weights[g], rates[g], blank[g]))


def test_local_schedule_ties_go_to_lowest_user_in_batch():
    rates = np.ones((2, 3, 2))
    assign = local_schedule(np.ones((2, 3)), rates, np.array([[0, 1], [0, 0]]))
    assert assign[0].tolist() == [[1, 0], [0, 0], [0, 0]]
    assert assign[1].tolist() == [[1, 1], [0, 0], [0, 0]]


def _channel():
    dims = nw.NetworkDims.uniform(4, 3, 5)
    lay = nw.generate_layout(dims, 500.0)
    return dims, lay, nw.draw_channels(lay, dims, nw.ChannelConfig(),
                                       RADIO, seed=9)


FADE_SEEDS = (3, 5)


def _group():
    """Two drops on one layout: their stacked sub-frame-0 gains and
    (D, K, M, K) large-scale gains, as a drop group holds them."""
    dims = nw.NetworkDims.uniform(4, 3, 5)
    lay = nw.generate_layout(dims, 500.0)
    chans = [nw.draw_channels(lay, dims, nw.ChannelConfig(), RADIO, seed=s)
             for s in (9, 10)]
    return (dims, np.stack([c.gains for c in chans]),
            np.stack([c.large_scale for c in chans]))


def _rngs():
    return [np.random.default_rng(s) for s in FADE_SEEDS]


def test_refade_equals_per_sector_draws():
    dims, _, large = _group()
    kept = large.copy()
    got = nw.refade(large, dims, _rngs())
    assert got.shape == large.shape[:3] + (dims.N, dims.K)
    for d, seed in enumerate(FADE_SEEDS):
        rng = np.random.default_rng(seed)
        for k, ls in enumerate(large[d]):
            ref = ls[:, None, :] * rng.exponential(size=(dims.M[k], dims.N,
                                                         dims.K))
            assert np.array_equal(got[d, k], ref)
    assert np.array_equal(large, kept)


def test_refade_leaves_generator_as_exponential_draws():
    # the unit draw advances each generator exactly as exponential() does
    dims, _, large = _group()
    rngs = _rngs()
    nw.refade(large, dims, rngs)
    for rng, seed in zip(rngs, FADE_SEEDS):
        ref = np.random.default_rng(seed)
        ref.exponential(size=(sum(dims.M), dims.N, dims.K))
        assert rng.random() == ref.random()


def test_refade_returns_fresh_memory():
    dims, gains, large = _group()
    rngs = _rngs()
    first = nw.refade(large, dims, rngs)
    kept = first.copy()
    second = nw.refade(large, dims, rngs)
    for old in (gains, first, large):
        assert not np.shares_memory(second, old)
    assert np.array_equal(first, kept)


def test_channel_views_share_the_stacked_arrays():
    dims, _, chan = _channel()
    for k, m in enumerate(dims.M):
        assert chan.gains[k].shape == (m, dims.N, dims.K)
        assert np.shares_memory(chan.gains[k], chan.gains)
        assert chan.user_xy[k].shape == (m, 2)


def _large_scale_gain_db_per_sector(layout, cfg, user_xy, shadow_db):
    k_sec = layout.sector_site.shape[0]
    out = np.empty((user_xy.shape[0], k_sec))
    sec_xy = layout.sector_xy()
    dh = cfg.bs_height_m - cfg.ut_height_m
    for j in range(k_sec):
        delta = user_xy - sec_xy[j]
        cands = delta[:, None, :] + layout.images
        best = np.argmin(np.sum(cands ** 2, axis=-1), axis=-1)
        delta = np.take_along_axis(cands, best[:, None, None],
                                   axis=-2).squeeze(-2)
        dist_h = np.maximum(np.linalg.norm(delta, axis=-1), 1.0)
        dist = np.hypot(dist_h, dh)
        theta = np.degrees(np.arctan2(delta[:, 1], delta[:, 0])) \
            - layout.boresight_deg[j]
        phi = np.degrees(np.arctan2(dh, dist_h))
        pattern = nw.antenna_gain(theta, phi)
        pl = cfg.pathloss_a_db + cfg.pathloss_b_db * np.log10(dist)
        out[:, j] = (-pl + pattern + cfg.boresight_gain_dbi
                     - cfg.feeder_loss_db
                     + shadow_db[:, layout.sector_site[j]])
    return out


def test_large_scale_gain_equals_per_sector_loop():
    dims = nw.NetworkDims.uniform(7, 1, 1)
    lay = nw.generate_layout(dims, 500.0)
    cfg = nw.ChannelConfig()
    rng = np.random.default_rng(7)
    t1, t2 = lay.images[1], lay.images[2]     # the user drop area
    st = rng.random((300, 2))
    xy = st[:, :1] * t1 + st[:, 1:] * t2
    xy[:7] = lay.site_xy                   # on a site: the 1 m floor
    shadow = rng.normal(scale=8.0, size=(300, dims.sites))
    got = nw._large_scale_gain_db(lay, cfg, xy, shadow)
    assert np.array_equal(
        got, _large_scale_gain_db_per_sector(lay, cfg, xy, shadow))
    for i in (0, 11, 299):                 # one candidate user at a time
        one = nw._large_scale_gain_db(lay, cfg, xy[i:i + 1], shadow[i:i + 1])
        assert np.array_equal(one, got[i:i + 1])
