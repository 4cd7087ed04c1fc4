"""Layout geometry, neighbor relations, channel draws, association."""

import numpy as np
import pytest

from icicsim import network as nw
from icicsim.linkadapt import RadioConfig
from icicsim.simulate import parse_config

RADIO = RadioConfig(p_c_watts=0.8, p_n_watts=3.6e-12)


def test_19_site_layout():
    dims = nw.NetworkDims.uniform(19, 2, 4)
    lay = nw.generate_layout(dims, 500.0)
    assert lay.site_xy.shape == (19, 2)
    assert lay.sector_site.shape == (57,)
    nmap = nw.neighbor_map(lay, 6)
    assert nmap.nbr.shape == (57, 6)            # six first-tier interferers


def test_single_site_degenerate():
    dims = nw.NetworkDims.uniform(1, 2, 4)
    lay = nw.generate_layout(dims, 500.0)
    nmap = nw.neighbor_map(lay, 2)
    assert sorted(nmap.nbr[0].tolist()) == [1, 2]
    assert sorted(nmap.nbr[1].tolist()) == [0, 2]
    assert sorted(nmap.nbr[2].tolist()) == [0, 1]


def test_2x2_grid_symmetry_exhaustive():
    dims = nw.NetworkDims.uniform(4, 2, 4)
    lay = nw.generate_layout(dims, 500.0)
    nmap = nw.neighbor_map(lay, 6)
    for k in range(12):
        assert len(set(nmap.nbr[k].tolist())) == 6
        assert k not in nmap.nbr[k]
        for j in nmap.nbr[k]:
            assert k in nmap.nbr[j]


@pytest.mark.parametrize("sites", [1, 4, 7, 19])
def test_nearest_scores_equal_per_pair_distances(sites):
    lay = nw.generate_layout(nw.NetworkDims.uniform(sites, 1, 1), 500.0)
    k = 3 * sites
    bore = np.radians(lay.boresight_deg)
    ref = lay.sector_xy() + (lay.isd / 3.0) * np.column_stack(
        [np.cos(bore), np.sin(bore)])
    expected = np.full((k, k), -np.inf)
    for a in range(k):
        for b in range(a + 1, k):
            expected[a, b] = expected[b, a] = \
                -lay.torus_distance(ref[a], ref[b])
    assert np.array_equal(nw._coupling_scores(lay), expected)


def test_dims_reject_non_tri_sector():
    with pytest.raises(ValueError):
        nw.NetworkDims(K=4, sites=1, M=(1, 1, 1, 1), N=2)
    with pytest.raises(ValueError):
        nw.generate_layout(nw.NetworkDims.uniform(2, 1, 1), 500.0)


def test_layout_deterministic():
    dims = nw.NetworkDims.uniform(7, 1, 2)
    a = nw.generate_layout(dims, 250.0)
    b = nw.generate_layout(dims, 250.0)
    assert np.array_equal(a.site_xy, b.site_xy)


def test_unsupported_site_count_rejected():
    with pytest.raises(ValueError):
        nw.generate_layout(nw.NetworkDims.uniform(5, 1, 1), 500.0)


def test_cluster_shape_beyond_twelve():
    assert nw._cluster_shape(144) == (12, 0)
    assert nw._cluster_shape(157) == (12, 1)
    assert parse_config("scenario.sites = 144\n").scenario.sites == 144


def test_every_cluster_shape_below_400_lays_out_all_its_sites():
    counts = []
    for sites in range(1, 400):
        try:
            nw._cluster_shape(sites)
        except ValueError:
            continue
        counts.append(sites)
    assert len(counts) == 121 and 48 in counts
    for sites in counts:
        lay = nw.generate_layout(nw.NetworkDims.uniform(sites, 1, 1), 500.0)
        assert lay.site_xy.shape == (sites, 2)
        assert len(np.unique(lay.site_xy.round(6), axis=0)) == sites


def test_antenna_pattern_values():
    assert nw.antenna_gain(0.0, 12.0) == 0.0
    assert nw.antenna_gain(70.0, 12.0) == -12.0
    assert nw.antenna_gain(180.0, 12.0) == -20.0
    assert nw.antenna_gain(0.0, 12.0 + 15.0) == -12.0
    assert nw.antenna_gain(70.0, 12.0 + 15.0) == -20.0


def test_ring_map_shapes():
    nmap = nw.ring_neighbor_map(12, 2)
    assert np.array_equal(nmap.nbr[0], np.array([1, 11]))
    nmap3 = nw.ring_neighbor_map(8, 3)
    assert nmap3.k_tilde == 3
    with pytest.raises(ValueError):
        nw.ring_neighbor_map(7, 3)


@pytest.mark.parametrize("sites,k_tilde", [(1, 1), (3, 3)])
def test_neighbor_map_odd_degree_sum_raises_own_error(sites, k_tilde):
    # K * k_tilde odd: no k_tilde-regular relation exists
    lay = nw.generate_layout(nw.NetworkDims.uniform(sites, 1, 1), 500.0)
    with pytest.raises(ValueError, match="could not complete a symmetric"):
        nw.neighbor_map(lay, k_tilde)


def test_neighbor_map_validation():
    with pytest.raises(ValueError):
        nw.NeighborMap(nbr=np.array([[0], [0]]))       # self loop
    with pytest.raises(ValueError):
        nw.NeighborMap(nbr=np.array([[1], [2], [0]]))  # asymmetric
    # an index outside [0, K) is a bad row, before any symmetry check
    with pytest.raises(ValueError, match="sector 2: bad neighbor row"):
        nw.NeighborMap(nbr=[[1], [0], [5]])
    with pytest.raises(ValueError, match="sector 0: bad neighbor row"):
        nw.NeighborMap(nbr=[[1, -1], [0, 2], [1, -1], [0, 2]])


def test_k_tilde_0_is_refused():
    # every builder of a neighbor map stops in NeighborMap itself
    lay = nw.generate_layout(nw.NetworkDims.uniform(1, 1, 1), 500.0)
    for build in (lambda: nw.NeighborMap(nbr=np.zeros((3, 0))),
                  lambda: nw.ring_neighbor_map(6, 0),
                  lambda: nw.neighbor_map(lay, 0)):
        with pytest.raises(ValueError, match="k_tilde = 0"):
            build()


def _desk():
    dims = nw.NetworkDims.uniform(4, 2, 3)
    lay = nw.generate_layout(dims, 500.0)
    cfg = nw.ChannelConfig()
    return dims, lay, cfg


def test_channels_deterministic():
    dims, lay, cfg = _desk()
    a = nw.draw_channels(lay, dims, cfg, RADIO, seed=5)
    b = nw.draw_channels(lay, dims, cfg, RADIO, seed=5)
    for ga, gb in zip(a.gains, b.gains):
        assert np.array_equal(ga, gb)
    c = nw.draw_channels(lay, dims, cfg, RADIO, seed=6)
    assert not all(np.array_equal(x, y) for x, y in zip(a.gains, c.gains))


def test_gains_positive_and_everyone_assigned():
    dims, lay, cfg = _desk()
    t = nw.draw_channels(lay, dims, cfg, RADIO, seed=5)
    for k, g in enumerate(t.gains):
        assert g.shape == (dims.M[k], dims.N, dims.K)
        assert np.all(g > 0) and np.all(np.isfinite(g))


def test_association_invariant_serving_is_best():
    dims, lay, cfg = _desk()
    t = nw.draw_channels(lay, dims, cfg, RADIO, seed=8)
    for k in range(dims.K):
        serve = nw.associate_users(t.large_scale[k], RADIO)
        assert np.all(serve == k)


def test_association_matches_bruteforce_sinr_scan():
    rng = np.random.default_rng(9)
    gains = 10 ** rng.uniform(-12, -6, (40, 12))
    serve = nw.associate_users(gains, RADIO)
    for u in range(40):
        sinrs = []
        for k in range(12):
            interf = gains[u].sum() - gains[u, k]
            sinrs.append(gains[u, k]
                         / (interf + RADIO.p_n_watts / RADIO.p_c_watts))
        assert serve[u] == int(np.argmax(sinrs))


def test_association_single_sector_and_dominant():
    assert nw.associate_users(np.array([[1e-9]]), RADIO)[0] == 0
    g = np.full((1, 5), 1e-9)
    g[0, 3] = 1e-8
    assert nw.associate_users(g, RADIO)[0] == 3


def test_drawn_users_keep_min_distance_from_every_site():
    dims, lay, cfg = _desk()
    for seed in range(6):
        t = nw.draw_channels(lay, dims, cfg, RADIO, seed=seed)
        d = lay.torus_distance(t.user_xy[:, :, None], lay.site_xy)
        assert d.min() >= cfg.min_bs_dist_m


def test_symmetric_users_get_equal_gains():
    dims = nw.NetworkDims.uniform(1, 1, 1)
    lay = nw.generate_layout(dims, 500.0)
    cfg = nw.ChannelConfig()
    bore = np.radians(lay.boresight_deg[0])
    offset = 120.0 * np.array([np.cos(bore), np.sin(bore)])
    xy = np.array([offset, offset, [300.0, 10.0]])
    gain_db = nw._large_scale_gain_db(lay, cfg, xy, np.zeros((3, 1)))
    assert np.array_equal(gain_db[0], gain_db[1])


def test_pathloss_matches_direct_formula():
    dims = nw.NetworkDims.uniform(1, 1, 1)
    lay = nw.generate_layout(dims, 500.0)
    cfg = nw.ChannelConfig()
    bore = np.radians(lay.boresight_deg[0])
    direction = np.array([np.cos(bore), np.sin(bore)])
    d1, d2 = 100.0, 200.0
    xy = np.array([d1 * direction, d2 * direction])
    gain_db = nw._large_scale_gain_db(lay, cfg, xy, np.zeros((2, 1)))

    def expected_db(d):
        dh = cfg.bs_height_m - cfg.ut_height_m
        dist = np.hypot(d, dh)
        phi = np.degrees(np.arctan2(dh, d))
        pattern = nw.antenna_gain(0.0, phi)
        return (-(cfg.pathloss_a_db + cfg.pathloss_b_db * np.log10(dist))
                + pattern + cfg.boresight_gain_dbi - cfg.feeder_loss_db)

    assert gain_db[0, 0] == pytest.approx(expected_db(d1), abs=1e-9)
    assert gain_db[1, 0] == pytest.approx(expected_db(d2), abs=1e-9)


def test_refade_keeps_large_scale():
    dims, lay, cfg = _desk()
    t = nw.draw_channels(lay, dims, cfg, RADIO, seed=5)
    t2 = nw.refade(t.large_scale[None], dims, [np.random.default_rng(0)])
    fading = np.random.default_rng(0).standard_exponential(t2.shape)
    for a, b, f in zip(t.large_scale, t2[0], fading[0]):
        assert np.array_equal(b, a[:, None, :] * f)
    assert not np.array_equal(t.gains[0], t2[0, 0])
