"""`random_desk_instances` against the per-cell loop it replaced.

The batch builder draws each seed's random numbers in the loop's order
and does the arithmetic on them over whole arrays; the instances must
equal the loop's bit for bit, and an instance must not depend on the
batch it was built in.
"""

import itertools

import numpy as np
import pytest

from icicsim.instances import (SNR_DB, random_desk_instance,
                               random_desk_instances)
from icicsim.linkadapt import (RadioConfig, default_amc_table,
                               precompute_rate_triples)
from icicsim.network import ring_neighbor_map


def _instance_per_cell(seed, n_sectors, users, n_rbs, k_tilde,
                       edge_fraction):
    """The builder as a loop over (sector, user, RB): the reference."""
    rng = np.random.default_rng(seed)
    nmap = ring_neighbor_map(n_sectors, k_tilde)
    kt = nmap.k_tilde
    gains = np.full((n_sectors, users, n_rbs, n_sectors), 1e-6)
    weights = np.empty((n_sectors, users))
    for k, g in enumerate(gains):
        g *= rng.uniform(0.5, 1.5, size=g.shape)
        for m in range(users):
            for n in range(n_rbs):
                if rng.random() < edge_fraction:
                    top_db = rng.uniform(1.0, 6.0)
                else:
                    top_db = rng.uniform(12.0, 22.0)
                ladder_db = top_db + np.concatenate(
                    [[0.0], np.cumsum(rng.uniform(10.0, 30.0, size=kt - 1))])
                order = rng.permutation(kt)
                g[m, n, nmap.nbr[k][order]] = 10 ** (-ladder_db / 10.0)
        g[:, :, k] = 1.0
        weights[k] = rng.uniform(0.5, 1.5, size=users)
    radio = RadioConfig(p_c_watts=1.0, p_n_watts=10 ** (-SNR_DB / 10.0))
    triples = precompute_rate_triples(gains, radio, nmap,
                                      default_amc_table())
    return gains, weights, triples


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# K_tilde >= 3 makes permutation reject some draws; n_sectors is the
# smallest even ring with K_tilde distinct neighbors, and at least 6
@pytest.mark.parametrize("k_tilde", [2, 3, 4, 6])
@pytest.mark.parametrize("edge_fraction", [0.2, 0.5])
def test_batch_equals_per_cell_loop(k_tilde, edge_fraction):
    n_sectors = max(6, k_tilde + 2)
    for users, n_rbs in itertools.product((1, 2, 3), (1, 2, 3)):
        seeds = [1000 * k_tilde + 10 * users + n_rbs + s for s in range(3)]
        batch = random_desk_instances(
            seeds, n_sectors=n_sectors, users_per_sector=users,
            n_rbs=n_rbs, k_tilde=k_tilde, edge_fraction=edge_fraction)
        assert batch.rounds == len(seeds)
        for p, seed in enumerate(seeds):
            got = batch[p]
            gains, weights, triples = _instance_per_cell(
                seed, n_sectors, users, n_rbs, k_tilde, edge_fraction)
            _assert_bit_equal(got.gains, gains)
            _assert_bit_equal(got.weights, weights)
            _assert_bit_equal(got.triples.r, triples.r)
            _assert_bit_equal(got.triples.rtil, triples.rtil)


def test_mixed_seed_batch_equals_single_seed_calls():
    seeds = [7, 0, 395950, 7, 12]
    batch = random_desk_instances(seeds, n_sectors=8, users_per_sector=2,
                                  n_rbs=3, k_tilde=4, edge_fraction=0.3)
    assert batch.rounds == len(seeds)
    for p, seed in enumerate(seeds):
        got = batch[p]
        one = random_desk_instance(n_sectors=8, users_per_sector=2, n_rbs=3,
                                   k_tilde=4, seed=seed, edge_fraction=0.3)
        for a, b in ((got.gains, one.gains), (got.weights, one.weights),
                     (got.triples.r, one.triples.r),
                     (got.triples.rtil, one.triples.rtil)):
            _assert_bit_equal(a, b)
    # a round is views of the batch; a single round has no rounds, and
    # neither is walked by iteration
    assert np.shares_memory(batch[2].gains, batch.gains)
    assert one.rounds is None
    for bad in (lambda: one[0], lambda: iter(batch), lambda: iter(one)):
        with pytest.raises(TypeError):
            bad()
