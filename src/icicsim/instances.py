"""Small synthetic coordination problems for benchmarks and oracles.

These bypass the geometric channel model: gains are drawn directly so a
dominant-interference regime can be dialed in (each interferer well above
the aggregate of all weaker ones), which is where the single-blanked-
neighbor rate bound is tight and exhaustive search stays affordable.
A batch of instances is one `coordinator.CoordinationProblem`, so the
coordinator and the oracles score the same weights, rates and AMC table.
"""

import numpy as np

from .coordinator import CoordinationProblem
from .linkadapt import RadioConfig, default_amc_table, precompute_rate_triples
from .network import ring_neighbor_map

SNR_DB = 20.0      # serving gain 1 over noise, in dB


def random_desk_instances(seeds, n_sectors=12, users_per_sector=2, n_rbs=2,
                          k_tilde=2, edge_fraction=0.5):
    """Dominant-interference random instances on a ring neighbor map, one
    per seed, all of one shape.

    Serving gains are normalized to 1; each user's neighbor interferers
    form a decaying ladder (every rung 10..30 dB, so 10x..1000x, above
    the next), with `edge_fraction` of users getting a near-serving-
    strength dominant interferer. Non-neighbor sectors contribute a tiny
    positive floor. `users_per_sector` is one count for every sector.
    Returns the batch, round p from seeds[p], with the default AMC table.

    A Python loop only draws the random numbers, in one fixed order per
    seed: per sector the floor gains, then per (user, RB) cell the edge
    test, the top rung, the K_tilde - 1 rung gaps and the rung order,
    then the sector's weights. So an instance depends on its seed alone,
    not on the batch. The arithmetic on the draws and the rate triples
    run once over (P, K, ...) arrays.
    """
    if np.ndim(users_per_sector) != 0:
        raise ValueError(f"users_per_sector must be one count, the same "
                         f"for every sector; got {list(users_per_sector)}")
    nmap = ring_neighbor_map(n_sectors, k_tilde)
    kt = nmap.k_tilde
    radio = RadioConfig(p_c_watts=1.0, p_n_watts=10 ** (-SNR_DB / 10.0))
    users = int(users_per_sector)
    n_prob, cells = len(seeds), users * n_rbs

    gains = np.full((n_prob, n_sectors, users, n_rbs, n_sectors), 1e-6)
    weights = np.empty((n_prob, n_sectors, users))
    # per cell: the edge test, the top rung and the K_tilde - 1 rung gaps
    # as the unit doubles `uniform` would scale, and the rung order
    u = np.empty((n_prob, n_sectors, cells, kt + 1))
    order = np.empty((n_prob, n_sectors, cells, kt), dtype=np.intp)
    for p, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for k in range(n_sectors):
            gains[p, k] *= rng.uniform(0.5, 1.5, size=gains.shape[2:])
            for c in range(cells):
                rng.random(out=u[p, k, c])
                order[p, k, c] = rng.permutation(kt)
            weights[p, k] = rng.uniform(0.5, 1.5, size=users)

    # uniform(lo, hi) is lo + (hi - lo) * u: cell edge 1..6 dB, else the
    # cell center 12..22 dB
    edge = u[..., 0] < edge_fraction
    top_db = np.where(edge, 1.0 + 5.0 * u[..., 1], 12.0 + 10.0 * u[..., 1])
    ladder_db = np.zeros(order.shape)
    np.cumsum(10.0 + 20.0 * u[..., 2:], axis=-1, out=ladder_db[..., 1:])
    ladder_db += top_db[..., None]
    cols = nmap.nbr[np.arange(n_sectors)[:, None, None], order]
    np.put_along_axis(gains.reshape(n_prob, n_sectors, cells, n_sectors),
                      cols, 10 ** (-ladder_db / 10.0), axis=-1)
    own = np.arange(n_sectors)
    gains[:, own, :, :, own] = 1.0

    amc = default_amc_table()
    triples = precompute_rate_triples(gains, radio, nmap, amc)
    return CoordinationProblem(neighbors=nmap, weights=weights, gains=gains,
                               radio=radio, amc=amc, triples=triples)


def random_desk_instance(n_sectors=12, users_per_sector=2, n_rbs=2,
                         k_tilde=2, seed=0, edge_fraction=0.5):
    """One `random_desk_instances` instance: round 0 of a one-seed batch."""
    return random_desk_instances(
        [seed], n_sectors=n_sectors, users_per_sector=users_per_sector,
        n_rbs=n_rbs, k_tilde=k_tilde, edge_fraction=edge_fraction)[0]
