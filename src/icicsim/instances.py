"""Small synthetic coordination problems for benchmarks and oracles.

These bypass the geometric channel model: gains are drawn directly so a
dominant-interference regime can be dialed in (each interferer well above
the aggregate of all weaker ones), which is where the single-blanked-
neighbor rate bound is tight and exhaustive search stays affordable.
Each instance is a `coordinator.CoordinationProblem`, so the coordinator
and the oracles score the same weights, rates and AMC table.
"""

import numpy as np

from .coordinator import CoordinationProblem
from .linkadapt import RadioConfig, default_amc_table, precompute_rate_triples
from .network import ring_neighbor_map

SNR_DB = 20.0      # serving gain 1 over noise, in dB


def random_desk_instance(n_sectors=12, users_per_sector=2, n_rbs=2,
                         k_tilde=2, seed=0, edge_fraction=0.5):
    """Dominant-interference random instance on a ring neighbor map.

    Serving gains are normalized to 1; each user's neighbor interferers
    form a decaying ladder (every rung 10..30x above the next), with
    `edge_fraction` of users getting a near-serving-strength dominant
    interferer. Non-neighbor sectors contribute a tiny positive floor.
    `users_per_sector` is one count for every sector. Returns a
    CoordinationProblem with the default AMC table.
    """
    if np.ndim(users_per_sector) != 0:
        raise ValueError(f"users_per_sector must be one count, the same "
                         f"for every sector; got {list(users_per_sector)}")
    rng = np.random.default_rng(seed)
    nmap = ring_neighbor_map(n_sectors, k_tilde)
    kt = nmap.k_tilde
    radio = RadioConfig(p_c_watts=1.0, p_n_watts=10 ** (-SNR_DB / 10.0))
    users = int(users_per_sector)

    gains = np.full((n_sectors, users, n_rbs, n_sectors), 1e-6)
    weights = np.empty((n_sectors, users))
    for k, g in enumerate(gains):
        g *= rng.uniform(0.5, 1.5, size=g.shape)
        for m in range(users):
            for n in range(n_rbs):
                if rng.random() < edge_fraction:
                    top_db = rng.uniform(1.0, 6.0)      # cell edge
                else:
                    top_db = rng.uniform(12.0, 22.0)    # cell center
                ladder_db = top_db + np.concatenate(
                    [[0.0], np.cumsum(rng.uniform(10.0, 30.0, size=kt - 1))])
                order = rng.permutation(kt)
                g[m, n, nmap.nbr[k][order]] = 10 ** (-ladder_db / 10.0)
        g[:, :, k] = 1.0
        weights[k] = rng.uniform(0.5, 1.5, size=users)
    amc = default_amc_table()
    return CoordinationProblem(
        neighbors=nmap, weights=weights, gains=gains, radio=radio, amc=amc,
        triples=precompute_rate_triples(gains, radio, nmap, amc))
