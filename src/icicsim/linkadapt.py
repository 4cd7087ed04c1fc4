"""SINR and rate computations: exact values, blanking lower bounds, and
the per-(sector, user, RB) rate triples the coordinator consumes.

The triples are laid out like the channel gains, with a leading sector
axis: one (K, M, N) array of all-on rates and one (K, M, N, K_tilde)
array of extra rates, behind any leading axes of a stack of problems.
`precompute_rate_triples` writes every user's SINRs into these buffers
sector by sector and then makes one AMC lookup for each of the two,
also for the `runs=2` re-run, whose frozen sectors it silences.

All channel gains are linear power gains. Blanking indicators are 1 when
a sector leaves the RB unused. The exact SINR sums interference over
every other sector; the bound only ever credits the removal of a single
blanked neighbor, which is what makes the downstream problem linear.

Masked sums are deliberate in the reference paths: the "bound is exact
when at most one neighbor blanks" cases must match bit for bit, so both
sides compute their denominator as a sum over the same index set instead
of subtracting terms from a precomputed total.
"""

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadioConfig:
    """Per-RB transmit power, per-RB noise power (watts), total bandwidth."""

    p_c_watts: float
    p_n_watts: float
    bandwidth_hz: float = 10e6

    def __post_init__(self):
        if self.p_c_watts <= 0 or self.p_n_watts <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("powers and bandwidth must be positive")


class AmcTable:
    """Step function mapping SINR (dB) to rate (kbit/s).

    Rows are upper-inclusive intervals (low, high]. The table must tile
    (-inf, +inf) contiguously, rates must be nondecreasing, and the lowest
    interval must map to rate 0 so that zero SINR yields zero rate.
    """

    def __init__(self, rows):
        rows = sorted(rows, key=lambda r: r[1])
        lows = np.array([r[0] for r in rows])
        self.uppers = np.array([r[1] for r in rows])
        self.rates = np.array([r[2] for r in rows])
        if not np.isneginf(lows[0]) or not np.isposinf(self.uppers[-1]):
            raise ValueError("AMC table must cover (-inf, +inf)")
        if not np.allclose(lows[1:], self.uppers[:-1], rtol=0, atol=0):
            raise ValueError("AMC intervals must be contiguous and disjoint")
        if np.any(np.diff(self.rates) < 0):
            raise ValueError("AMC rates must be nondecreasing in SINR")
        if self.rates[0] != 0.0:
            raise ValueError("lowest AMC interval must map to rate 0")
        self.lows = lows

    def __len__(self):
        return len(self.rates)

    def rate_db(self, sinr_db):
        """Rate (kbit/s) for SINR in dB; scalar or array."""
        idx = np.searchsorted(self.uppers, sinr_db, side="left")
        return self.rates[idx]

    def rate_linear(self, sinr_linear):
        """Rate (kbit/s) for linear SINR >= 0; scalar or array."""
        s = np.asarray(sinr_linear, dtype=float)
        db = np.full(s.shape, -np.inf)
        np.log10(s, out=db, where=s > 0)
        # in place, and freed before the lookup allocates its output: the
        # same operations with one full-size temporary fewer
        db *= 10.0
        idx = np.searchsorted(self.uppers, db, side="left")
        del db
        out = self.rates[idx]
        return float(out) if np.isscalar(sinr_linear) else out


# 14-row default lookup. Two published rows were malformed (a gap at
# 9.9..9.5 and a mangled "14.8." bound); canonicalized to keep the
# contiguity invariant while preserving every printed rate.
DEFAULT_AMC_ROWS = [
    (-np.inf, -6.1, 0.0),
    (-6.1, -4.1, 35.3),
    (-4.1, -2.0, 56.4),
    (-2.0, -0.2, 92.4),
    (-0.2, 1.9, 131.4),
    (1.9, 3.8, 177.4),
    (3.8, 5.8, 223.1),
    (5.8, 8.5, 291.6),
    (8.5, 9.9, 388.4),
    (9.9, 12.5, 418.3),
    (12.5, 14.8, 544.3),
    (14.8, 16.1, 648.1),
    (16.1, 17.8, 721.7),
    (17.8, np.inf, 807.4),
]


@functools.lru_cache(maxsize=None)
def default_amc_table():
    """The one shared table of DEFAULT_AMC_ROWS; its arrays are read-only.
    AmcTable(DEFAULT_AMC_ROWS) builds a private copy."""
    table = AmcTable(DEFAULT_AMC_ROWS)
    for arr in (table.lows, table.uppers, table.rates):
        arr.flags.writeable = False
    return table


def sinr_exact(gains, serving, blanking, radio):
    """Exact SINR for one user on one RB.

    gains: (K,) linear gains from every sector, serving included.
    serving: index of the serving sector.
    blanking: (K,) binary indicators (own entry ignored).
    """
    gains = np.asarray(gains, dtype=float)
    blanking = np.asarray(blanking)
    idx = [j for j in range(gains.shape[0]) if j != serving and not blanking[j]]
    interference = radio.p_c_watts * float(np.sum(gains[idx])) if idx else 0.0
    return radio.p_c_watts * gains[serving] / (interference + radio.p_n_watts)


def sinr_all_on(gains, serving, radio):
    """SINR when every sector transmits (no blanking anywhere)."""
    gains = np.asarray(gains, dtype=float)
    idx = [j for j in range(gains.shape[0]) if j != serving]
    interference = radio.p_c_watts * float(np.sum(gains[idx])) if idx else 0.0
    return radio.p_c_watts * gains[serving] / (interference + radio.p_n_watts)


def sinr_one_blanked(gains, serving, blanked, radio):
    """SINR when exactly one sector (`blanked`) leaves the RB unused."""
    gains = np.asarray(gains, dtype=float)
    idx = [j for j in range(gains.shape[0]) if j != serving and j != blanked]
    interference = radio.p_c_watts * float(np.sum(gains[idx])) if idx else 0.0
    return radio.p_c_watts * gains[serving] / (interference + radio.p_n_watts)


def sinr_bound(gains, serving, blanking, neighbors, radio):
    """Lower bound on the exact SINR: only the strongest blanked neighbor
    is credited as removed. Exact when at most one neighbor blanks."""
    base = sinr_all_on(gains, serving, radio)
    best = base
    for j in neighbors:
        if blanking[j]:
            cand = sinr_one_blanked(gains, serving, j, radio)
            if cand > best:
                best = cand
    return best


@dataclass
class RateTriples:
    """Cached rates: with everyone on, and the extra rate per blanked neighbor.

    r     (K, M, N)          rate if all sectors use the RB
    rtil  (K, M, N, K_tilde) additional rate if only that neighbor blanks

    A stack of problems puts its leading axes in front of both.
    """

    r: np.ndarray
    rtil: np.ndarray


def precompute_rate_triples(gains, radio, neighbors, amc, silenced=None):
    """Build RateTriples from the (..., K, M, N, K) gain tensor.

    Column j of the last axis holds the gain from sector j, so column k
    of gains[..., k, :, :, :] is the serving gain. Leading axes, if any,
    hold a stack of problems with the same neighbor sets, and the
    triples get the same leading axes. neighbors: NeighborMap-like with
    .nbr (K, K_tilde) int array.

    Each denominator sums the same gains in the same order as a boolean
    mask over the columns would: per sector, one gather of every column
    but k and one (K_tilde, K - 2) gather of every column but k and the
    neighbor. `silenced`, an optional (..., K, N) binary mask, zeroes
    the gathered gains of the sectors it marks on each RB, where a zeroed
    copy of the gains would; serving gains are never gathered. The SINRs
    go into (..., K, M, ...) buffers, so the AMC lookup runs once for r
    and once for rtil over all users.
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


def rate_bound(r, rtil, blanked_mask):
    """Bounded rate r + max over blanked neighbors of the extra rate.

    r: scalar or (M,) / (M, N); rtil: matching array with a trailing
    neighbor axis; blanked_mask: (K_tilde,) booleans.
    """
    return r + np.max(np.asarray(rtil) * np.asarray(blanked_mask), axis=-1)
