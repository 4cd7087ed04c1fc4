"""SINR and rate computations: exact values, blanking lower bounds, and
the per-(sector, user, RB) rate triples the coordinator consumes.

The triples are laid out like the channel gains, with a leading sector
axis: one (K, M, N) array of all-on rates and one (K, M, N, K_tilde)
array of extra rates, behind any leading axes of a stack of problems.
`precompute_rate_triples` builds both from one interference total per
user and RB, also for the `runs=2` re-run, whose frozen sectors it
silences.

All channel gains are linear power gains. Blanking indicators are 1 when
a sector leaves the RB unused. The exact SINR sums interference over
every other sector; the bound only ever credits the removal of a single
blanked neighbor, which is what makes the downstream problem linear.

Masked sums are the reference: the "bound is exact when at most one
neighbor blanks" cases must match bit for bit, so each denominator is a
sum over its own index set (`oracle.masked_sum_triples`). The triples
take a total less the removed gains instead, and keep an AMC rate only
where it provably equals the masked sum's.
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
        # linear cut points, widened by 1e-12 for the rounding of the cuts,
        # of log10 and of an SINR (edges within +-3000 dB): an SINR up to
        # _ceils[i] is in row i or below, one above _floors[i] in i or above
        cuts = 10.0 ** (self.uppers[:-1] / 10.0)
        self._ceils = cuts * (1.0 - 1e-12)
        self._floors = np.concatenate([[-np.inf], cuts * (1.0 + 1e-12)])
        self._ceils.flags.writeable = self._floors.flags.writeable = False

    def __len__(self):
        return len(self.rates)

    def rate_db(self, sinr_db):
        """Rate (kbit/s) for SINR in dB; scalar or array."""
        idx = np.searchsorted(self.uppers, sinr_db, side="left")
        return self.rates[idx]

    def rate_linear(self, sinr_linear):
        """Rate (kbit/s) for linear SINR >= 0; scalar or array. Equals
        rate_db(10 log10 SINR); the log is taken only near a cut point."""
        s = np.asarray(sinr_linear, dtype=float).reshape(-1)
        out, near = self.certify(s, s)
        if near.any():
            db = np.full(near.sum(), -np.inf)
            np.log10(s[near], out=db, where=s[near] > 0)
            out[near] = self.rate_db(10.0 * db)
        out = out.reshape(np.shape(sinr_linear))[()]
        return float(out) if np.isscalar(sinr_linear) else out

    def certify(self, lo, hi):
        """Rates for linear SINR intervals [lo, hi] (arrays), and a mask of
        the intervals not certified to lie in one row, whose rates are
        only placeholders. NaN is never certified."""
        row = np.zeros(np.shape(hi), np.min_scalar_type(len(self._ceils)))
        for cut in self._ceils:        # faster than a binary search
            row += hi > cut
        row = row.astype(np.intp)      # faster to index with than uint8
        near = ~(self._floors[row] < lo)   # its gather freed before the next
        return self.rates[row], near


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
    return sinr_exact(gains, serving, np.zeros(len(gains)), radio)


def sinr_one_blanked(gains, serving, blanked, radio):
    """SINR when exactly one sector (`blanked`) leaves the RB unused."""
    return sinr_exact(gains, serving, np.arange(len(gains)) == blanked, radio)


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
    .nbr (K, K_tilde) int array. `silenced`, an optional (..., K, N)
    binary mask, zeroes the interference of the sectors it marks on each
    RB, as a zeroed copy of the gains would; a plain call silences none.

    Every rate equals the masked-sum one (`oracle.masked_sum_triples`)
    bit for bit. A denominator here is the user's total gain S less the
    serving and the removed neighbor's gain, within 4 (K + 2) u S of the
    masked sum (u the unit roundoff, gains non-negative). `amc.certify`
    keeps the rate of each SINR interval inside one AMC row, and the
    rest, none in typical drops, are taken from the masked-sum triples.
    """
    q = radio.p_n_watts / radio.p_c_watts
    *batch, n_sec, m, n_rb, _ = gains.shape
    nbr = np.asarray(neighbors.nbr)
    # (..., 1 + K_tilde, K, M, N): each row's serving gain, then its
    # neighbors' gains, gathered off the flat gains
    cols = np.concatenate([np.arange(n_sec)[None], nbr.T])
    at = np.arange(n_sec * m * n_rb).reshape(n_sec, m, n_rb) * n_sec
    picked = gains.reshape(*batch, -1).take(at + cols[..., None, None], -1)
    own = picked[..., :1, :, :, :].copy()
    on = np.ones((*batch, n_sec, n_rb)) if silenced is None \
        else 1.0 - silenced                                   # (..., K, N)
    # one matrix-vector product per RB over a (K M, K) view, into C order
    total = np.empty(own.shape)
    np.matmul(np.moveaxis(gains, -2, -4).reshape(*batch, n_rb, -1, n_sec),
              np.swapaxes(on, -1, -2)[..., None],
              out=np.moveaxis(total, -1, -3).reshape(*batch, n_rb, -1, 1))
    picked *= on[..., cols, None, :]
    picked[..., 1:, :, :, :] += picked[..., :1, :, :, :]
    # the SINR over p_c lies in own / (den -+ tol), and den >= q
    den = np.subtract(total + q, picked, out=picked)
    tol = total * (4 * (n_sec + 2) * np.finfo(float).eps / 2)
    lo = np.add(den, tol)
    np.divide(own, lo, out=lo)
    den -= tol
    np.maximum(den, q, out=den)
    rate, near = amc.certify(lo, np.divide(own, den, out=den))
    del picked, den, lo                 # freed before the outputs are built
    # C-ordered outputs of their own, so the stacked rates can be freed
    r = rate[..., 0, :, :, :].copy()
    rtil = np.empty((*r.shape, nbr.shape[1]))
    np.subtract(np.moveaxis(rate, -4, -1)[..., 1:], r[..., None], out=rtil)
    if near.any():      # none in typical drops
        from .oracle import masked_sum_triples
        ref = masked_sum_triples(gains, radio, neighbors, amc, silenced)
        near_r = near[..., 0, :, :, :]
        near_t = np.moveaxis(near, -4, -1)[..., 1:] | near_r[..., None]
        r[near_r], rtil[near_t] = ref.r[near_r], ref.rtil[near_t]
    return RateTriples(r=r, rtil=rtil)


def rate_bound(r, rtil, blanked_mask):
    """Bounded rate r + max over blanked neighbors of the extra rate.

    r: scalar or (M,) / (M, N); rtil: matching array with a trailing
    neighbor axis; blanked_mask: (K_tilde,) booleans.
    """
    return r + np.max(np.asarray(rtil) * np.asarray(blanked_mask), axis=-1)
