"""Rate lookup, exact SINR, the single-blanked-neighbor bound, triples."""

import numpy as np
import pytest

from icicsim import linkadapt as la

RADIO = la.RadioConfig(p_c_watts=1.0, p_n_watts=0.01)

# the full 14-row lookup: (lower, upper, kbit/s]
EXPECTED_ROWS = [
    (-np.inf, -6.1, 0.0), (-6.1, -4.1, 35.3), (-4.1, -2.0, 56.4),
    (-2.0, -0.2, 92.4), (-0.2, 1.9, 131.4), (1.9, 3.8, 177.4),
    (3.8, 5.8, 223.1), (5.8, 8.5, 291.6), (8.5, 9.9, 388.4),
    (9.9, 12.5, 418.3), (12.5, 14.8, 544.3), (14.8, 16.1, 648.1),
    (16.1, 17.8, 721.7), (17.8, np.inf, 807.4),
]


def test_default_table_has_all_rows():
    amc = la.default_amc_table()
    assert len(amc) == 14
    for (lo, hi, rate), alo, ahi, arate in zip(
            EXPECTED_ROWS, amc.lows, amc.uppers, amc.rates):
        assert (lo, hi, rate) == (alo, ahi, arate)


def test_default_table_is_shared_and_read_only():
    amc = la.default_amc_table()
    assert la.default_amc_table() is amc
    for arr in (amc.lows, amc.uppers, amc.rates, amc._ceils, amc._floors):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    fresh = la.AmcTable(la.DEFAULT_AMC_ROWS)
    assert fresh is not amc
    fresh.rates[1] = 36.0              # a private table stays writable
    assert amc.rates[1] == 35.3


def test_rate_spot_values():
    amc = la.default_amc_table()
    assert amc.rate_db(0.0) == 131.4
    assert amc.rate_db(-10.0) == 0.0
    assert amc.rate_db(20.0) == 807.4


def test_interval_boundaries_upper_inclusive():
    amc = la.default_amc_table()
    assert amc.rate_db(-6.1) == 0.0
    assert amc.rate_db(-6.1 + 1e-9) == 35.3
    assert amc.rate_db(17.8) == 721.7
    assert amc.rate_db(17.8 + 1e-9) == 807.4


def test_rate_is_monotone_and_zero_at_zero():
    amc = la.default_amc_table()
    assert amc.rate_linear(0.0) == 0.0
    rng = np.random.default_rng(0)
    s = np.sort(10 ** rng.uniform(-3, 3, 500))
    rates = amc.rate_linear(s)
    assert np.all(np.diff(rates) >= 0)


def _rate_by_log10(amc, s):
    """The lookup rate_linear certifies against: 10 log10 of every SINR,
    then a binary search over the upper edges."""
    db = np.full(s.shape, -np.inf)
    np.log10(s, out=db, where=s > 0)
    db *= 10.0
    return amc.rates[np.searchsorted(amc.uppers, db, side="left")]


def test_rate_linear_equals_log10_lookup():
    amc = la.default_amc_table()
    # +-10,000 ulps around every cut point: where the log decides, and
    # on both sides of the 1e-12 margin that hands an SINR to the log
    cuts = 10.0 ** (amc.uppers[:-1] / 10.0)
    ulps = (cuts.view(np.int64)[:, None] + np.arange(-10_000, 10_001)).ravel()
    s = np.concatenate([ulps.view(float), [0.0, 1e-300, 1e300]])
    got = amc.rate_linear(s)
    assert got.tobytes() == _rate_by_log10(amc, s).tobytes()
    for x in (0.0, 1e-300, 1e300, *cuts):
        assert amc.rate_linear(x) == float(_rate_by_log10(amc, np.array(x)))
    rng = np.random.default_rng(12)
    for _ in range(4):                 # 2M log-uniform samples in all
        s = 10 ** rng.uniform(-4.0, 4.0, (500, 1000))
        got = amc.rate_linear(s)
        assert got.shape == s.shape
        assert got.tobytes() == _rate_by_log10(amc, s).tobytes()


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        la.AmcTable([(-np.inf, 0.0, 0.0), (1.0, np.inf, 10.0)])   # gap
    with pytest.raises(ValueError):
        la.AmcTable([(-np.inf, 0.0, 5.0), (0.0, np.inf, 10.0)])   # f(0) != 0
    with pytest.raises(ValueError):
        la.AmcTable([(-np.inf, 0.0, 0.0), (0.0, 1.0, 20.0),
                     (1.0, np.inf, 10.0)])                        # not monotone
    with pytest.raises(ValueError):
        la.AmcTable([(0.0, 1.0, 0.0), (1.0, np.inf, 10.0)])       # no -inf


def test_sinr_exact_all_blanked_is_noise_limited():
    gains = np.array([0.5, 0.1, 0.2])
    blank = np.array([0, 1, 1])
    got = la.sinr_exact(gains, 0, blank, RADIO)
    assert got == RADIO.p_c_watts * 0.5 / RADIO.p_n_watts


def test_sinr_exact_single_sector():
    got = la.sinr_exact(np.array([0.3]), 0, np.array([0]), RADIO)
    assert got == RADIO.p_c_watts * 0.3 / RADIO.p_n_watts


def test_sinr_exact_matches_termwise_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gains = 10 ** rng.uniform(-4, 0, 4)
        blank = np.zeros(4)
        blank[1:] = rng.integers(0, 2, 3)
        got = la.sinr_exact(gains, 0, blank, RADIO)
        denom = RADIO.p_n_watts
        for j in (1, 2, 3):
            denom += RADIO.p_c_watts * (1 - blank[j]) * gains[j]
        ref = RADIO.p_c_watts * gains[0] / denom
        assert got == pytest.approx(ref, rel=1e-12)


def test_bound_exact_when_at_most_one_neighbor_blanks():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        gains = 10 ** rng.uniform(-4, 0, k)
        neighbors = list(range(1, k))
        blank = np.zeros(k)
        if k > 1 and rng.random() < 0.7:
            blank[int(rng.integers(1, k))] = 1
        exact = la.sinr_exact(gains, 0, blank, RADIO)
        bound = la.sinr_bound(gains, 0, blank, neighbors, RADIO)
        assert bound == exact        # bit-exact by masked summation


def test_bound_counts_only_dominant_blanked():
    gains = np.array([1.0, 0.3, 0.05])
    blank = np.array([0, 1, 1])
    bound = la.sinr_bound(gains, 0, blank, [1, 2], RADIO)
    assert bound == la.sinr_one_blanked(gains, 0, 1, RADIO)
    assert bound < la.sinr_exact(gains, 0, blank, RADIO)


def test_bound_never_exceeds_exact():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        k = int(rng.integers(2, 8))
        gains = 10 ** rng.uniform(-5, 0, k)
        blank = np.zeros(k)
        blank[1:] = rng.integers(0, 2, k - 1)
        exact = la.sinr_exact(gains, 0, blank, RADIO)
        bound = la.sinr_bound(gains, 0, blank, range(1, k), RADIO)
        assert bound <= exact * (1 + 1e-12)


class _Map:
    def __init__(self, nbr):
        self.nbr = np.asarray(nbr)


def _rotated(gain, users, n_rb, nbr):
    """Gains and neighbor map of len(gain) sectors, each with `users`
    users on `n_rb` RBs. Sector k sees `gain` and the neighbor offsets
    `nbr` rotated by k, so sector 0 sees them as given, column 0 first."""
    k_sec = len(gain)
    gains = np.stack([np.broadcast_to(np.roll(gain, k), (users, n_rb, k_sec))
                      for k in range(k_sec)])
    return gains, _Map((np.asarray(nbr) + np.arange(k_sec)[:, None]) % k_sec)


def test_triples_nonnegative_and_zero_gain_neighbor():
    gains, nmap = _rotated([1.0, 1e-15, 0.2, 0.3], 2, 2, [1, 2])
    triples = la.precompute_rate_triples(
        gains, RADIO, nmap, la.default_amc_table())
    assert np.all(triples.r[0] >= 0)
    assert np.all(triples.rtil[0] >= 0)
    # removing the ~zero-gain interferer moves no AMC threshold
    assert np.all(triples.rtil[0][:, :, 0] == 0.0)


def test_triples_noise_limited_user_gains_nothing():
    quiet = la.RadioConfig(p_c_watts=1.0, p_n_watts=100.0)
    gains, nmap = _rotated([1.0, 1e-6, 1e-6], 1, 1, [1, 2])
    triples = la.precompute_rate_triples(
        gains, quiet, nmap, la.default_amc_table())
    assert np.all(triples.rtil[0] == 0.0)


def test_triples_adjacent_amc_rows_give_exact_step():
    # gains tuned so all-on SINR sits in (-0.2, 1.9] (131.4 kbit/s) and
    # removing the dominant interferer lands one row up, in (1.9, 3.8]
    amc = la.default_amc_table()
    p_n = 0.01
    radio = la.RadioConfig(p_c_watts=1.0, p_n_watts=p_n)
    g2 = 10 ** (-3.0 / 10.0) - p_n            # removed SINR = 3 dB
    g1 = 10 ** (-1.0 / 10.0) - g2 - p_n       # all-on SINR = 1 dB
    gains, nmap = _rotated([1.0, g1, g2], 1, 1, [1, 2])
    triples = la.precompute_rate_triples(gains, radio, nmap, amc)
    assert amc.rate_linear(1.0 / (g1 + g2 + p_n)) == 131.4
    assert amc.rate_linear(1.0 / (g2 + p_n)) == 177.4
    assert triples.rtil[0][0, 0, 0] == 177.4 - 131.4


def test_rate_bound_cases():
    r = np.array(100.0)
    rtil = np.array([50.0, 80.0])
    assert la.rate_bound(r, rtil, np.array([0, 0])) == 100.0
    assert la.rate_bound(r, rtil, np.array([1, 0])) == 150.0
    assert la.rate_bound(r, rtil, np.array([1, 1])) == 180.0


def test_rate_bound_all_blanked_below_exact():
    rng = np.random.default_rng(5)
    amc = la.default_amc_table()
    for _ in range(200):
        k = int(rng.integers(3, 6))
        gains = 10 ** rng.uniform(-3, 0, k)
        blank = np.zeros(k)
        blank[1:] = 1
        neighbors = list(range(1, k))
        base = la.sinr_all_on(gains, 0, RADIO)
        r = amc.rate_linear(base)
        rtil = np.array([amc.rate_linear(
            la.sinr_one_blanked(gains, 0, j, RADIO)) - r for j in neighbors])
        bounded = la.rate_bound(r, rtil, blank[1:].astype(bool))
        exact_rate = amc.rate_linear(la.sinr_exact(gains, 0, blank, RADIO))
        assert bounded <= exact_rate + 1e-9


def test_rate_bound_single_blank_equals_exact_rate():
    rng = np.random.default_rng(6)
    amc = la.default_amc_table()
    for _ in range(300):
        k = int(rng.integers(2, 6))
        gains = 10 ** rng.uniform(-3, 0, k)
        blank = np.zeros(k)
        j_blank = int(rng.integers(1, k))
        blank[j_blank] = 1
        neighbors = list(range(1, k))
        base = la.sinr_all_on(gains, 0, RADIO)
        r = amc.rate_linear(base)
        rtil = np.array([amc.rate_linear(
            la.sinr_one_blanked(gains, 0, j, RADIO)) - r for j in neighbors])
        bounded = la.rate_bound(r, rtil, blank[1:].astype(bool))
        exact_rate = amc.rate_linear(la.sinr_exact(gains, 0, blank, RADIO))
        assert bounded == pytest.approx(exact_rate, abs=1e-9)


def test_bound_factor_identity_sampled():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        k = int(rng.integers(3, 7))
        gains = 10 ** rng.uniform(-4, 0, k)
        blank = np.zeros(k)
        blank[1:] = rng.integers(0, 2, k - 1)
        exact = la.sinr_exact(gains, 0, blank, RADIO)
        bound = la.sinr_bound(gains, 0, blank, range(1, k), RADIO)
        blanked = [j for j in range(1, k) if blank[j]]
        if not blanked:
            assert bound == exact
            continue
        dominant = max(blanked, key=lambda j: gains[j])
        others = [j for j in blanked if j != dominant]
        removed = RADIO.p_c_watts * float(np.sum(gains[others])) \
            if others else 0.0
        live = [j for j in range(1, k) if not blank[j]]
        denom = RADIO.p_c_watts * float(np.sum(gains[live])) \
            + RADIO.p_n_watts if live else RADIO.p_n_watts
        assert exact == pytest.approx(bound * (1 + removed / denom), rel=1e-9)
