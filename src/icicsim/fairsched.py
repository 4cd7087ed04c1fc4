"""Per-sector fairness state and the local scheduling rule.

Average rates run through an exponentially-weighted low-pass filter with
window t_c; weights follow the alpha-fair family, w = Rbar^-alpha
(alpha = 0 gives equal weights, 1 proportional fairness). The local rule
assigns each non-blanked RB to the user maximizing weight * rate, ties to
the lowest user index so regression runs are reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

from .schema import check_fields, rule

RATE_FLOOR = 1e-3     # kbit/s, the floor of every tracked average rate


@dataclass
class WeightPolicy:
    # the cap keeps RATE_FLOOR raised to -alpha finite; alpha = 20
    # already approximates max-min fairness
    alpha: float = rule(1.0, ge=0, le=20)

    def __post_init__(self):
        check_fields(self)


@dataclass
class AverageRateTracker:
    """EWMA of scheduled rates, floored so alpha > 0 weights stay finite."""

    num_users: int
    t_c: float = rule(100.0, ge=1)
    rbar: np.ndarray = field(default=None)

    def __post_init__(self):
        check_fields(self)
        if self.rbar is None:
            self.rbar = np.full(self.num_users, RATE_FLOOR)

    def update(self, scheduled_rate):
        """Fold one sub-frame of scheduled rates (kbit/s) into the average."""
        r = np.asarray(scheduled_rate, dtype=float)
        if np.any(r < 0):
            raise ValueError("scheduled rates must be nonnegative")
        a = 1.0 / self.t_c
        self.rbar = np.maximum((1.0 - a) * self.rbar + a * r, RATE_FLOOR)
        return self


def compute_weights(policy, tracker):
    """Marginal-utility weights from the current average rates."""
    return tracker.rbar ** (-policy.alpha)


def local_schedule(weights, rates, blanking):
    """Assign each non-blanked RB to argmax_m weights[m] * rates[m, n].

    weights: (..., M), rates: (..., M, N), blanking: (..., N) with 1 = RB
    unused. Leading axes batch sectors of equal M, each scheduled on its
    own exactly as in an unbatched call.
    Returns a binary (..., M, N) assignment with column sums 1 - blanking.
    """
    weights = np.asarray(weights, dtype=float)
    rates = np.asarray(rates, dtype=float)
    blanking = np.asarray(blanking)
    scores = weights[..., :, None] * rates
    winners = np.argmax(scores, axis=-2)     # first maximum = lowest index
    users = np.arange(rates.shape[-2])[:, None]
    assign = (users == winners[..., None, :]) & (blanking[..., None, :] == 0)
    return assign.astype(np.int8)
