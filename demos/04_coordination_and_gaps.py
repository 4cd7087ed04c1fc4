#!/usr/bin/env python3
"""The full coordinated round on a desk-scale instance, checked by exhaustion.

Runs the projected-subgradient master on a 12-sector instance, prints
the per-iteration gap estimate, and compares the final schedule against
exhaustive search over all 4096 blanking patterns per RB.
"""

import numpy as np

from icicsim import coordinator as co
from icicsim import oracle
from icicsim.instances import random_desk_instance

prob = random_desk_instance(n_sectors=12, users_per_sector=2, n_rbs=2,
                            k_tilde=2, seed=42)

res = co.run_coordination(prob, co.IcicConfig(n_iter=5))
print("estimated gap by iteration (vs the run's relaxed estimate):")
for p, g in enumerate(res.gap.gap_history):
    print(f"  after {p} iteration(s): {g:6.2f}%")
print(f"binary fraction at the final iterate: "
      f"{res.gap.binary_fraction:.3f} "
      f"(guarantee {res.gap.binary_guarantee_percent / 100:.3f})")

exh_bound = oracle.exhaustive_bound(prob)
exh_exact = oracle.exhaustive_original(prob)
true_gap = 100 * (exh_bound.value - res.gap.p_hat) / exh_bound.value
print(f"\nbound objective: achieved {res.gap.p_hat:.1f} of "
      f"{exh_bound.value:.1f} exhaustive optimum -> true gap "
      f"{true_gap:.2f}%")
print(f"realized exact objective {res.realized_objective:.1f} "
      f"(exhaustive exact optimum {exh_exact.value:.1f})")
print(f"blanked (sector, RB) pairs: "
      f"{[(int(a), int(b)) for a, b in np.argwhere(res.blanking == 1)]}")

res2 = co.run_coordination(prob, co.IcicConfig(n_iter=5, runs=2))
gap2 = 100 * (exh_bound.value - res2.gap.p_hat) / exh_bound.value
print(f"\nsecond run on the interference-cleared channel: "
      f"gap {true_gap:.2f}% -> {gap2:.2f}%")

ov = res.overhead
side = "the distributed side wins" if ov.ratio > 1 else \
    "a centralized collector would be cheaper here"
print(f"\nmessage exchange: {ov.simulated_values} values exchanged "
      f"({ov.simulated_bits} bits at the configured quantization); "
      f"centralized/distributed rate ratio {ov.ratio:.2f} ({side})")
