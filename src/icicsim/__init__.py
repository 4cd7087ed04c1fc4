"""Distributed multi-cell blanking coordination with estimated gaps.

Layered as: network geometry/channels -> link adaptation (rates and
bounds) -> per-sector fairness -> flow-based coordination -> oracles ->
simulation harness. Import the submodules directly; the package root
re-exports only the most common entry points.
"""

from .coordinator import (CoordinationProblem, IcicConfig, IcicResult,
                          optimality_gap, overhead_report,
                          binary_share_guarantee, run_coordination)
from .linkadapt import AmcTable, RadioConfig, default_amc_table
from .network import NetworkDims, generate_layout, neighbor_map
from .simulate import SimConfig, emit_reports, load_config, run_simulation

__all__ = [
    "AmcTable", "CoordinationProblem", "IcicConfig", "IcicResult",
    "NetworkDims", "RadioConfig", "SimConfig", "default_amc_table",
    "emit_reports", "generate_layout", "load_config", "neighbor_map",
    "optimality_gap", "overhead_report", "binary_share_guarantee",
    "run_coordination", "run_simulation",
]
