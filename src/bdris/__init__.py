"""
Beyond-diagonal reconfigurable surfaces for a LEO downlink with two NOMA
users: feasible-set tooling, channel generation, closed-form power
splitting, sum-rate optimization by a direction ascent, and Monte-Carlo sweeps.
"""

from .channel import (ChannelRealization, GeometryParams, LinkBudgetParams,
                      SPEED_OF_LIGHT, db_to_linear, draw_realization,
                      effective_channel, path_gain, rician_sample, slant_range)
from .config import (ConfigError, SimConfig, apply_overrides, echo_config,
                     load_config)
from .experiments import (SweepResult, SweepSpec, emit_csv, emit_plot_script,
                          run_element_sweep, run_power_sweep)
from .noma import (NomaAllocation, RateResult, achievable_rates,
                   min_power_split_for_far_rate, order_users)
from .optimizer import (InfeasibleAllocationError, ProblemSpec, SCHEMES, Solution,
                        bcd_solve, exact_oracle, solve_phase_subproblem,
                        solve_power_subproblem)
from .surfaces import (ARCHITECTURES, DimensionError, FeasibilityReport, MODES,
                       RisSpec, hardware_complexity, project_feasible,
                       random_feasible, validate)

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "MODES", "SCHEMES", "SPEED_OF_LIGHT",
    "ChannelRealization", "ConfigError", "DimensionError",
    "FeasibilityReport", "GeometryParams", "InfeasibleAllocationError",
    "LinkBudgetParams", "NomaAllocation", "ProblemSpec",
    "RateResult", "RisSpec", "SimConfig", "Solution", "SweepResult",
    "SweepSpec", "achievable_rates", "apply_overrides", "bcd_solve",
    "db_to_linear", "draw_realization", "echo_config",
    "effective_channel", "emit_csv", "emit_plot_script", "exact_oracle",
    "hardware_complexity", "load_config", "min_power_split_for_far_rate",
    "order_users", "path_gain", "project_feasible", "random_feasible",
    "rician_sample", "run_element_sweep", "run_power_sweep", "slant_range",
    "solve_phase_subproblem", "solve_power_subproblem", "validate",
    "__version__",
]
