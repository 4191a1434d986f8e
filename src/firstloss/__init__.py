"""Optimal first-loss hedge-fund fee structures.

Solves the manager's non-concave terminal-wealth problem by concavification
under a pricing-kernel budget, evaluates both parties' expected utilities in
(semi-)closed form, traces the Pareto-optimal fee frontier, and selects the
Sharpe-maximal fee — with Monte Carlo and brute-force oracles for every
closed form.
"""

from .concavify import ConcaveEnvelope, EnvelopeError, build_envelope, envelope_eval, pointwise_argmax
from .config import ConfigError, RunConfig, load_config
from .contract import ContractError, FeeStructure, InputError, NumericalError, investor_payoff, manager_payoff
from .market import MarketError, MarketParams, partial_power_expectation, sample_z, state_price_density
from .oracle import McEstimate, brute_pointwise, mc_budget, mc_value
from .pareto import Frontier, GridScan, GridSteps, ParetoPoint, grid_scan, optimize_traditional, solve_fbpo, sweep_frontier
from .preferences import HaraParams, PreferenceError, hara_utility, manager_composite_utility
from .quadrature import QuadratureError, integrate
from .selection import (
    ConstantMixResult,
    PreferredFee,
    constant_mix_benchmark,
    constrained_preferred_fee,
    preferred_fee,
    run_pipeline,
    sensitivity_sweep,
)
from .valuation import (
    FeeBatch,
    FeeMetrics,
    evaluate_fee,
    evaluate_fees,
    investor_value,
    manager_value,
)
from .wealth import (
    OptimalWealthSolution,
    SolveError,
    moments,
    sharpe_ratio,
    solve_y_star,
    terminal_value_array,
)

__version__ = "0.1.0"

__all__ = [
    "ConcaveEnvelope",
    "ConfigError",
    "ConstantMixResult",
    "ContractError",
    "EnvelopeError",
    "FeeBatch",
    "FeeMetrics",
    "FeeStructure",
    "Frontier",
    "GridScan",
    "GridSteps",
    "HaraParams",
    "InputError",
    "MarketError",
    "MarketParams",
    "McEstimate",
    "NumericalError",
    "OptimalWealthSolution",
    "ParetoPoint",
    "PreferenceError",
    "PreferredFee",
    "QuadratureError",
    "RunConfig",
    "SolveError",
    "brute_pointwise",
    "build_envelope",
    "constant_mix_benchmark",
    "constrained_preferred_fee",
    "envelope_eval",
    "evaluate_fee",
    "evaluate_fees",
    "grid_scan",
    "hara_utility",
    "integrate",
    "investor_payoff",
    "investor_value",
    "load_config",
    "manager_composite_utility",
    "manager_payoff",
    "manager_value",
    "mc_budget",
    "mc_value",
    "moments",
    "optimize_traditional",
    "partial_power_expectation",
    "pointwise_argmax",
    "preferred_fee",
    "run_pipeline",
    "sample_z",
    "sensitivity_sweep",
    "sharpe_ratio",
    "solve_fbpo",
    "solve_y_star",
    "state_price_density",
    "sweep_frontier",
    "terminal_value_array",
]
