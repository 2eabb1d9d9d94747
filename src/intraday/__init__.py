"""Closed-form optimal intraday electricity trading with verification tools.

Public surface: parameter records and production rules (:mod:`.model`),
explicit value functions and feedback rates (:mod:`.closed_form`),
approximation-error bounds (:mod:`.error_bounds`), delayed production
(:mod:`.delay`), Euler Monte Carlo simulation (:mod:`.simulate`), and an
independent ODE / quadrature / Monte Carlo verification oracle
(:mod:`.oracle`).
"""

from .closed_form import (
    CoefficientSet,
    expected_rate_turning_time,
    feedback_rate,
    feedback_rate_jump,
    feedback_rate_pure_trader,
    forecast_equilibrium,
    jump_riccati_coefficients,
    riccati_coefficients,
    value_aux,
    value_aux_jump,
    value_pure_trader,
)
from .delay import (
    composite_delay_policy,
    delay_constant,
    error_bound_delay,
    post_decision_mean_rate,
    production_rule_delay,
    value_aux_delay,
    variance_spread_delay,
)
from .error_bounds import (
    ErrorBoundReport,
    SpreadMoments,
    asymptotic_rate_constants,
    error_bound,
    error_bound_jump,
    log_error_bound,
    mean_spread,
    mean_spread_jump,
    psi,
    psi_tilde,
    variance_spread,
)
from .model import (
    HOUR,
    DAY,
    JumpParams,
    MarketState,
    ModelParams,
    cost_after_production,
    load_param_file,
    optimal_production_constrained,
    optimal_production_unconstrained,
    reduced_cost_coefficient,
    terminal_cost,
)
from .simulate import (
    CostEstimate,
    DriftEstimate,
    PathSet,
    Policy,
    estimate_cost,
    export_csv,
    martingale_diagnostics,
    optimal_policy,
    sample_paths,
    zero_policy,
)

__version__ = "0.1.0"
