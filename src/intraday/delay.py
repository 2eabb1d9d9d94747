"""Production decided in advance: delay constant, rules, bounds, policy.

When the production quantity must be fixed a lead time ``h`` before
delivery, the problem splits at ``T - h``: trade optimally as before, pick
the production from the state at ``T - h``, then trade on as a pure trader.
Remarkably the auxiliary value function only shifts by a state-independent
constant, ``v_h = v_0 + K_h``, with ``K_h`` explicit (one linear term and
two logarithms).  This module provides K_h, the delayed production rule,
the truncated variance integral V_h, the delayed error bound and mean
post-decision rate, and a composite simulation policy.
"""

from __future__ import annotations

import math
from dataclasses import replace

from . import closed_form, error_bounds, simulate
from .model import (ModelParams, optimal_production_constrained,
                    optimal_production_unconstrained, reduced_cost_coefficient)


def _check_delay(h: float, params: ModelParams) -> None:
    if params.pure_trader:
        raise ValueError("delay machinery requires finite beta")
    if not 0.0 <= h <= params.horizon:
        raise ValueError("delay must lie in [0, horizon]")


def _variance_after(tau: float, h: float, params: ModelParams) -> float:
    """Spread variance V(tau) - V(h) accrued after a decision h before T."""
    if h > tau:
        raise ValueError("delay exceeds remaining time-to-go")
    return max(error_bounds.variance_spread(tau, params)
               - error_bounds.variance_spread(h, params), 0.0)


def delay_constant(h: float, params: ModelParams) -> float:
    """State-independent cost K_h of deciding production h early.

    K_0 = 0 and K_h is nonnegative and increasing in h.
    """
    _check_delay(h, params)
    s0, sd = params.sigma0, params.sigma_d
    beta, eta = params.beta, params.eta
    nu, gamma, rho = params.nu, params.gamma, params.rho
    r = reduced_cost_coefficient(params)
    linear = (eta**2 / 2.0 * (s0**2 + sd**2 * nu**2 + 2.0 * rho * s0 * sd * nu)
              / ((eta + beta) * (eta + nu) * (r + nu)) * h)
    log_np = (gamma * (s0**2 + sd**2 * eta**2 - 2.0 * rho * s0 * sd * eta)
              / (eta + nu) ** 2 * math.log1p((eta + nu) * h / (2.0 * gamma)))
    log_aux = (gamma * (s0**2 + sd**2 * r**2 - 2.0 * rho * s0 * sd * r)
               / (r + nu) ** 2 * math.log1p((r + nu) * h / (2.0 * gamma)))
    return linear + log_np - log_aux


def value_aux_delay(state, params: ModelParams, h: float) -> float:
    """Auxiliary value with delayed production: v_h = v_0 + K_h."""
    return closed_form.value_aux(state, params) + delay_constant(h, params)


def production_rule_delay(spread, y, params: ModelParams, h: float,
                          constrained: bool = True):
    """Optimal production fixed h before delivery from the state at T - h.

    ``xi_h(d, y) = (eta/(eta+beta)) m(h, d, y)`` where ``m`` is the mean
    terminal spread over the remaining h seconds: the model's production
    rules applied to ``m``.  h = 0 reduces to the no-delay rules.
    """
    _check_delay(h, params)
    m_h = error_bounds.mean_spread(h, spread, y, params)
    if constrained:
        return optimal_production_constrained(m_h, params)
    return optimal_production_unconstrained(m_h, params)


def variance_spread_delay(h: float, params: ModelParams) -> float:
    """Variance V_h(T) of the terminal spread accrued after T - h.

    Same integrand as V with the lower limit moved from 0 to h, hence
    V(T) - V(h); decreasing in h with V_T(T) = 0.
    """
    _check_delay(h, params)
    return _variance_after(params.horizon, h, params)


def error_bound_delay(state, params: ModelParams,
                      h: float) -> error_bounds.ErrorBoundReport:
    """Bound on the constrained-vs-auxiliary gap with delayed production.

    ``E_bar_h = (eta r/(2 beta)) ((r+nu)h + 2 gamma)/((eta+nu)h + 2 gamma)
    V_h psi(m / sqrt(V_h))``; h = 0 recovers the plain bound and the bound
    decreases to 0 as h grows to T.
    """
    _check_delay(h, params)
    tau = params.horizon - state.t
    v_h = _variance_after(tau, h, params)
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    prefactor = (error_bounds._bound_prefactor(params)
                 * ((r + nu) * h + 2.0 * gamma)
                 / ((params.eta + nu) * h + 2.0 * gamma))
    m = float(error_bounds.mean_spread(tau, state.spread, state.y, params))
    return error_bounds._report(m, v_h, prefactor)


def post_decision_mean_rate(state, params: ModelParams, h: float) -> float:
    """Expected trading rate on [T - h, T] after the production decision.

    ``q0_h = q0 - (eta r / (beta ((eta+nu)h + 2 gamma))) sqrt(V_h)
    psi_tilde(m / sqrt(V_h))``, never larger than the pre-decision rate
    q0; the mean inventory slope is piecewise constant, q0 then q0_h.
    """
    _check_delay(h, params)
    tau = params.horizon - state.t
    v_h = _variance_after(tau, h, params)
    r = reduced_cost_coefficient(params)
    q0 = closed_form.feedback_rate(tau, state.spread, state.y, params)
    if v_h == 0.0:
        return float(q0)
    m = float(error_bounds.mean_spread(tau, state.spread, state.y, params))
    sqrt_v = math.sqrt(v_h)
    shift = (params.eta * r
             / (params.beta * ((params.eta + params.nu) * h + 2.0 * params.gamma))
             * sqrt_v * error_bounds.psi_tilde(m / sqrt_v))
    return float(q0 - shift)


def composite_delay_policy(params: ModelParams, h: float,
                           constrained: bool = True) -> simulate.Policy:
    """Simulation policy for the delayed problem.

    Follows the no-delay feedback rate before T - h, fixes production via
    :func:`production_rule_delay` at T - h, then trades as a pure trader
    with the production folded into the inventory.  h = 0 reduces to the
    no-delay policy (production at T, no post-decision trading).
    """
    _check_delay(h, params)
    production_time = params.horizon - h
    pure = replace(params, beta=None)

    def rate_rule(s, x, y, d):
        tau = params.horizon - s
        if s < production_time:
            return closed_form.feedback_rate(tau, d - x, y, params)
        return closed_form.feedback_rate(tau, d - x, y, pure)

    def production_rule(spread, y):
        return production_rule_delay(spread, y, params, h, constrained)

    return simulate.Policy(rate_rule=rate_rule,
                           production_time=production_time,
                           production_rule=production_rule)
