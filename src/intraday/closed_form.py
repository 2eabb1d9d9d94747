"""Closed-form value functions and optimal feedback controls.

The auxiliary control problem (production constraint relaxed) is linear
quadratic, so its value function is an explicit quadratic form in the
state,

    v(t, x, y, d) = A (d-x)^2 + B y^2 + F (d-x) y + G (d-x) + H y + K,

with time-to-go dependent coefficients solving a Riccati system.  This
module evaluates those coefficients from their closed forms, assembles the
value functions (plain, jump-corrected and pure-trader variants) and the
optimal feedback trading rates.  Numerical ODE integration of the same
Riccati systems lives in :mod:`intraday.oracle` and is used only for
cross-verification, never in the production path.

All common denominators ``(r + nu) tau + 2 gamma`` are factored before
combining terms so that the near-degenerate regime ``nu = gamma = 1e-10``
stays accurate in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import JumpParams, MarketState, ModelParams, reduced_cost_coefficient


@dataclass(frozen=True)
class CoefficientSet:
    """Riccati coefficient values at a time-to-go, or elementwise arrays
    over an array of times-to-go.

    Units follow the quadratic form
    ``v = a (d-x)^2 + b y^2 + f (d-x) y + g (d-x) + h y + k``.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    f: float | np.ndarray
    g: float | np.ndarray
    h: float | np.ndarray
    k: float | np.ndarray

    def assemble(self, spread: float, y: float) -> float:
        """Quadratic form at spread d - x and price y; ValueError on overflow."""
        try:
            value = (self.a * spread**2 + self.b * y**2 + self.f * spread * y
                     + self.g * spread + self.h * y + self.k)
        except OverflowError:  # float ** raises; float * returns inf
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"the value function overflows float64 at "
                             f"spread {spread:g} MW, price {y:g} EUR/MW")
        return value


def _log_term(tau, r: float, nu: float, gamma: float):
    """log(1 + (r + nu) tau / (2 gamma)): ``math.log1p`` on a float, whose
    bits every scalar output keeps, and ``np.log1p`` on an array."""
    x = (r + nu) * tau / (2.0 * gamma)
    return math.log1p(x) if isinstance(x, float) else np.log1p(x)


def _coefficients(tau, params: ModelParams, mu: float, var_p: float,
                  var_d: float, cov: float) -> CoefficientSet:
    """Coefficients A..K at demand drift ``mu`` and noise variance rates
    ``var_p`` (price), ``var_d`` (demand) and covariance rate ``cov``."""
    if tau < 0 if isinstance(tau, float) else np.any(tau < 0):
        raise ValueError("time-to-go must be nonnegative")
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    den = (r + nu) * tau + 2.0 * gamma
    a = r * (0.5 * nu * tau + gamma) / den
    b = -0.5 * tau / den
    f = r * tau / den
    g = 2.0 * mu * tau * a
    h = -2.0 * r * mu * tau * b
    log_term = _log_term(tau, r, nu, gamma)
    k = (gamma * (var_p + var_d * r**2 - 2.0 * cov * r) / (r + nu) ** 2
         * log_term
         + (var_d * r * nu + 2.0 * cov * r - var_p) / (2.0 * (r + nu)) * tau
         + r * mu**2 * tau**2 * (0.5 * nu * tau + gamma) / den)
    return CoefficientSet(a, b, f, g, h, k)


def riccati_coefficients(tau: float | np.ndarray,
                         params: ModelParams) -> CoefficientSet:
    """Coefficients A..K of the auxiliary value function at time-to-go tau.

    ``tau`` is a float, giving float coefficients, or an array, giving
    arrays of its shape.  An array's A to H equal the scalar results node
    by node.  Its K may differ from them in the last bits, by about 1e-15
    of K's largest magnitude or less, because ``np.log1p`` and numpy's
    ``**`` need not round as ``math.log1p`` and float ``**`` do.

    The pure-trader limit is the same formula at ``beta=None``, where the
    reduced cost coefficient r(eta, beta) becomes eta.
    """
    s0, sd = params.sigma0, params.sigma_d
    return _coefficients(tau, params, params.mu, s0**2, sd**2,
                         params.rho * s0 * sd)


def value_aux(state: MarketState, params: ModelParams) -> float:
    """Auxiliary (unconstrained-production) value function at a state.

    Depends on inventory and demand only through the spread d - x; at the
    delivery time it reduces to the post-production terminal cost
    ``(1/2) r(eta, beta) (d - x)^2``.
    """
    tau = params.horizon - state.t
    coeffs = riccati_coefficients(tau, params)
    return float(coeffs.assemble(state.spread, state.y))


def feedback_rate(tau, spread, y, params: ModelParams):
    """Optimal trading rate q(tau, spread, y) in feedback form, MW/s.

    ``q = (r (mu tau + spread) - y) / ((r + nu) tau + 2 gamma)``; accepts
    scalars or arrays in (spread, y).
    """
    r = reduced_cost_coefficient(params)
    return (r * (params.mu * tau + spread) - y) / ((r + params.nu) * tau
                                                   + 2.0 * params.gamma)


def value_pure_trader(state: MarketState, params: ModelParams) -> float:
    """Value function of the pure trader (beta -> infinity, r -> eta)."""
    return value_aux(state, replace(params, beta=None))


def feedback_rate_pure_trader(tau, spread, y, params: ModelParams):
    """Pure-trader feedback rate: q with r replaced by eta."""
    return feedback_rate(tau, spread, y, replace(params, beta=None))


def forecast_equilibrium(tau, state: MarketState, params: ModelParams):
    """Forecast marginal-price / marginal-cost equilibrium of the optimum.

    At the optimum the forecast purchase price of a marginal MW equals the
    forecast marginal cost of production:

        Y + nu q tau + 2 gamma q = beta xi_s,
        xi_s = (eta/(eta+beta)) (D + mu tau - X - q tau).

    Returns
    -------
    (lhs, rhs, forecast_production)
        Both sides of the identity (equal to machine precision) and the
        forecast production quantity xi_s.
    """
    if params.pure_trader:
        raise ValueError("equilibrium identity requires finite beta")
    q = feedback_rate(tau, state.spread, state.y, params)
    lhs = state.y + params.nu * q * tau + 2.0 * params.gamma * q
    xi_s = params.eta / (params.eta + params.beta) * (
        state.d + params.mu * tau - state.x - q * tau)
    rhs = params.beta * xi_s
    return lhs, rhs, xi_s


def jump_riccati_coefficients(tau: float | np.ndarray, params: ModelParams,
                              jumps: JumpParams | None) -> CoefficientSet:
    """Coefficients with G, H, K jump-corrected (A, B, F are unchanged).

    On a quadratic v the jumps' HJB term is a demand drift lam delta, extra
    noise at the jump second moments and a price drift p = lam pi: the
    no-jump form at the shifted drift and noise, plus three terms in p.

    ``tau`` is a float or an array, as in :func:`riccati_coefficients`,
    with the same node-by-node agreement: A to H equal, K in the last bits.
    """
    if jumps is None:
        return riccati_coefficients(tau, params)
    s0, sd, lam = params.sigma0, params.sigma_d, jumps.lam
    m_dd, m_pp, m_dp = jumps.second_moments
    mu = params.mu + lam * jumps.delta
    base = _coefficients(tau, params, mu, s0**2 + lam * m_pp,
                         sd**2 + lam * m_dd,
                         params.rho * s0 * sd + lam * m_dp)
    r = reduced_cost_coefficient(params)
    p, gamma = lam * jumps.pi, params.gamma
    den = (r + params.nu) * tau + 2.0 * gamma
    tau2 = tau * tau  # float ** and numpy ** may round apart
    return replace(base, g=base.g + p * r * tau2 / (2.0 * den),
                   h=base.h - p * tau2 / (2.0 * den),
                   k=base.k + (r * mu * p / (2.0 * den) - p**2 / (48.0 * gamma)
                               - p**2 / (8.0 * den)) * tau2 * tau)


def value_aux_jump(state: MarketState, params: ModelParams,
                   jumps: JumpParams | None) -> float:
    """Auxiliary value function with the compound-Poisson jump component."""
    tau = params.horizon - state.t
    coeffs = jump_riccati_coefficients(tau, params, jumps)
    return float(coeffs.assemble(state.spread, state.y))


def feedback_rate_jump(tau, spread, y, params: ModelParams,
                       jumps: JumpParams | None):
    """Optimal feedback rate in the jump model.

    Evaluated as an additive correction to the no-jump rate; it equals the
    no-jump rate at the jump-shifted arguments
    ``(spread + lam delta tau, y + lam pi tau / 2)`` plus
    ``lam pi tau / (4 gamma)``.
    """
    if jumps is None:
        return feedback_rate(tau, spread, y, params)
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
    den = (r + nu) * tau + 2.0 * gamma
    return (feedback_rate(tau, spread, y, params)
            + lam * tau * (r * delta - 0.5 * pi) / den
            + lam * pi * tau / (4.0 * gamma))


#: Classification labels for the mean inventory trajectory (jump model).
INCREASING = "increasing throughout"
DECREASING = "decreasing throughout"
CONCAVE = "concave (increase then decrease)"
CONVEX = "convex (decrease then increase)"


def expected_rate_turning_time(state: MarketState, params: ModelParams,
                               jumps: JumpParams) -> tuple[float, str]:
    """Time at which the expected optimal trading rate crosses zero.

    The expected rate drifts linearly at ``-lam pi / (2 gamma)``, so it
    crosses zero at ``s_bar = (2 gamma / (lam pi)) q(T, d - x, y)``, which
    may fall outside [0, T].  Returns the crossing time and a
    classification of the mean inventory trajectory.
    """
    if jumps is None or jumps.pi == 0.0:
        raise ValueError("turning time requires lam * pi != 0")
    tau = params.horizon - state.t
    q0 = feedback_rate_jump(tau, state.spread, state.y, params, jumps)
    s_bar = 2.0 * params.gamma / (jumps.lam * jumps.pi) * q0
    horizon = tau
    if s_bar <= 0.0:
        label = DECREASING if jumps.pi > 0 else INCREASING
    elif s_bar >= horizon:
        label = INCREASING if jumps.pi > 0 else DECREASING
    else:
        label = CONCAVE if jumps.pi > 0 else CONVEX
    return float(s_bar), label
