"""Approximation-error calculus: psi, spread moments, bounds, rates.

The optimal strategy of the auxiliary (unconstrained-production) problem
is only suboptimal for the true constrained problem on the event that the
terminal spread ``D_T - X_T`` is negative.  Under the auxiliary optimum
the terminal spread is Gaussian with mean ``m`` and variance ``V``, which
yields the explicit error bound

    E_bar = (eta r / (2 beta)) V psi(m / sqrt(V)),
    psi(z) = (z^2 + 1) Phi(-z) - z phi(z),

and the shortfall probability ``Phi(-m / sqrt(V))``.  This module provides
numerically stable evaluation of psi (including far tails and log-domain
values for asymptotic-rate checks), the closed-form variance integral via
partial fractions, the jump-model extensions, and the limiting exponential
rate constants.

Phi(-z) is ``scipy.special.ndtr(-z)`` and phi(z) is
``exp(-z**2 / 2) / sqrt(2 pi)`` on a numpy value: the bodies of
``scipy.stats.norm.sf`` and ``.pdf`` without their per-call dispatch, so
every value keeps the bits those would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.stats  # noqa: F401  kept: bench/run.py reports its import time
from scipy.special import ndtr

from .model import (JumpParams, ModelParams, check_memory, check_seed,
                    reduced_cost_coefficient)
from .simulate import _STREAM_BOUND, _stream

#: Switch point between direct evaluation of psi and its tail expansion.
#: Direct evaluation loses relative accuracy to cancellation as z grows:
#: against 50-digit mpmath its relative error is 7e-11 on [0, 10], 4.5e-9
#: on [10, 20] and 2.6e-8 on [20, 26].  Past 26 the 6-term asymptotic
#: series is better (1e-11).
_TAIL_Z = 26.0

# psi(z) / phi(z) ~ (2/z^3) (1 - 6/z^2 + 45/z^4 - 420/z^6 + 4725/z^8 - ...)
_PSI_TAIL = (1.0, -6.0, 45.0, -420.0, 4725.0, -62370.0)
# psi_tilde(z) / phi(z) ~ (1/z^2) (1 - 3/z^2 + 15/z^4 - 105/z^6 + ...)
_PSI_TILDE_TAIL = (1.0, -3.0, 15.0, -105.0, 945.0, -10395.0)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Monte Carlo draws of the negative-jump sum in :func:`error_bound_jump`.
MC_SAMPLES = 100_000


@dataclass(frozen=True)
class SpreadMoments:
    """Gaussian law of the terminal spread D_T - X_T under the optimum."""

    mean: float       # MW
    variance: float   # MW^2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError(f"the terminal spread overflows float64: mean "
                             f"{self.mean:g} MW, variance {self.variance:g}")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class ErrorBoundReport:
    """Error bound, shortfall probability and the moments behind them."""

    bound: float                  # EUR
    shortfall_probability: float
    moments: SpreadMoments
    mc_stderr: float = 0.0        # EUR; zero for closed-form cases

    def __post_init__(self) -> None:
        if not math.isfinite(self.bound):
            raise ValueError(f"the error bound overflows float64 at mean "
                             f"terminal spread {self.moments.mean:g} MW")


def _tail_series(z, coefficients):
    u = 1.0 / np.asarray(z, dtype=float) ** 2
    total = np.zeros_like(u)
    for c in reversed(coefficients):
        total = total * u + c
    return total


def _norm_sf(z):
    """Phi(-z), the standard normal upper tail."""
    return ndtr(-z)


def _norm_pdf(z):
    """phi(z), the standard normal density.  Squared as a numpy array: a
    Python or numpy scalar's ``**2`` goes through ``pow`` and misses the
    array square by an ulp for about 1 value in 1000."""
    z = np.asarray(z)
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def _split(z, direct, tail):
    """``direct`` below ``_TAIL_Z`` and ``tail`` from it on, each evaluated
    only on its own side; the tail's z**3 overflows to inf quietly.  A
    scalar keeps numpy's scalar arithmetic, an ulp off the array loops;
    Phi(-z) is ``ndtr(-z)`` and phi is evaluated as a numpy array on
    either side."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):  # divide: log(0)
        if z.ndim == 0:
            return float(direct(z) if z < _TAIL_Z else tail(z[()]))
        low = z < _TAIL_Z
        out = np.empty_like(z)
        out[low], out[~low] = direct(z[low]), tail(z[~low])
    return out


def psi(z):
    """psi(z) = (z^2 + 1) Phi(-z) - z phi(z); nonnegative and decreasing."""
    return _split(
        z, lambda z: (z**2 + 1.0) * _norm_sf(z) - z * _norm_pdf(z),
        lambda z: _norm_pdf(z) * 2.0 / z**3 * _tail_series(z, _PSI_TAIL))


def log_psi(z):
    """Natural log of psi(z), valid far beyond the underflow point of psi."""
    return _split(
        z, lambda z: np.log(np.maximum(
            (z**2 + 1.0) * _norm_sf(z) - z * _norm_pdf(z), 0.0)),
        lambda z: (-0.5 * z**2 - _LOG_SQRT_2PI
                   + np.log(2.0 / z**3 * _tail_series(z, _PSI_TAIL))))


def psi_tilde(z):
    """psi_tilde(z) = phi(z) - z Phi(-z); nonnegative for all z."""
    return _split(
        z, lambda z: _norm_pdf(z) - z * _norm_sf(z),
        lambda z: _norm_pdf(z) / z**2 * _tail_series(z, _PSI_TILDE_TAIL))


def mean_spread(tau, spread, y, params: ModelParams):
    """Mean of the terminal spread started from (spread, y) with tau to go.

    ``m = ((nu tau + 2 gamma)(mu tau + spread) + y tau) / ((r + nu) tau + 2 gamma)``,
    equivalently ``spread + mu tau - tau q(tau, spread, y)``.
    """
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    return ((nu * tau + 2.0 * gamma) * (params.mu * tau + spread) + y * tau) / (
        (r + nu) * tau + 2.0 * gamma)


def variance_spread(tau, params: ModelParams) -> float:
    """Variance V(tau) of the terminal spread, integrated in closed form.

    The integrand is a quadratic polynomial in s over the square of the
    linear factor ``(r + nu) s + 2 gamma``; partial fractions give a
    linear term, a logarithm, and an inverse term from the double root at
    ``s = -2 gamma / (r + nu)``.
    """
    if not tau >= 0:  # also refuses nan
        raise ValueError("time-to-go must be nonnegative")
    r = reduced_cost_coefficient(params)
    s0, sd = params.sigma0, params.sigma_d
    nu, gamma, rho = params.nu, params.gamma, params.rho
    a = r + nu
    c = 2.0 * gamma
    # numerator polynomial p2 s^2 + p1 s + p0
    p2 = s0**2 + sd**2 * nu**2 + 2.0 * rho * s0 * sd * nu
    p1 = 4.0 * gamma * sd * (nu * sd + rho * s0)
    p0 = 4.0 * gamma**2 * sd**2
    u = a * tau + c
    linear = p2 / a**2 * tau
    log_part = (p1 / a - 2.0 * p2 * c / a**2) / a * math.log1p(a * tau / c)
    residue = p2 * c**2 / a**2 - p1 * c / a + p0  # numerator at s = -c/a
    inverse = residue / a * (1.0 / c - 1.0 / u)
    return max(linear + log_part + inverse, 0.0)


def _bound_prefactor(params: ModelParams) -> float:
    if params.pure_trader:
        raise ValueError("error bound is identically 0 for a pure trader")
    r = reduced_cost_coefficient(params)
    return params.eta * r / (2.0 * params.beta)


def _report(m: float, v: float, prefactor: float) -> ErrorBoundReport:
    moments = SpreadMoments(mean=m, variance=v)
    if v == 0.0:
        prob = 1.0 if m < 0 else (0.5 if m == 0 else 0.0)
        return ErrorBoundReport(0.0, prob, moments)
    z = m / math.sqrt(v)
    return ErrorBoundReport(float(prefactor * v * psi(z)), float(_norm_sf(z)),
                            moments)


def error_bound(tau, spread, y, params: ModelParams) -> ErrorBoundReport:
    """Bound on the cost of the production constraint, and shortfall prob.

    ``E_bar = (eta r / (2 beta)) V(tau) psi(m / sqrt(V))`` with the
    shortfall probability ``Phi(-m / sqrt(V))``.
    """
    prefactor = _bound_prefactor(params)
    m = mean_spread(tau, spread, y, params)
    v = variance_spread(tau, params)
    return _report(float(m), v, prefactor)


def log_error_bound(tau, spread, y, params: ModelParams) -> float:
    """Natural log of the error bound; usable when the bound underflows."""
    prefactor = _bound_prefactor(params)
    m = mean_spread(tau, spread, y, params)
    v = variance_spread(tau, params)
    if v == 0.0:
        return -math.inf
    z = m / math.sqrt(v)
    return math.log(prefactor) + math.log(v) + float(log_psi(z))


def asymptotic_rate_constants(tau, spread, y,
                              params: ModelParams) -> tuple[float, float, float]:
    """Limiting exponential rate constants of the error bound.

    Returns the three constants of the limsup rates:

    (i)   (T - t) log E_bar        -> -(1/2) (spread / sigma_d)^2,
    (ii)  log E_bar / spread^2     -> -(1/2) m_inf(tau)^2 / V(tau),
    (iii) log E_bar / y^2          -> -(1/2) n_inf(tau)^2 / V(tau),

    with m_inf = (nu tau + 2 gamma)/((r + nu) tau + 2 gamma) and
    n_inf = tau/((r + nu) tau + 2 gamma), for tau > 0 (V(0) = 0).
    """
    if not tau > 0:
        raise ValueError("time-to-go must be positive: V(0) = 0")
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    den = (r + nu) * tau + 2.0 * gamma
    v = variance_spread(tau, params)
    rate_time = -0.5 * (spread / params.sigma_d) ** 2
    m_inf = (nu * tau + 2.0 * gamma) / den
    n_inf = tau / den
    return rate_time, -0.5 * m_inf**2 / v, -0.5 * n_inf**2 / v


def mean_spread_jump(tau, spread, y, params: ModelParams,
                     jumps: JumpParams | None):
    """Mean terminal spread in the jump model when no jump occurs, m_lambda.

    Equal to ``m`` at a jump-shifted price plus an explicit drift
    correction; reduces to :func:`mean_spread` when ``jumps`` is None.  The
    full mean, m_lambda plus lam times the integral over u in [0, tau] of
    ``(delta (nu u + 2 gamma) + pi u) / ((r + nu) u + 2 gamma)``, is ``m``
    at the drift mu + lam delta plus ``lam pi tau^2 / (2 den)``, with
    ``den = (r + nu) tau + 2 gamma``.
    """
    if jumps is None:
        return mean_spread(tau, spread, y, params)
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
    y_shifted = y + lam * (0.5 * pi - r * delta) * tau
    correction = lam * (r * delta - pi) / (r + nu) * (
        tau - 2.0 * gamma / (r + nu) * math.log1p((r + nu) * tau / (2.0 * gamma)))
    return mean_spread(tau, spread, y_shifted, params) + correction


def error_bound_jump(tau, spread, y, params: ModelParams,
                     jumps: JumpParams | None, seed: int = 0) -> ErrorBoundReport:
    """Error bound in the jump model.

    The bound is ``(eta r / (2 beta)) V E[psi((m_lambda + S) / sqrt(V))]``
    where ``S`` sums, over the negative jumps of a Poisson process with
    intensity lam p-, the nonpositive terms

        (delta- (nu (tau - s) + 2 gamma) + pi- (tau - s))
            / ((r + nu)(tau - s) + 2 gamma).

    The expectation over S is estimated from ``MC_SAMPLES`` (100 000)
    Monte Carlo draws from ``seed``'s stream ``_STREAM_BOUND`` (closed form
    when p- = 0 or ``jumps`` is None, with a zero standard error).
    """
    check_seed(seed)
    if jumps is None:
        return error_bound(tau, spread, y, params)
    prefactor = _bound_prefactor(params)
    m_l = float(mean_spread_jump(tau, spread, y, params, jumps))
    v = variance_spread(tau, params)
    moments = SpreadMoments(mean=m_l, variance=v)  # refused before the draws
    rate_minus = jumps.lam * jumps.p_minus
    if rate_minus == 0.0 or v == 0.0:
        return _report(m_l, v, prefactor)

    chunk = 16_384
    # a chunk's jump draws peak at four 8-byte arrays per draw
    draws = chunk * rate_minus * tau
    check_memory(32 * draws, f"{draws:.3g} expected jump draws per chunk")
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    sqrt_v = math.sqrt(v)
    rng = _stream(seed, 0, _STREAM_BOUND)
    bounds = np.empty(MC_SAMPLES)
    probs = np.empty(MC_SAMPLES)
    for start in range(0, MC_SAMPLES, chunk):
        size = min(chunk, MC_SAMPLES - start)
        counts = rng.poisson(rate_minus * tau, size=size)
        total = int(counts.sum())
        times = rng.uniform(0.0, tau, size=total)
        to_go = tau - times
        terms = (jumps.delta_minus * (nu * to_go + 2.0 * gamma)
                 + jumps.pi_minus * to_go) / ((r + nu) * to_go + 2.0 * gamma)
        sums = np.zeros(size)
        np.add.at(sums, np.repeat(np.arange(size), counts), terms)
        z = (m_l + sums) / sqrt_v
        bounds[start:start + size] = prefactor * v * psi(z)
        probs[start:start + size] = _norm_sf(z)
    with np.errstate(invalid="ignore"):  # inf - inf: the report refuses inf
        stderr = float(bounds.std(ddof=1) / math.sqrt(MC_SAMPLES))
    return ErrorBoundReport(float(bounds.mean()), float(probs.mean()),
                            moments, stderr)
