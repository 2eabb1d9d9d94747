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
partial fractions, the jump-model extensions (the jump bound as
saddle-point contour integrals), and the limiting exponential rate
constants.

Phi(-z) is ``erfc(z / sqrt 2) / 2`` and phi(z) is
``exp(-z * z / 2) / sqrt(2 pi)``, on the standard library's ``math``.
psi, psi_tilde and log_psi are one scalar kernel each: a number goes
straight through it, and an array element by element, so that a Python
float, an int, a numpy float64 and the elements of an array all give the
same bits.  Each kernel takes the direct formula below ``_TAIL_Z`` and its
asymptotic series from there on, and returns the limits at z = +-inf and
at an int beyond the float range.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.stats  # noqa: F401  kept: bench/run.py reports its import time

from .model import (JumpParams, ModelParams, check_seed,
                    reduced_cost_coefficient)

logger = logging.getLogger(__name__)

#: Switch point between the direct formulas of psi and psi_tilde and their
#: 16-term asymptotic series.  Direct evaluation loses relative accuracy to
#: cancellation as z grows, the series gains it.  Against 50-digit mpmath
#: the relative error of psi is 1.4e-13 on [0, 3], 4.8e-11 on [3, 10] (the
#: direct formula below 9), 8.4e-13 on [10, 20] and 6e-14 from there to
#: 37; that of psi_tilde at most 1.3e-12 (tests/test_error_bounds.py,
#: TestAccuracy).
_TAIL_Z = 9.0
_TAIL_TERMS = 16

#: Coefficients of the asymptotic series in u = 1/z^2 (DLMF 7.12.1),
#: highest power first for Horner's scheme:
#: psi_tilde(z) / phi(z) ~ z^-2 sum_k (-1)^k (2k+1)!! u^k and
#: psi(z) / phi(z) ~ 2 z^-3 sum_k (-1)^k (2k+1)!! (k+1) u^k.
_PSI_TILDE_TAIL = tuple(float((-1)**k * math.prod(range(1, 2 * k + 2, 2)))
                        for k in reversed(range(_TAIL_TERMS)))
_PSI_TAIL = tuple(c * (k + 1) for k, c in
                  zip(reversed(range(_TAIL_TERMS)), _PSI_TILDE_TAIL))

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: The 20-node Gauss–Legendre rule on [-1, 1] of :func:`log_time_nodes`,
#: read-only: every call returns the same weights.  The values of
#: ``np.polynomial.legendre.leggauss(20)``, written out: computing them at
#: import takes an eigenvalue solve, the process's first LAPACK call, which
#: every process that never integrates would pay in memory.
_GL_NODES = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326,
    -0.8391169718222188, -0.7463319064601508, -0.636053680726515,
    -0.5108670019508271, -0.37370608871541955, -0.22778585114164507,
    -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515,
    0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095])
_GL_WEIGHTS = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
    0.08327674157670471, 0.1019301198172407, 0.1181945319615186,
    0.1316886384491769, 0.1420961093183824, 0.14917298647260424,
    0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
    0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893])
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False

#: Panels of 20 nodes in the jump-time average E[e^{sJ}] of
#: :func:`error_bound_jump`; 64 panels move its values by about 1e-15.
_JUMP_PANELS = 8

#: Target of the contour integrals' trapezoid and truncation errors, relative
#: to the integrand at the saddle point.
_EPS = 1e-16

#: Frequencies evaluated at once by the contour integrals, the rows of
#: their phase table, and at most in all (about 0.2 s): a Fourier integral
#: resolves the narrowest feature of the law, the diffusion's sd sqrt(V),
#: over the range of the jumps, which takes many frequencies where V -> 0
#: near delivery.
_CONTOUR_BLOCK = 32
_MAX_FREQUENCIES = 2**17


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
    mc_stderr: float = 0.0        # EUR; always 0, read by bench/workloads.py

    def __post_init__(self) -> None:
        if not math.isfinite(self.bound):
            raise ValueError(f"the error bound overflows float64 at mean "
                             f"terminal spread {self.moments.mean:g} MW")


def _tail_series(z: float, coefficients: tuple) -> float:
    """sum_k c_k z^(-2k) by Horner's scheme, highest power first."""
    u = 1.0 / (z * z)
    total = 0.0
    for c in coefficients:
        total = total * u + c
    return total


def _norm_sf(z: float) -> float:
    """Phi(-z), the standard normal upper tail."""
    return 0.5 * math.erfc(z / _SQRT_2)


def _norm_pdf(z: float) -> float:
    """phi(z), the standard normal density."""
    return math.exp(-z * z / 2.0) / _SQRT_2PI


def _psi(z: float) -> float:
    if z >= _TAIL_Z:
        return _norm_pdf(z) * 2.0 / (z * z * z) * _tail_series(z, _PSI_TAIL)
    if z <= -_TAIL_Z:
        # psi(z) = z^2 + 1 - psi(-z), and psi(-z) is below an ulp of it;
        # at z = -inf the direct formula would take -inf * 0
        return z * z + 1.0
    return (z * z + 1.0) * _norm_sf(z) - z * _norm_pdf(z)


def _log_psi(z: float) -> float:
    if z >= _TAIL_Z:  # log z^3 as 3 log z: z^3 overflows from 5.6e102
        return (-z * z / 2.0 - _LOG_SQRT_2PI - 3.0 * math.log(z)
                + math.log(2.0 * _tail_series(z, _PSI_TAIL)))
    if z <= -_TAIL_Z:
        # log(z^2 + 1), also where z^2 overflows
        return 2.0 * math.log(-z) + math.log1p(1.0 / (z * z))
    return math.log(_psi(z))


def _psi_tilde(z: float) -> float:
    if z >= _TAIL_Z:
        return _norm_pdf(z) / (z * z) * _tail_series(z, _PSI_TILDE_TAIL)
    return _norm_pdf(z) - z * _norm_sf(z)


def _as_float(z) -> float:
    """A number as a Python float; an int beyond the float range as its
    limit, +-inf."""
    try:
        return float(z)
    except OverflowError:
        return math.inf if z > 0 else -math.inf


def _elementwise(kernel, z):
    """``kernel`` of a number other than a Python float, or of each element
    of an array; of a 0-d array, a float.  A plain loop: a numpy ufunc
    such as ``np.frompyfunc`` would report the kernels' quiet overflows
    to +-inf as warnings."""
    z = np.asarray(z)
    out = np.array([kernel(_as_float(v)) for v in z.flat], dtype=float)
    return out.reshape(z.shape) if z.ndim else out.item()


def psi(z):
    """psi(z) = (z^2 + 1) Phi(-z) - z phi(z); nonnegative and decreasing.
    Of a number, or of each element of an array."""
    return _psi(z) if type(z) is float else _elementwise(_psi, z)


def log_psi(z):
    """Natural log of psi(z), valid far beyond the underflow point of psi."""
    return _log_psi(z) if type(z) is float else _elementwise(_log_psi, z)


def psi_tilde(z):
    """psi_tilde(z) = phi(z) - z Phi(-z); nonnegative for all z."""
    return (_psi_tilde(z) if type(z) is float
            else _elementwise(_psi_tilde, z))


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
    """Natural log of the error bound; usable when the bound underflows.
    A bound that overflows float64 (log +inf or nan) is refused as by
    :func:`error_bound`."""
    prefactor = _bound_prefactor(params)
    m = mean_spread(tau, spread, y, params)
    v = variance_spread(tau, params)
    if v == 0.0:
        return -math.inf
    z = m / math.sqrt(v)
    log_bound = math.log(prefactor) + math.log(v) + float(log_psi(z))
    if not log_bound < math.inf:
        raise ValueError(f"the error bound overflows float64 at mean "
                         f"terminal spread {m:g} MW")
    return log_bound


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


def log_time_nodes(tau: float, scale: float, panels: int = 32
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Composite 20-node Gauss–Legendre in the log time u of
    s = scale (e^u - 1).

    Returns the nodes u (one row of 20 per panel), the weights of one
    panel and the panel width, so that the integral of f over s in
    [0, tau] is ``0.5 * width * sum(weights * f(s(u)) * scale * exp(u))``.
    A boundary layer of width ~scale at s = 0 gets as many nodes as the
    rest of the interval.  The weights are shared and read-only.
    """
    offsets = np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)
    width = math.log1p(tau / scale) / panels
    return offsets * width, _GL_WEIGHTS, width


class _JumpSpread:
    """The law of G = m + S + sqrt(V) Z, with S a compound Poisson sum of
    ``rate`` expected jumps of the sizes ``sizes`` taken with probabilities
    ``weights``, and Z standard normal.

    log M(s) = s m + V s^2 / 2 + rate (E[e^{sJ}] - 1).  E[(G^-)^2] and
    P(G < 0) are inverse Laplace transforms of M, and any line
    Re s = -alpha, alpha > 0, gives both; they are integrated on one line
    by the trapezoid rule in omega = Im s:

        E[(G^-)^2] = (1/pi) int_0^inf Re[2 (alpha - i omega)^-3 M(-alpha + i omega)] d omega,
        P(G < 0)   = (1/pi) int_0^inf Re[(alpha - i omega)^-1 M(-alpha + i omega)] d omega,

    and the same of G^+ on Re s = +alpha with the kernels 2 s^-3 and s^-1
    (Rogers & Zane, Ann. Appl. Probab. 9(2), 1999; Trefethen & Weideman,
    SIAM Review 56(3), 2014).
    """

    def __init__(self, mean: float, variance: float, rate: float,
                 sizes: np.ndarray, weights: np.ndarray):
        self.m, self.v, self.rate = mean, variance, rate
        self.sizes, self.weights = sizes, weights
        self.squares = sizes**2

    def log_mgf(self, sigma):
        """K = log M at real ``sigma``, a number or an array."""
        sigma = np.asarray(sigma, dtype=float)
        tilted = np.exp(sigma[..., None] * self.sizes) * self.weights
        return (sigma * self.m + 0.5 * self.v * sigma**2
                + self.rate * (tilted.sum(axis=-1) - 1.0))

    def slopes(self, sigma: float) -> tuple[float, float]:
        """K' and K'' at a real number ``sigma``."""
        tilted = np.exp(sigma * self.sizes) * self.weights
        return (self.m + self.v * sigma + self.rate * (tilted @ self.sizes),
                self.v + self.rate * (tilted @ self.squares))

    def _saddle(self, side: int) -> tuple[float, int]:
        """alpha > 0 at the minimum of K(side alpha) - 3 log alpha, the
        saddle point of the second moment's kernel, and the number of
        evaluations of K' and K'' that found it.

        Its derivative g(alpha) = side K'(side alpha) - 3 / alpha increases.
        Without jumps, g's root is that of v alpha^2 + side m alpha - 3.
        The jump term side rate E[J e^{side alpha J}] is >= 0 on the left
        (side = -1), so that root bounds alpha from above, and a lower bound
        is found by dividing by 2, 4, 16, ...; on the right it lies in
        [rate min J, 0], which brackets alpha in closed form.  Safeguarded
        Newton steps then narrow the bracket.
        """
        def gaussian_root(mean):
            mm = side * mean
            root = math.hypot(mm, 2.0 * math.sqrt(self.v * 3))
            return 6.0 / (root + mm) if mm > 0 else (root - mm) / (2.0 * self.v)

        if side < 0:
            hi = lo = gaussian_root(self.m)
            shift = bracketing = 1
            while -self.slopes(-lo)[0] - 3 / lo >= 0:
                hi, lo = lo, max(math.ldexp(lo, -shift), 5e-324)
                shift *= 2
                bracketing += 1
        else:
            lo = gaussian_root(self.m)
            hi = gaussian_root(self.m + self.rate * self.sizes.min())
            bracketing = 0
        alpha, last = math.sqrt(lo * hi), hi - lo
        for newton in range(1, 201):
            k1, k2 = self.slopes(side * alpha)
            slope = side * k1 - 3 / alpha
            if slope > 0:
                hi = alpha
            else:
                lo = alpha
            step = alpha - slope / (k2 + 3 / alpha**2)
            # bisect where Newton leaves the bracket (or is nan) or crawls,
            # as on the exponential wall of a large jump
            if not (lo < step < hi and abs(step - alpha) < 0.5 * last):
                step = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
            if abs(step - alpha) <= 1e-13 * alpha or hi - lo <= 1e-13 * hi:
                return step, bracketing + newton
            alpha, last = step, abs(step - alpha)
        raise ValueError("the saddle point search did not converge")

    def contour(self, side: int) -> tuple[float, float]:
        """E[(G^-)^2] and P(G < 0) for side = -1, the same of G^+ for
        side = +1, from one line through the second moment's saddle point.

        The trapezoid step h comes from the strip of analyticity
        |Im omega| < d, d < alpha (the kernels' pole at s = 0): its error
        is about e^{phi(alpha +- d) - phi(alpha) - 2 pi d / h} of the
        integrand at omega = 0, where phi(a) = K(side a) - 3 log a, and h
        is the largest over a few d.  |M| falls at least like
        e^{-V omega^2 / 2}, which bounds the range.  Each kernel stops
        summing after its first block of frequencies below ``_EPS`` of its
        value at omega = 0.  Relative to that value, 2 s^-3 M falls faster
        than s^-1 M, so the probability's sum runs on after the second
        moment's has stopped.
        A state that needs more than ``_MAX_FREQUENCIES`` is refused.

        The jump transform E[e^{(sigma + i omega) J}] of the block of
        frequencies omega = h (start + j), j < ``_CONTOUR_BLOCK``, is
        ``table @ (e^{i h start J} tilted)``, with the phase table
        ``table[j, m] = e^{i h j J_m}`` built once per contour and
        ``tilted = e^{sigma J} weights``: a block takes one complex
        exponential per jump size and one product with the table, shared
        by both kernels.
        """
        alpha, evaluations = self._saddle(side)
        sigma = side * alpha
        k0 = self.log_mgf(sigma)
        k2 = self.slopes(sigma)[1]
        log_scale = k0 - 3 * math.log(alpha)
        if max(log_scale, k0 - math.log(alpha)) < -800.0:  # both underflow
            self._log(side, alpha, math.nan, 0, evaluations)
            return 0.0, 0.0
        digits = -math.log(_EPS)
        d = np.array([0.25, 0.5, 1.0, 2.0]) * math.sqrt(
            2.0 * digits / (k2 + 3 / alpha**2))
        d = np.append(d[d < 0.9 * alpha], [0.5 * alpha, 0.9 * alpha])
        shifted = np.concatenate([alpha + d, alpha - d])
        phi = self.log_mgf(side * shifted) - 3 * np.log(shifted)
        growth = np.maximum(phi[:d.size], phi[d.size:]) - log_scale
        h = float(np.max(2.0 * math.pi * d / (growth + digits)))
        limit = math.sqrt(2.0 * digits / self.v)

        tilted = np.exp(sigma * self.sizes) * self.weights
        base = tilted.sum()
        steps = np.arange(_CONTOUR_BLOCK)
        table = np.exp(1j * np.outer(h * steps, self.sizes))
        second = probability = 0.0
        summing_second = True
        for start in range(0, _MAX_FREQUENCIES, _CONTOUR_BLOCK):
            omega = h * (start + steps)
            # einsum, not @: OpenBLAS may spread a complex product of this
            # size over threads, which took up to 20 times as long on a
            # loaded host
            transform = np.einsum(
                "jm,m->j", table,
                np.exp(1j * (h * start) * self.sizes) * tilted)
            s = side * (sigma + 1j * omega)
            mgf = np.exp(
                1j * omega * self.m + self.v * omega * (1j * sigma - 0.5 * omega)
                + self.rate * (transform - base))
            if summing_second:
                values = 2.0 / s**3 * mgf
                if start == 0:
                    second_peak = abs(values[0])
                    values[0] *= 0.5
                second += values.real.sum()
                if np.abs(values).max() < _EPS * second_peak:
                    summing_second = False
            values = mgf / s
            if start == 0:
                peak = abs(values[0])
                values[0] *= 0.5
            probability += values.real.sum()
            if omega[-1] >= limit or np.abs(values).max() < _EPS * peak:
                break
        else:
            raise ValueError(
                f"the jump bound needs more than {_MAX_FREQUENCIES} "
                f"frequencies at this state: the terminal spread's diffusion "
                f"(sd {math.sqrt(self.v):.3g} MW) is narrow against its "
                f"jumps (up to {-self.sizes.min():.3g} MW)")
        self._log(side, alpha, h, start + _CONTOUR_BLOCK, evaluations)
        return (float(np.exp(k0) * h * second / math.pi),
                float(np.exp(k0) * h * probability / math.pi))

    @staticmethod
    def _log(side, alpha, h, frequencies, evaluations):
        logger.debug("contour side %+d: alpha %.6g, step h %.6g, "
                     "%d frequencies, %d evaluations of K' and K'' in the "
                     "saddle search", side, alpha, h, frequencies, evaluations)

    def left_tail(self) -> tuple[float, float]:
        """E[(G^-)^2] and P(G < 0).  For E[G] < 0 the left contour's alpha
        goes to 0 with the mean; there the right tail is integrated and
        taken from E[G^2] and 1."""
        sizes, weights = self.sizes, self.weights
        mean = self.m + self.rate * (weights @ sizes)
        if mean >= 0.0:
            second, probability = self.contour(-1)
        else:
            total = mean**2 + self.v + self.rate * (weights @ sizes**2)
            if not math.isfinite(total):
                return total, 1.0
            right, above = self.contour(1)
            second, probability = total - right, 1.0 - above
        return max(second, 0.0), min(max(probability, 0.0), 1.0)


def _negative_jump_law(tau, params: ModelParams, jumps: JumpParams):
    """Sizes and weights of the terminal-spread effect of one negative jump
    at a time uniform on [0, tau], by :func:`log_time_nodes`: at time to
    go u the jump moves the spread by

        (delta- (nu u + 2 gamma) + pi- u) / ((r + nu) u + 2 gamma).
    """
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma
    scale = 2.0 * gamma / (r + nu)
    u, weights, width = log_time_nodes(tau, scale, _JUMP_PANELS)
    to_go = scale * np.expm1(u)
    sizes = ((jumps.delta_minus * (nu * to_go + 2.0 * gamma)
              + jumps.pi_minus * to_go) / ((r + nu) * to_go + 2.0 * gamma))
    return sizes.ravel(), (0.5 * width / tau * weights * scale * np.exp(u)).ravel()


def error_bound_jump(tau, spread, y, params: ModelParams,
                     jumps: JumpParams | None, seed: int = 0) -> ErrorBoundReport:
    """Error bound in the jump model.

    The bound is ``(eta r / (2 beta)) E[(G^-)^2]`` and the shortfall
    probability ``P(G < 0)``, with G = m_lambda + S + sqrt(V) Z: ``S`` sums,
    over the negative jumps of a Poisson process with intensity lam p-, the
    nonpositive terms

        (delta- (nu (tau - s) + 2 gamma) + pi- (tau - s))
            / ((r + nu)(tau - s) + 2 gamma).

    Both come from one saddle-point contour integral of the Laplace
    transform of G, on one line through the second moment's saddle point
    (see ``_JumpSpread``): deterministic, and closed form when p- = 0 or
    ``jumps`` is None.  ``seed`` is range-checked and not read.

    Floor: the error follows the Chernoff scale, the integrand at the
    saddle point.  Against 30-digit one-jump references (1e-8 expected
    negative jumps, tau 6 to 24 h, z = m_lambda / sqrt(V) from -3 to 20)
    it stays below 7.4e-15 of prefactor V / 2, and below 1.5e-10 relative
    where the bound exceeds 1e-6 of that.  Where one large jump at a small
    rate carries a far-tail bound, the Chernoff scale exceeds the bound by
    orders of magnitude, and so does the error: at tau = 12 h and z = 20
    the bound reads 3.8e-52 EUR against 1.4e-71.
    """
    check_seed(seed)
    if jumps is None:
        return error_bound(tau, spread, y, params)
    prefactor = _bound_prefactor(params)
    v = variance_spread(tau, params)  # refuses tau < 0 before log1p does
    m_l = float(mean_spread_jump(tau, spread, y, params, jumps))
    moments = SpreadMoments(mean=m_l, variance=v)  # refuses an overflow
    rate = jumps.lam * jumps.p_minus * tau
    if (rate == 0.0 or v == 0.0
            or jumps.delta_minus == jumps.pi_minus == 0.0):
        return _report(m_l, v, prefactor)
    law = _JumpSpread(m_l, v, rate, *_negative_jump_law(tau, params, jumps))
    with np.errstate(all="ignore"):  # overflows end as inf, refused below
        second, shortfall = law.left_tail()
    return ErrorBoundReport(float(prefactor * second), shortfall, moments)
