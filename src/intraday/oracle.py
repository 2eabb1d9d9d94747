"""Independent verification: ODE integration, quadrature, Monte Carlo probes.

The closed forms in :mod:`intraday.closed_form` are transcriptions of the
solutions of two Riccati ODE systems (with and without jumps).  This
module re-derives the coefficients by fixed-step classical 4th-order
integration of those systems from their initial conditions, cross-checks
the closed-form variance integral by fixed composite Gauss–Legendre, and
probes the optimality of the feedback rate by Monte Carlo perturbation
with common random numbers.  Integration and quadrature both step in the
log time s, tau = scale (e^s - 1) with scale = 2 gamma / (r + nu), which
resolves the boundary layer of width ~scale at tau = 0 at any stiffness.
Nothing here is used in the production evaluation path.

The RK4 state is eight Python floats rather than a numpy array, because
on eight numbers numpy's per-call overhead dominates.  Each step is one
Python call that passes the state between stages as positional floats,
with no list or generator, and computes the products of constants once
per integration, hoisted so that every bit stays (see ``_rk4_step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closed_form, error_bounds, simulate
from .model import (JumpParams, MarketState, ModelParams, check_seed,
                    reduced_cost_coefficient, terminal_cost)

#: Relative tolerance of the closed-form comparison, at every stiffness.
ODE_RTOL = 1e-8

_BLOWUP = 1e30

#: Recording stride of the simulated paths in :func:`verification_report`.
_RECORD_EVERY = 60


@dataclass(frozen=True)
class OdeSolution:
    """Numerical solution of a Riccati system on a time-to-go grid.

    ``coeffs`` has one row per grid node with columns (a, b, f, g, h, k)
    — for the jump system (g, h, k) are the jump-corrected coefficients.
    """

    tau: np.ndarray
    coeffs: np.ndarray


def _rk4_step(params: ModelParams, jumps: JumpParams | None, h: float
              ) -> Callable[[tuple, float, float, float], tuple]:
    """One classical RK4 step of size ``h`` in log time, as
    ``step(v, start, mid, end)``: it takes the 8-float state and the
    time-change speeds at the start, middle and end of the step, and
    returns the next state.  The system is autonomous, so the right-hand
    side sees the time only through the speed that scales it.

    The state carries c1 = nu f - 2 a and c2 = 1 - f + 2 nu b, integrated
    by dc/dtau = c (c1 - nu c2) / (2 gamma), for dg and dh only: there
    u3 / (2 gamma) multiplies them, and c2 ~ 2 gamma / (r tau) rebuilt from
    b and f is round-off in a stiff system.  da, db, df keep the algebraic
    u1, u2, whose closed loop holds a to round-off; feeding them c instead
    raised the pure-trader error in k from 8e-14 to 1.2e-10.

    Products of constants are computed once, and only where Python already
    evaluates them first, left to right (``2.0 * mu * a`` is
    ``(2.0 * mu) * a``); no division becomes a multiplication by a
    reciprocal.  So every stage rounds as the plain expressions would.
    """
    mu, nu, gamma = params.mu, params.nu, params.gamma
    s0, sd, rho = params.sigma0, params.sigma_d, params.rho
    two_mu, two_nu = 2.0 * mu, 2.0 * nu
    two_gamma, four_gamma = 2.0 * gamma, 4.0 * gamma
    s0_sq, sd_sq, s0_sd_rho = s0**2, sd**2, rho * s0 * sd
    if jumps is not None:
        lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
        m_dd, m_pp, m_dp = jumps.second_moments
        two_delta, two_pi = 2.0 * delta, 2.0 * pi

    def rhs(a, b, f, g, h, k, c1, c2, speed):
        u1 = -2.0 * a + nu * f
        u2 = two_nu * b - f + 1.0
        u3 = -g + nu * h
        da = -u1**2 / four_gamma
        db = -u2**2 / four_gamma
        df = -u1 * u2 / two_gamma
        dg = two_mu * a - c1 * u3 / two_gamma
        dh = mu * f - c2 * u3 / two_gamma
        dk = (mu * g + s0_sq * b + sd_sq * a + s0_sd_rho * f
              - u3**2 / four_gamma)
        if jumps is not None:
            dg += lam * (two_delta * a + pi * f)
            dh += lam * (two_pi * b + delta * f)
            dk += lam * (m_dd * a + m_pp * b + m_dp * f + delta * g + pi * h)
        dc = (c1 - nu * c2) / two_gamma * speed
        return (da * speed, db * speed, df * speed,
                dg * speed, dh * speed, dk * speed, c1 * dc, c2 * dc)

    half, sixth = 0.5 * h, h / 6.0

    def step(v, start, mid, end):
        y0, y1, y2, y3, y4, y5, y6, y7 = v
        p0, p1, p2, p3, p4, p5, p6, p7 = rhs(*v, start)
        q0, q1, q2, q3, q4, q5, q6, q7 = rhs(
            y0 + half * p0, y1 + half * p1, y2 + half * p2, y3 + half * p3,
            y4 + half * p4, y5 + half * p5, y6 + half * p6, y7 + half * p7,
            mid)
        r0, r1, r2, r3, r4, r5, r6, r7 = rhs(
            y0 + half * q0, y1 + half * q1, y2 + half * q2, y3 + half * q3,
            y4 + half * q4, y5 + half * q5, y6 + half * q6, y7 + half * q7,
            mid)
        w0, w1, w2, w3, w4, w5, w6, w7 = rhs(
            y0 + h * r0, y1 + h * r1, y2 + h * r2, y3 + h * r3,
            y4 + h * r4, y5 + h * r5, y6 + h * r6, y7 + h * r7, end)
        return (y0 + sixth * (p0 + 2.0 * q0 + 2.0 * r0 + w0),
                y1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + w1),
                y2 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + w2),
                y3 + sixth * (p3 + 2.0 * q3 + 2.0 * r3 + w3),
                y4 + sixth * (p4 + 2.0 * q4 + 2.0 * r4 + w4),
                y5 + sixth * (p5 + 2.0 * q5 + 2.0 * r5 + w5),
                y6 + sixth * (p6 + 2.0 * q6 + 2.0 * r6 + w6),
                y7 + sixth * (p7 + 2.0 * q7 + 2.0 * r7 + w7))
    return step


def integrate_jump_riccati(params: ModelParams, jumps: JumpParams | None,
                           tau_max: float, n_steps: int = 10_000) -> OdeSolution:
    """Integrate the jump-corrected Riccati system by classical RK4; with
    ``jumps=None`` this is the no-jump system."""
    if not 0 < tau_max < math.inf:
        raise ValueError("tau_max must be positive and finite")
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    r = reduced_cost_coefficient(params)
    scale = 2.0 * params.gamma / (r + params.nu)
    s_max = math.log1p(tau_max / scale)
    h = s_max / n_steps
    grid_s = np.linspace(0.0, s_max, n_steps + 1).tolist()

    step = _rk4_step(params, jumps, h)
    half = 0.5 * h
    v = (0.5 * r, 0.0, 0.0, 0.0, 0.0, 0.0, -r, 1.0)
    states = np.empty((n_steps + 1, 8))
    states[0] = v
    for i in range(n_steps):
        s = grid_s[i]
        try:  # the time-change speed dtau/ds is scale e^s
            v = step(v, scale * math.exp(s), scale * math.exp(s + half),
                     scale * math.exp(s + h))
        except OverflowError:  # float ** raises where numpy returned inf
            states[i + 1:] = math.inf
            break
        states[i + 1] = v
    bounded = (np.abs(states[1:]) <= _BLOWUP).all(axis=1)  # nan, inf: False
    if not bounded.all():
        raise RuntimeError(
            f"Riccati integration blew up at step {bounded.argmin() + 1}"
            f"/{n_steps}; reduce the step size")
    tau_grid = np.array([scale * math.expm1(s) for s in grid_s])
    return OdeSolution(tau=tau_grid, coeffs=states[:, :6])


def integrate_riccati(params: ModelParams, tau_max: float,
                      n_steps: int = 10_000) -> OdeSolution:
    """Integrate the no-jump Riccati system by classical RK4."""
    return integrate_jump_riccati(params, None, tau_max, n_steps)


def compare_with_closed_form(solution: OdeSolution, params: ModelParams,
                             jumps: JumpParams | None = None) -> dict:
    """Max deviation of the integrated coefficients from the closed forms.

    Deviations are scaled by the largest closed-form magnitude of each
    coefficient over the grid, so identically-zero coefficients (e.g. G, H
    when mu = 0) are compared absolutely at the system's own scale.  The
    closed forms are evaluated on the whole grid in one array call, whose
    K may differ from node-by-node scalar calls by about 1e-15 of that
    scale or less.
    """
    c = closed_form.jump_riccati_coefficients(solution.tau, params, jumps)
    closed = np.column_stack((c.a, c.b, c.f, c.g, c.h, c.k))
    scales = np.maximum(np.abs(closed).max(axis=0), 1e-30)
    errors = np.abs(solution.coeffs - closed).max(axis=0) / scales
    names = ("a", "b", "f", "g", "h", "k")
    return {name: float(err) for name, err in zip(names, errors)}


def variance_spread_quadrature(tau: float, params: ModelParams) -> float:
    """Gauss–Legendre cross-check of the closed-form variance V.

    Uses 32 panels of 20 nodes (:func:`error_bounds.log_time_nodes`) in
    the same log time u as the RK4 oracle, s = scale (e^u - 1) with
    scale = 2 gamma / (r + nu): the integrand's boundary layer of width
    ~scale at s = 0 gets as many nodes as the rest of the interval, and
    every preset is integrated to ~1e-15.
    """
    r = reduced_cost_coefficient(params)
    s0, sd = params.sigma0, params.sigma_d
    nu, gamma, rho = params.nu, params.gamma, params.rho
    scale = 2.0 * gamma / (r + nu)
    u, weights, width = error_bounds.log_time_nodes(tau, scale)
    s = scale * np.expm1(u)
    lin = nu * s + 2.0 * gamma
    integrand = (s0**2 * s**2 + sd**2 * lin**2 + 2.0 * rho * s0 * sd * s * lin
                 ) / ((r + nu) * s + 2.0 * gamma) ** 2
    return float(0.5 * width * (weights * integrand * scale * np.exp(u)).sum())


#: Deterministic bump profiles for the optimality probe, per horizon.
PROBE_PROFILES = {
    "constant": lambda horizon: lambda s: 1.0,
    "early": lambda horizon: lambda s: 1.0 if s < horizon / 4.0 else 0.0,
    "late": lambda horizon: lambda s: 1.0 if s >= 3.0 * horizon / 4.0 else 0.0,
}


@dataclass(frozen=True)
class ProbeResult:
    """Cost increase of one perturbed policy versus the base policy."""

    profile: str
    epsilon: float
    mean_increase: float
    stderr: float


def _check_mc_paths(n_paths: int) -> None:
    """A Monte Carlo check compares against its standard error, which
    needs at least 2 paths."""
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2 for a Monte Carlo "
                         "standard error")


def optimality_probe(params: ModelParams, jumps: JumpParams | None,
                     base_policy: simulate.Policy, perturbation_scale: float,
                     n_paths: int, seed: int, *, dt: float = 60.0,
                     d0: float = 0.0, y0: float = 0.0,
                     epsilon_factors: tuple = (1.0, 2.0)) -> list[ProbeResult]:
    """Monte Carlo check that the feedback rate is a cost minimum.

    Simulates the base policy and rate bumps ``q + eps * u(s)`` for the
    constant/early/late profiles with common random numbers (identical
    seed), and reports paired cost differences.  At the optimum every
    difference is positive and scales quadratically in eps.
    """
    if perturbation_scale <= 0:
        raise ValueError("perturbation_scale must be positive")
    _check_mc_paths(n_paths)

    def realized_cost(policy):
        paths = simulate.sample_paths(params, jumps, policy, n_paths, dt, seed,
                                      d0=d0, y0=y0, record_every=None)
        return paths.running_cost + terminal_cost(paths.terminal_spread,
                                                  paths.xi, params)

    base_cost = realized_cost(base_policy)
    results = []
    for name, make_profile in PROBE_PROFILES.items():
        profile = make_profile(params.horizon)
        for factor in epsilon_factors:
            eps = perturbation_scale * factor
            diff = realized_cost(simulate.perturbed_policy(
                base_policy, eps, profile)) - base_cost
            stderr = float(diff.std(ddof=1) / math.sqrt(n_paths))
            results.append(ProbeResult(profile=name, epsilon=eps,
                                       mean_increase=float(diff.mean()),
                                       stderr=stderr))
    return results


def verification_report(params: ModelParams, jumps: JumpParams | None = None,
                        *, seed: int = 0, n_paths: int = 2000,
                        dt: float = 60.0, d0: float = 50_000.0,
                        y0: float = 50.0) -> dict:
    """Run the full verification suite; returns a machine-readable dict.

    Checks: closed-form coefficients vs RK4 integration of the config's
    own Riccati system, the jump-corrected one when there are jumps (its
    A, B and F are the no-jump ones, so one integration checks all six),
    the closed-form variance vs fixed composite Gauss–Legendre in log
    time, the equilibrium identity on fuzzed states, the martingale drift
    of the simulated optimal rate, and the Monte Carlo cost vs the
    closed-form value.  Each check carries ``passed`` plus its measured
    numbers.
    """
    check_seed(seed)
    if not params.pure_trader:  # reject a bad grid or state before the oracle
        n_steps = simulate.check_grid(params, jumps, n_paths, dt,
                                      _RECORD_EVERY)
        if n_steps <= 2 * _RECORD_EVERY:
            raise ValueError(
                f"dt must be below horizon / {2 * _RECORD_EVERY} = "
                f"{params.horizon / (2 * _RECORD_EVERY):g} s: the drift slope "
                f"needs 3 nodes before T, recorded every {_RECORD_EVERY} steps")
        _check_mc_paths(n_paths)
        value = closed_form.value_aux_jump(
            MarketState(t=0.0, x=0.0, y=y0, d=d0), params, jumps)

    errors = compare_with_closed_form(
        integrate_jump_riccati(params, jumps, params.horizon), params, jumps)
    checks = {"riccati_ode": {
        "max_relative_error": max(errors.values()),
        "per_coefficient": errors,
        "tolerance": ODE_RTOL,
        "passed": max(errors.values()) <= ODE_RTOL,
    }}

    v_closed = error_bounds.variance_spread(params.horizon, params)
    v_quad = variance_spread_quadrature(params.horizon, params)
    rel = abs(v_closed - v_quad) / max(v_quad, 1e-300)
    checks["variance_quadrature"] = {
        "closed_form": v_closed, "quadrature": v_quad,
        "relative_error": rel, "tolerance": 1e-9, "passed": rel <= 1e-9,
    }

    if not params.pure_trader:
        rng = simulate._stream(seed, 0, simulate._STREAM_FUZZ)
        tau, x, y, d = rng.uniform((0.0, -1e4, -100.0, -1e4),
                                   (params.horizon, 1e4, 200.0, 1e5),
                                   (1000, 4)).T  # 1000 states
        lhs, rhs, _ = closed_form.forecast_equilibrium(tau, x, y, d, params)
        worst = float(np.max(abs(lhs - rhs) / np.maximum(abs(rhs), 1e-9)))
        checks["forecast_equilibrium"] = {
            "max_relative_error": worst, "tolerance": 1e-9,
            "passed": worst <= 1e-9,
        }

        policy = simulate.optimal_policy(params, jumps, constrained=False)
        paths = simulate.sample_paths(params, jumps, policy, n_paths, dt, seed,
                                      d0=d0, y0=y0,
                                      record_every=_RECORD_EVERY)
        drift = simulate.martingale_diagnostics(paths, params, jumps)
        checks["martingale_drift"] = {
            "slope": drift.slope, "stderr": drift.stderr,
            "expected": drift.expected,
            "passed": drift.contains_expected(),
        }

        cost = simulate.estimate_cost(paths, params)
        checks["monte_carlo_cost"] = {
            "estimate": cost.mean, "stderr": cost.stderr, "value": value,
            "passed": abs(cost.mean - value) <= 3.0 * cost.stderr,
        }

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "checks": checks,
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a verification report."""
    lines = ["verification report",
             f"overall: {'PASS' if report['passed'] else 'FAIL'}", ""]
    for name, check in report["checks"].items():
        status = "PASS" if check["passed"] else "FAIL"
        details = ", ".join(f"{key}={value:.6g}"
                            for key, value in check.items()
                            if key not in ("passed", "per_coefficient"))
        lines.append(f"[{status}] {name}: {details}")
    return "\n".join(lines) + "\n"
