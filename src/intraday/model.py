"""Market model primitives: parameters, terminal costs, production rules.

A producer/trader accumulates an inventory ``X`` on the intraday market at a
controlled rate ``q`` (MW/s), pays a temporary price impact ``gamma`` and a
permanent impact ``nu``, and at delivery time ``T`` must match a residual
demand forecast ``D`` using the inventory plus an in-house production
quantity ``xi``.  Production costs ``(beta/2) xi^2`` and any residual imbalance is
penalised at ``(eta/2) (D - X - xi)^2``.

Everything in this package works in one canonical unit system: seconds, MW
and EUR.  Hour- or day-denominated quantities are converted at the I/O
boundary (see :func:`load_param_file`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOUR = 3600.0
DAY = 86400.0

#: Required keys of a parameter file (top level) and of its "jump" block.
_PARAM_KEYS = ("sigma0", "sigma_d", "beta", "eta", "mu", "nu", "gamma", "rho",
               "horizon_hours")
_JUMP_KEYS = ("lambda_per_day", "p_plus", "delta_plus", "delta_minus",
              "pi_plus", "pi_minus")


def _check_finite(record, names) -> None:
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite")


def check_seed(seed: int) -> None:
    """Reject a seed that does not fit the unsigned 64-bit Philox key."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def check_memory(needed: float, what: str) -> None:
    """Reject ``what`` if its ``needed`` bytes exceed physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(f"{what} need more than the {physical / 2**30:.3g} "
                         "GiB of physical memory")


@dataclass(frozen=True)
class ModelParams:
    """Model constants in the canonical unit system (seconds, MW, EUR).

    Attributes
    ----------
    sigma0 : float
        Quoted-price volatility, EUR * MW^-1 * s^-1/2.
    sigma_d : float
        Demand-forecast volatility, MW * s^-1/2.
    beta : float or None
        Marginal production cost slope, EUR * MW^-2, positive and finite.
        ``None`` is the only encoding of the pure trader (no production).
    eta : float
        Terminal imbalance penalty, EUR * MW^-2.
    mu : float
        Demand drift, MW * s^-1.
    nu : float
        Permanent price impact, EUR * MW^-2.
    gamma : float
        Temporary price impact, EUR * s * MW^-2.
    rho : float
        Correlation between price and demand Brownian drivers.
    horizon : float
        Delivery time T, seconds.
    """

    sigma0: float
    sigma_d: float
    beta: float | None
    eta: float
    mu: float
    nu: float
    gamma: float
    rho: float
    horizon: float

    def __post_init__(self) -> None:
        _check_finite(self, ("sigma0", "sigma_d", "eta", "mu", "nu", "gamma",
                             "rho", "horizon"))
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite (or None for "
                             "pure trader)")
        if not self.gamma > 0:
            raise ValueError("gamma must be strictly positive")
        if not self.eta > 0:
            raise ValueError("eta must be strictly positive")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be strictly positive")
        if not self.sigma_d > 0:
            raise ValueError("sigma_d must be strictly positive")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if not self.horizon > 0:
            raise ValueError("horizon must be strictly positive")

    @property
    def pure_trader(self) -> bool:
        """True when the agent has no production plant (``beta`` is None)."""
        return self.beta is None


@dataclass(frozen=True)
class JumpParams:
    """Compound-Poisson jump component shared by demand and price.

    A jump at time ``t`` moves the demand forecast by ``delta_plus`` or
    ``delta_minus`` and simultaneously the quoted price by ``pi_plus`` or
    ``pi_minus``; positive jumps occur with probability ``p_plus``.  The
    intensity ``lam`` is positive: ``None`` in place of a ``JumpParams`` is
    the only encoding of a model without jumps.
    """

    lam: float              # jump intensity, s^-1
    p_plus: float           # probability that a jump is positive
    delta_plus: float       # MW
    delta_minus: float      # MW
    pi_plus: float          # EUR * MW^-1
    pi_minus: float         # EUR * MW^-1

    def __post_init__(self) -> None:
        _check_finite(self, ("lam", "p_plus", "delta_plus", "delta_minus",
                             "pi_plus", "pi_minus"))
        if not self.lam > 0:
            raise ValueError("jump intensity must be positive; for no jumps "
                             "pass jumps=None or omit the jump block")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError("p_plus must lie in [0, 1]")
        if self.delta_plus < 0 or self.pi_plus < 0:
            raise ValueError("positive-jump sizes must be nonnegative")
        if self.delta_minus > 0 or self.pi_minus > 0:
            raise ValueError("negative-jump sizes must be nonpositive")

    @property
    def p_minus(self) -> float:
        return 1.0 - self.p_plus

    @property
    def delta(self) -> float:
        """Mean demand jump size p+ d+ + p- d-."""
        return self.p_plus * self.delta_plus + self.p_minus * self.delta_minus

    @property
    def pi(self) -> float:
        """Mean price jump size p+ pi+ + p- pi-."""
        return self.p_plus * self.pi_plus + self.p_minus * self.pi_minus

    @property
    def second_moments(self) -> tuple[float, float, float]:
        """Jump second moments E[dD^2], E[dP^2] and E[dD dP]."""
        pp, pm = self.p_plus, self.p_minus
        return (pp * self.delta_plus**2 + pm * self.delta_minus**2,
                pp * self.pi_plus**2 + pm * self.pi_minus**2,
                pp * self.delta_plus * self.pi_plus
                + pm * self.delta_minus * self.pi_minus)


@dataclass(frozen=True)
class MarketState:
    """Controlled state at a point in time.

    Attributes
    ----------
    t : float
        Time since the start of trading, seconds.
    x : float
        Accumulated inventory X_t, MW.
    y : float
        Quoted price Y_t, EUR * MW^-1.
    d : float
        Residual demand forecast D_t, MW.
    """

    t: float
    x: float
    y: float
    d: float

    def __post_init__(self) -> None:
        _check_finite(self, ("t", "x", "y", "d"))
        if self.t < 0:
            raise ValueError("time must be nonnegative")

    @property
    def spread(self) -> float:
        """Demand-inventory spread D_t - X_t, MW."""
        return self.d - self.x


def reduced_cost_coefficient(params: ModelParams) -> float:
    """Reduced cost coefficient r(eta, beta) = eta beta / (eta + beta).

    Harmonic composition of the production cost slope and the imbalance
    penalty; equals ``eta`` in the pure-trader limit beta -> infinity.
    """
    if params.pure_trader:
        return params.eta
    return params.eta * params.beta / (params.eta + params.beta)


def terminal_cost(spread, xi, params: ModelParams):
    """Terminal cost C(d - x, xi) = (beta/2) xi^2 + (eta/2) (d - x - xi)^2.

    Parameters
    ----------
    spread : array_like
        Demand-inventory spread D_T - X_T at delivery, MW.
    xi : array_like
        Production quantity, MW.  Must be zero for a pure trader.
    """
    spread = np.asarray(spread, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if params.pure_trader:
        if np.any(xi != 0.0):
            raise ValueError("pure trader cannot produce (xi must be 0)")
        return cost_after_production(spread, params, constrained=False)
    cost = 0.5 * params.beta * xi**2 + 0.5 * params.eta * (spread - xi) ** 2
    return cost if cost.ndim else float(cost)


def optimal_production_unconstrained(spread, params: ModelParams):
    """Unconstrained optimal production xi(d) = (eta/(eta+beta)) d."""
    if params.pure_trader:
        raise ValueError("pure trader has no production rule")
    xi = params.eta / (params.eta + params.beta) * np.asarray(spread, dtype=float)
    return xi if xi.ndim else float(xi)


def optimal_production_constrained(spread, params: ModelParams):
    """Nonnegative optimal production xi+(d) = (eta/(eta+beta)) d 1_{d >= 0}."""
    xi = optimal_production_unconstrained(spread, params)
    out = np.where(np.asarray(spread, dtype=float) >= 0.0, xi, 0.0)
    return out if out.ndim else float(out)


def cost_after_production(spread, params: ModelParams, constrained: bool = True):
    """Terminal cost after optimal production.

    Unconstrained: (1/2) r(eta, beta) d^2.  Constrained: same for d >= 0,
    but the full imbalance penalty (eta/2) d^2 when d < 0 (no production
    can be sold back).
    """
    spread = np.asarray(spread, dtype=float)
    r = reduced_cost_coefficient(params)
    reduced = 0.5 * r * spread**2
    if not constrained:
        return reduced if reduced.ndim else float(reduced)
    out = np.where(spread >= 0.0, reduced, 0.5 * params.eta * spread**2)
    return out if out.ndim else float(out)


def _as_number(value, key: str) -> float | None:
    if key == "beta" and value is None:
        return None  # pure trader
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"parameter {key!r} must be a number, got {value!r}")
    return float(value)


def _read_block(block, keys, optional, what: str, path) -> dict:
    """Numbers under the required ``keys`` and the present ``optional`` keys
    of a JSON object; ``what`` names the block in the messages."""
    if not isinstance(block, dict):
        raise ValueError(f"{path}: {what} block must be a JSON object")
    unknown = set(block) - {*keys, *optional}
    if unknown:
        raise ValueError(f"{path}: unknown {what} keys {sorted(unknown)}")
    missing = set(keys) - set(block)
    if missing:
        raise ValueError(f"{path}: missing {what} keys {sorted(missing)}")
    return {key: _as_number(block[key], key)
            for key in (*keys, *optional) if key in block}


def load_param_file(path) -> tuple[ModelParams, JumpParams | None, float | None]:
    """Load a flat JSON parameter file.

    Required keys: sigma0, sigma_d, beta, eta, mu, nu, gamma, rho,
    horizon_hours.  Optional: a "jump" block with keys lambda_per_day
    (positive; a model without jumps omits the block), p_plus, delta_plus,
    delta_minus, pi_plus, pi_minus, and a scalar "delay_hours", but not
    both: no command models delayed production under jumps.  ``beta`` may
    be JSON ``null`` (pure trader).  Unknown keys raise ``ValueError``.

    Returns
    -------
    (ModelParams, JumpParams | None, float | None)
        Parameters, optional jump component, optional delay in seconds.
    """
    raw = json.loads(Path(path).read_text())
    jumps = None
    if isinstance(raw, dict) and "jump" in raw:
        block = _read_block(raw.pop("jump"), _JUMP_KEYS, (), "jump", path)
        jumps = JumpParams(lam=block.pop("lambda_per_day") / DAY, **block)
    top = _read_block(raw, _PARAM_KEYS, ("delay_hours",), "parameter", path)
    delay = top.pop("delay_hours", None)
    if delay is not None and jumps is not None:
        raise ValueError(f"{path}: a config holds either a jump block or "
                         "delay_hours, not both")
    params = ModelParams(horizon=top.pop("horizon_hours") * HOUR, **top)
    if delay is not None:
        delay *= HOUR
        if not 0.0 <= delay <= params.horizon:
            raise ValueError(f"{path}: delay_hours must lie in [0, horizon]")
    return params, jumps, delay
