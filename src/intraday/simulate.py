"""Euler Monte Carlo simulation of the controlled market under a policy.

State dynamics on a uniform grid of step ``dt``:

    X_{k+1} = X_k + q_k dt                         (inventory)
    Y_{k+1} = Y_k + nu q_k dt + sigma0 dW_k + dJ^Y (quoted price)
    D_{k+1} = D_k + mu dt + sigma_d dB_k + dJ^D    (demand forecast)
    P_{k+1} = P_k + sigma0 dW_k + dJ^Y             (unaffected price)

with ``B = rho W + sqrt(1 - rho^2) W_perp`` and a compound-Poisson jump
component hitting demand and price simultaneously.  Jumps are drawn at
their exact exponential times and applied at the next grid node; the rate
rule sees the post-jump state from that node onward.

Randomness comes from a counter-based generator (Philox) keyed by
``(seed, path_id, stream_id)`` with separate streams for W, W_perp, jump
times and jump signs, so results are bit-identical for a fixed seed,
independent of batch size: a path's trajectory depends only on its id.

Paths are simulated in chunks of at most ``_CHUNK``.  Inside a chunk the
noise increments and the jump arrays are stored time-major, shape
(n_steps[+1], n): row k holds step k of every path, so each Euler step
reads contiguous rows.  Each path's normals are drawn into a small
path-major block and transposed into place.  The recorded ``PathSet``
arrays stay path-major, shape (n_paths, n_recorded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import closed_form, model
from .model import JumpParams, MarketState, ModelParams, check_seed

#: Paths are processed in fixed-size blocks to bound the size of the
#: per-chunk noise arrays.
_CHUNK = 2048

#: Paths whose normals are drawn into one path-major block before it is
#: transposed into the time-major chunk arrays.
_BLOCK = 64

#: Streams per path in the counter-based RNG keying.
_STREAM_W, _STREAM_W_PERP, _STREAM_JUMP_TIMES, _STREAM_JUMP_SIGNS = range(4)

#: Coarsest grid allowed in the presence of jumps (jump placement error).
MAX_JUMP_DT = 60.0


@dataclass(frozen=True)
class Policy:
    """Feedback trading policy plus a one-shot production decision.

    ``rate_rule(s, x, y, d)`` maps the time and the (vectorised) state to
    a trading rate in MW/s; after the production time the inventory ``x``
    passed in includes the produced quantity.  ``production_rule(spread, y)``
    is invoked exactly once per path at the grid node nearest the
    production time from below.  Either rule may return a float, which
    applies to every path.
    """

    rate_rule: Callable
    production_time: float
    production_rule: Callable


@dataclass(frozen=True)
class PathSet:
    """Simulated trajectories on (a thinning of) the time grid.

    ``x, y, d, p_hat, q`` have shape (n_paths, n_recorded); ``jump_flag``
    counts signed jumps applied at each recorded node; ``xi`` and
    ``running_cost`` (the left-Riemann trading cost integral, accumulated
    at full resolution) have shape (n_paths,).
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    p_hat: np.ndarray
    q: np.ndarray
    jump_flag: np.ndarray
    xi: np.ndarray
    running_cost: np.ndarray
    production_index: int
    dt: float
    seed: int

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def terminal_spread(self) -> np.ndarray:
        return self.d[:, -1] - self.x[:, -1]


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of the cost functional J."""

    mean: float
    stderr: float
    n_paths: int


@dataclass(frozen=True)
class DriftEstimate:
    """Regression slope of the mean trading rate against time."""

    slope: float
    stderr: float
    expected: float

    def contains_expected(self, n_sigma: float = 3.0) -> bool:
        return abs(self.slope - self.expected) <= n_sigma * self.stderr


def optimal_policy(params: ModelParams, jumps: JumpParams | None = None,
                   constrained: bool = True) -> Policy:
    """Optimal feedback policy: rate from the closed form, production at T."""
    if params.pure_trader:  # it has no production rule to apply at T
        raise ValueError("optimal policy requires finite beta; a pure "
                         "trader is not simulated")

    def rate_rule(s, x, y, d):
        tau = params.horizon - s
        return closed_form.feedback_rate_jump(tau, d - x, y, params, jumps)

    if constrained:
        def production_rule(spread, y):
            return model.optimal_production_constrained(spread, params)
    else:
        def production_rule(spread, y):
            return model.optimal_production_unconstrained(spread, params)

    return Policy(rate_rule=rate_rule, production_time=params.horizon,
                  production_rule=production_rule)


def pure_trader_policy(params: ModelParams) -> Policy:
    """Pure-trader policy: no production, rate with r replaced by eta."""
    pure = replace(params, beta=None)

    def rate_rule(s, x, y, d):
        tau = params.horizon - s
        return closed_form.feedback_rate(tau, d - x, y, pure)

    return Policy(rate_rule=rate_rule, production_time=params.horizon,
                  production_rule=lambda spread, y: 0.0)


def zero_policy(params: ModelParams) -> Policy:
    """No trading, no production; useful for analytic cross-checks."""
    return Policy(rate_rule=lambda s, x, y, d: 0.0,
                  production_time=params.horizon,
                  production_rule=lambda spread, y: 0.0)


def perturbed_policy(base: Policy, epsilon: float, profile: Callable) -> Policy:
    """Add a deterministic rate bump ``epsilon * profile(s)`` to a policy."""

    def rate_rule(s, x, y, d):
        return base.rate_rule(s, x, y, d) + epsilon * profile(s)

    return Policy(rate_rule=rate_rule, production_time=base.production_time,
                  production_rule=base.production_rule)


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands a fixed Philox key to the generator.

    ``BitGenerator.__init__`` draws OS entropy for a ``SeedSequence`` even
    when ``Philox(key=...)`` is given, and the key then replaces it.
    Philox takes its key from ``generate_state(2, uint64)`` of this object
    instead, so the generator has the same key, counter and bits as
    ``Philox(key=key)`` at less than half the construction cost.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _stream(seed: int, path_id: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed, (path_id << 3) + stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _draw_jumps(seed: int, path_id: int, jumps: JumpParams,
                horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact exponential jump times on [0, horizon) and +1/-1 signs."""
    gen_t = _stream(seed, path_id, _STREAM_JUMP_TIMES)
    times, t = [], 0.0
    while t < horizon:
        for gap in gen_t.exponential(1.0 / jumps.lam, size=8):
            t += gap
            if t >= horizon:
                break
            times.append(t)
    uniforms = _stream(seed, path_id, _STREAM_JUMP_SIGNS).random(size=len(times))
    return np.array(times), np.where(uniforms < jumps.p_plus, 1, -1)


def _simulate_chunk(paths: PathSet, rows: slice, recorded: list[int],
                    params: ModelParams, jumps: JumpParams | None,
                    policy: Policy, start: MarketState) -> None:
    """Simulate the paths with ids ``rows`` and write them into ``paths``."""
    n = rows.stop - rows.start
    dt, seed, n_steps = paths.dt, paths.seed, recorded[-1]

    # time-major: row k of dw/db is step k of every path; db first holds
    # dW_perp and is turned into B's increments in place
    dw, db = noise = np.empty((2, n_steps, n))
    block = np.empty((2, min(_BLOCK, n), n_steps))
    for first in range(0, n, _BLOCK):
        width = min(_BLOCK, n - first)
        for i in range(width):
            pid = rows.start + first + i
            _stream(seed, pid, _STREAM_W).standard_normal(out=block[0, i])
            _stream(seed, pid, _STREAM_W_PERP).standard_normal(out=block[1, i])
        noise[:, :, first:first + width] = block[:, :width].transpose(0, 2, 1)
    noise *= math.sqrt(dt)
    db *= math.sqrt(1.0 - params.rho**2)
    db += params.rho * dw

    jump_d = np.zeros((n_steps + 1, n))
    jump_y = np.zeros((n_steps + 1, n))
    flags = np.zeros((n_steps + 1, n), dtype=np.int64)
    for i, pid in enumerate(range(rows.start, rows.stop)):
        if jumps is None or jumps.lam == 0.0:
            break
        times, signs = _draw_jumps(seed, pid, jumps, params.horizon)
        # first grid node at or after the exact jump time
        nodes = np.minimum(np.ceil(times / dt - 1e-12).astype(np.int64), n_steps)
        np.add.at(jump_d[:, i], nodes,
                  np.where(signs > 0, jumps.delta_plus, jumps.delta_minus))
        np.add.at(jump_y[:, i], nodes,
                  np.where(signs > 0, jumps.pi_plus, jumps.pi_minus))
        np.add.at(flags[:, i], nodes, signs)

    x = np.full(n, start.x)
    y = start.y + jump_y[0]
    d = start.d + jump_d[0]
    p_hat = y.copy()
    xi = 0.0  # production quantity, fixed at the production node
    running_cost = np.zeros(n)
    pos = 0  # next position in ``recorded``
    for k in range(n_steps + 1):
        if k == paths.production_index:
            xi = policy.production_rule(d - x, y)
        q = policy.rate_rule(k * dt, x + xi, y, d)
        if k == recorded[pos]:
            paths.x[rows, pos] = x
            paths.y[rows, pos] = y
            paths.d[rows, pos] = d
            paths.p_hat[rows, pos] = p_hat
            paths.q[rows, pos] = q
            paths.jump_flag[rows, pos] = flags[k]
            pos += 1
        if k == n_steps:
            break
        running_cost += q * (y + params.gamma * q) * dt
        price_noise = params.sigma0 * dw[k]
        x = x + q * dt
        y = y + params.nu * q * dt + price_noise + jump_y[k + 1]
        d = d + params.mu * dt + params.sigma_d * db[k] + jump_d[k + 1]
        p_hat = p_hat + price_noise + jump_y[k + 1]

    paths.xi[rows] = xi
    paths.running_cost[rows] = running_cost


def check_grid(params: ModelParams, jumps: JumpParams | None, n_paths: int,
               dt: float, record_every: Optional[int]) -> int:
    """Validate a simulation grid before anything is computed.

    Rejects a non-positive path count, a ``dt`` that is not finite or does
    not divide the horizon, a ``dt`` too coarse for the jumps, a bad
    ``record_every``, and a run whose arrays or one path's jump draws
    exceed physical memory.
    Returns the number of Euler steps.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if not (math.isfinite(dt) and dt > 0
            and math.isfinite(params.horizon / dt)):
        raise ValueError("dt must be positive and finite, "
                         "and horizon / dt finite")
    n_steps = round(params.horizon / dt)
    if n_steps < 1 or abs(n_steps * dt - params.horizon) > 1e-6 * dt:
        raise ValueError("dt must divide the horizon")
    if jumps is not None and jumps.lam > 0.0 and dt > MAX_JUMP_DT:
        raise ValueError(f"dt > {MAX_JUMP_DT:.0f} s misplaces jump times")

    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be positive or None")
    n_recorded = 1 if record_every is None else -(-n_steps // record_every) + 1
    # recorded arrays (x, y, d, p_hat, q, jump_flag) plus one chunk's noise
    # and jump arrays (dw, db, jump_d, jump_y, flags), all 8-byte items
    needed = (n_paths * n_recorded * 6
              + min(n_paths, _CHUNK) * (n_steps + 1) * 5) * 8
    model.check_memory(needed, f"{n_paths} paths at dt = {dt:g} s")
    if jumps is not None:
        # one path's jump draws peak at about 57 B each (tracemalloc): the
        # float list and arrays of _draw_jumps, then the scatter temporaries
        draws = jumps.lam * params.horizon
        model.check_memory(64 * draws, f"{draws:.3g} expected jump draws "
                           "per path")
    return n_steps


def sample_paths(params: ModelParams, jumps: JumpParams | None, policy: Policy,
                 n_paths: int, dt: float, seed: int, *,
                 d0: float = 0.0, y0: float = 0.0, x0: float = 0.0,
                 record_every: Optional[int] = 1) -> PathSet:
    """Simulate ``n_paths`` Euler trajectories under a policy.

    Parameters
    ----------
    record_every : int or None
        Record every k-th grid node (the final node is always recorded);
        ``None`` keeps only the terminal node.  The cost integral is
        always accumulated at full resolution.
    """
    check_seed(seed)
    start = MarketState(t=0.0, x=x0, y=y0, d=d0)
    n_steps = check_grid(params, jumps, n_paths, dt, record_every)
    if record_every is None:
        recorded = [n_steps]
    else:
        recorded = [*range(0, n_steps, record_every), n_steps]

    if not 0.0 <= policy.production_time <= params.horizon:
        raise ValueError("production time must lie in [0, horizon]")
    production_index = min(int(math.floor(policy.production_time / dt + 1e-9)),
                           n_steps)

    shape = (n_paths, len(recorded))
    paths = PathSet(times=np.array(recorded) * dt,
                    x=np.empty(shape), y=np.empty(shape), d=np.empty(shape),
                    p_hat=np.empty(shape), q=np.empty(shape),
                    jump_flag=np.zeros(shape, dtype=np.int64),
                    xi=np.empty(n_paths), running_cost=np.empty(n_paths),
                    production_index=production_index, dt=dt, seed=seed)
    for first in range(0, n_paths, _CHUNK):
        rows = slice(first, min(first + _CHUNK, n_paths))
        _simulate_chunk(paths, rows, recorded, params, jumps, policy, start)
    return paths


def estimate_cost(paths: PathSet, params: ModelParams) -> CostEstimate:
    """Mean realized cost J = trading cost integral + terminal cost."""
    terminal = model.terminal_cost(paths.terminal_spread, paths.xi, params)
    total = paths.running_cost + terminal
    stderr = float(total.std(ddof=1) / math.sqrt(paths.n_paths)) \
        if paths.n_paths > 1 else float("nan")
    return CostEstimate(mean=float(total.mean()), stderr=stderr,
                        n_paths=paths.n_paths)


def martingale_diagnostics(paths: PathSet, params: ModelParams,
                           jumps: JumpParams | None = None) -> DriftEstimate:
    """Drift of the optimal trading rate: slope of E[q_s] against s.

    Each path contributes an ordinary least-squares slope of its recorded
    rate series; their average estimates the drift of the mean rate, with
    the standard error taken across paths.  Only nodes strictly before the
    production decision enter (afterwards the rate rule sees the
    production-adjusted inventory).  The theoretical drift is 0 without
    jumps and ``-lam pi / (2 gamma)`` with jumps.
    """
    mask = paths.times < paths.production_index * paths.dt
    times = paths.times[mask]
    if times.size < 3:
        raise ValueError("need at least 3 recorded nodes for a slope")
    centred = times - times.mean()
    denom = float((centred**2).sum())
    slopes = paths.q[:, mask] @ centred / denom
    expected = 0.0
    if jumps is not None and jumps.lam > 0.0:
        expected = -jumps.lam * jumps.pi / (2.0 * params.gamma)
    stderr = float(slopes.std(ddof=1) / math.sqrt(slopes.size)) \
        if slopes.size > 1 else float("nan")
    return DriftEstimate(slope=float(slopes.mean()), stderr=stderr,
                         expected=expected)


def export_csv(paths: PathSet, destination) -> Path:
    """Write trajectories as CSV, one row per (path, recorded node).

    Columns: time_s, path_id, X, Y, D, P_hat, q, jump_flag,
    xi_at_decision (the production quantity on its decision row, else 0).
    Floats are written with ``repr`` so parsing the file reproduces the
    arrays bit-identically.  The decision node must be recorded.
    """
    destination = Path(destination)
    record_pos = {float(t): pos for pos, t in enumerate(paths.times)}
    decision_pos = record_pos.get(paths.production_index * paths.dt)
    if decision_pos is None:
        raise ValueError("the production decision node is not recorded; "
                         "the CSV would lose xi")
    try:
        with destination.open("w", newline="") as handle:
            handle.write("time_s,path_id,X,Y,D,P_hat,q,jump_flag,xi_at_decision\n")
            for path_id in range(paths.n_paths):
                for pos, t in enumerate(paths.times):
                    xi = paths.xi[path_id] if pos == decision_pos else 0.0
                    handle.write(
                        f"{float(t)!r},{path_id},{float(paths.x[path_id, pos])!r},"
                        f"{float(paths.y[path_id, pos])!r},{float(paths.d[path_id, pos])!r},"
                        f"{float(paths.p_hat[path_id, pos])!r},{float(paths.q[path_id, pos])!r},"
                        f"{int(paths.jump_flag[path_id, pos])},{float(xi)!r}\n")
    except OSError as exc:
        raise OSError(f"failed to write path CSV to {destination}: {exc}") from exc
    return destination
