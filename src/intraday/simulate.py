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

Paths are simulated in chunks of at most ``_CHUNK``.  A chunk holds its
noise and jump events.  The noise increments are stored time-major, shape
(n_steps, n): row k holds step k of every path, so each Euler step reads
contiguous rows.  Each path's normals are drawn into a small path-major
block, scaled there to the price and demand increments ``sigma0 dW`` and
``sigma_d dB``, and transposed into place.  The jump events are flat
arrays sorted by grid node, one event per (node, path) with jumps, so a
step touches only the paths that jump at its node; the jump draws of a
batch of paths are merged into events at once.  The recorded ``PathSet``
arrays stay path-major, shape (n_paths, n_recorded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def contains_expected(self) -> bool:  # within 3 standard errors
        return abs(self.slope - self.expected) <= 3.0 * self.stderr


def optimal_policy(params: ModelParams, jumps: JumpParams | None = None,
                   constrained: bool = True) -> Policy:
    """Optimal feedback policy: rate from the closed form, production at T."""
    if params.pure_trader:  # it has no production rule to apply at T
        raise ValueError("optimal policy requires finite beta; a pure "
                         "trader is not simulated")
    produce = (model.optimal_production_constrained if constrained
               else model.optimal_production_unconstrained)

    def rate_rule(s, x, y, d):
        tau = params.horizon - s
        return closed_form.feedback_rate_jump(tau, d - x, y, params, jumps)

    return Policy(rate_rule=rate_rule, production_time=params.horizon,
                  production_rule=lambda spread, y: produce(spread, params))


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


def _merge_batch(flags: np.ndarray, record_pos: np.ndarray, dt: float,
                 jumps: JumpParams, first: int, times: list, signs: list
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the jump draws of a batch of paths into events.

    ``times`` and ``signs`` hold the draws of the paths in columns
    ``first, first + 1, ...`` of the chunk, and are emptied.  Adds the
    signed counts at recorded nodes to ``flags``, the chunk's rows of
    ``jump_flag``, and returns ``(key, jump_d, jump_y)`` sorted by key.
    """
    n, n_steps = flags.shape[0], record_pos.size - 1
    column = np.repeat(np.arange(first, first + len(times)),
                       [path_times.size for path_times in times])
    sign = np.concatenate(signs)
    # first grid node at or after the exact jump time
    nodes = np.minimum(
        np.ceil(np.concatenate(times) / dt - 1e-12).astype(np.int64), n_steps)
    times.clear()  # the per-path arrays go before the merge peaks
    signs.clear()
    pos = record_pos[nodes]
    hit = pos >= 0
    np.add.at(flags, (column[hit], pos[hit]), sign[hit])
    # add.at sums each (node, path) from 0.0 in draw order; a pairwise sum
    # would change the bits
    key, slot = np.unique(nodes * n + column, return_inverse=True)
    up = sign > 0
    jump_d, jump_y = np.zeros(key.size), np.zeros(key.size)
    np.add.at(jump_d, slot, np.where(up, jumps.delta_plus, jumps.delta_minus))
    np.add.at(jump_y, slot, np.where(up, jumps.pi_plus, jumps.pi_minus))
    return key, jump_d, jump_y


def _jump_events(paths: PathSet, rows: slice, recorded: list[int],
                 jumps: JumpParams | None, horizon: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's jumps as events sorted by grid node.

    Returns ``(key, jump_d, jump_y)`` with ``key = node * n + column``: one
    event per (node, path) that has jumps, its demand and price jumps
    summed in draw order.  The signed jump counts at recorded nodes go
    straight into ``paths.jump_flag``.  Each path draws from its own
    streams, in path order, and the draws are merged per batch of paths:
    a batch is merged once it holds more than ``n_steps`` draws, the most
    events one path can have.
    """
    if jumps is None:
        return np.empty(0, np.int64), np.empty(0), np.empty(0)
    n, n_steps = rows.stop - rows.start, recorded[-1]
    record_pos = np.full(n_steps + 1, -1)
    record_pos[recorded] = np.arange(len(recorded))
    keys, d_parts, y_parts = [], [], []
    times, signs = [], []  # the batch, one array per path
    first, held = 0, 0  # the batch's first column and its draw count
    for i, pid in enumerate(range(rows.start, rows.stop)):
        path_times, path_signs = _draw_jumps(paths.seed, pid, jumps, horizon)
        times.append(path_times)
        signs.append(path_signs)
        held += path_times.size
        if held > n_steps or i == n - 1:
            key, jump_d, jump_y = _merge_batch(
                paths.jump_flag[rows], record_pos, paths.dt, jumps, first,
                times, signs)
            keys.append(key)
            d_parts.append(jump_d)
            y_parts.append(jump_y)
            first, held = i + 1, 0

    order = np.argsort(np.concatenate(keys))

    def node_major(parts):
        # each batch's parts are freed before the sorted copy is made
        merged = np.concatenate(parts)
        parts.clear()
        return merged[order]

    return node_major(keys), node_major(d_parts), node_major(y_parts)


def _simulate_chunk(paths: PathSet, rows: slice, recorded: list[int],
                    params: ModelParams, jumps: JumpParams | None,
                    policy: Policy, start: MarketState) -> None:
    """Simulate the paths with ids ``rows`` and write them into ``paths``."""
    n = rows.stop - rows.start
    dt, seed, n_steps = paths.dt, paths.seed, recorded[-1]

    # the events first: they peak while being sorted, before the noise exists
    key, jump_d, jump_y = _jump_events(paths, rows, recorded, jumps,
                                       params.horizon)
    # events of node k are key[bounds[k]:bounds[k + 1]]
    bounds = np.searchsorted(key, np.arange(n_steps + 2) * n).tolist()

    # time-major: row k of dw/db is step k of every path, stored as the
    # price and demand increments sigma0 dW and sigma_d dB, with
    # dB = sqrt(1 - rho^2) dW_perp + rho dW
    dw, db = noise = np.empty((2, n_steps, n))
    block = np.empty((2, min(_BLOCK, n), n_steps))
    for first in range(0, n, _BLOCK):
        width = min(_BLOCK, n - first)
        b0, b1 = block[:, :width]
        for i in range(width):
            pid = rows.start + first + i
            _stream(seed, pid, _STREAM_W).standard_normal(out=b0[i])
            _stream(seed, pid, _STREAM_W_PERP).standard_normal(out=b1[i])
        b0 *= math.sqrt(dt)
        b1 *= math.sqrt(dt)
        b1 *= math.sqrt(1.0 - params.rho**2)
        b1 += params.rho * b0
        b1 *= params.sigma_d
        b0 *= params.sigma0
        noise[:, :, first:first + width] = block[:, :width].transpose(0, 2, 1)

    x = np.full(n, start.x)
    # + 0.0 turns a -0.0 start into +0.0; later nodes cannot be -0.0
    y = np.full(n, start.y + 0.0)
    d = np.full(n, start.d + 0.0)
    p_hat = y.copy()
    xi = 0.0  # production quantity, fixed at the production node
    running_cost = np.zeros(n)
    pos = 0  # next position in ``recorded``
    for k in range(n_steps + 1):
        lo, hi = bounds[k], bounds[k + 1]
        if lo < hi:  # the jumps that land on node k
            cols = key[lo:hi] - k * n
            d[cols] += jump_d[lo:hi]
            y[cols] += jump_y[lo:hi]
            p_hat[cols] += jump_y[lo:hi]
        if k == paths.production_index:
            xi = policy.production_rule(d - x, y)
        q = policy.rate_rule(k * dt, x + xi, y, d)
        if k == recorded[pos]:
            paths.x[rows, pos] = x
            paths.y[rows, pos] = y
            paths.d[rows, pos] = d
            paths.p_hat[rows, pos] = p_hat
            paths.q[rows, pos] = q
            pos += 1
        if k == n_steps:
            break
        running_cost += q * (y + params.gamma * q) * dt
        x = x + q * dt
        y = y + params.nu * q * dt + dw[k]
        d = d + params.mu * dt + db[k]
        p_hat = p_hat + dw[k]

    paths.xi[rows] = xi
    paths.running_cost[rows] = running_cost


def check_grid(params: ModelParams, jumps: JumpParams | None, n_paths: int,
               dt: float, record_every: Optional[int]) -> int:
    """Validate a simulation grid before anything is computed.

    Rejects a non-positive path count, a ``dt`` that is not finite or does
    not divide the horizon, a ``dt`` too coarse for the jumps, a bad
    ``record_every``, and a run whose recorded arrays plus one chunk's
    noise and jump events, or one batch of jump draws, exceed physical
    memory.  Returns the number of Euler steps.
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
    if jumps is not None and dt > MAX_JUMP_DT:
        raise ValueError(f"dt > {MAX_JUMP_DT:.0f} s misplaces jump times")

    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be positive or None")
    n_recorded = 1 if record_every is None else -(-n_steps // record_every) + 1
    draws = 0.0 if jumps is None else jumps.lam * params.horizon
    # recorded arrays (x, y, d, p_hat, q, jump_flag) plus one chunk's noise
    # (dw, db) and its jump events, at most one per node and path, which
    # peak at 5 items each while being sorted: 8-byte items throughout
    # (tracemalloc: 2.20 noise units at 1.5 jumps a day, 5.50 at 1e4)
    events = math.ceil(min(draws, n_steps + 1))
    needed = (n_paths * n_recorded * 6
              + min(n_paths, _CHUNK) * (2 * n_steps + 5 * events)) * 8
    model.check_memory(needed, f"{n_paths} paths at dt = {dt:g} s")
    # a batch of jump draws holds at most n_steps draws of earlier paths
    # plus one path's; they peak at 98 B each while merged (tracemalloc,
    # one path of 1e5 and 1e6 draws): the per-path arrays, their
    # concatenation, and the node and np.unique temporaries
    batch = n_steps + draws if draws > 0.0 else 0.0
    model.check_memory(104 * batch, f"{draws:.3g} expected jump draws per "
                       f"path (merged {batch:.3g} at a time)")
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
    """Mean realized cost J = trading cost integral + terminal cost.

    Raises ``ValueError`` if the mean, or with two or more paths the
    standard error, is not finite (a state that overflows float64).
    """
    terminal = model.terminal_cost(paths.terminal_spread, paths.xi, params)
    total = paths.running_cost + terminal
    mean = float(total.mean())
    stderr = float(total.std(ddof=1) / math.sqrt(paths.n_paths)) \
        if paths.n_paths > 1 else float("nan")
    if not (math.isfinite(mean)
            and (paths.n_paths == 1 or math.isfinite(stderr))):
        raise ValueError(f"the realized cost is not finite (mean {mean:g}, "
                         f"stderr {stderr:g}): the paths overflow float64")
    return CostEstimate(mean=mean, stderr=stderr, n_paths=paths.n_paths)


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
    if jumps is not None:
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
    arrays bit-identically.  The decision node must be recorded.  Columns
    are converted one path at a time (``tolist`` of its rows, never of the
    whole arrays), and each path is one ``write``.
    """
    destination = Path(destination)
    times, decision = paths.times.tolist(), paths.production_index * paths.dt
    if decision not in times:
        raise ValueError("the production decision node is not recorded; "
                         "the CSV would lose xi")
    decision_pos, time_cells = times.index(decision), list(map(repr, times))
    try:
        with destination.open("w", newline="") as handle:
            handle.write("time_s,path_id,X,Y,D,P_hat,q,jump_flag,xi_at_decision\n")
            for path_id in range(paths.n_paths):
                xi_cells = ["0.0"] * len(times)
                xi_cells[decision_pos] = repr(float(paths.xi[path_id]))
                columns = [time_cells, [str(path_id)] * len(times)]
                columns += [map(repr, rows[path_id].tolist()) for rows in
                            (paths.x, paths.y, paths.d, paths.p_hat, paths.q)]
                columns += [map(str, paths.jump_flag[path_id].tolist()), xi_cells]
                handle.write("\n".join(map(",".join, zip(*columns))) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write path CSV to {destination}: {exc}") from exc
    return destination
