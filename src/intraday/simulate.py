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

A node is its index k, at time k dt, except that the production node is
evaluated and recorded at exactly the production time (a grid node), and
the last node at exactly T.

Randomness comes from a counter-based generator (Philox) keyed by
``(seed, path_id, stream_id)`` with separate streams for W, W_perp, jump
times and jump signs, so results are bit-identical for a fixed seed,
independent of batch size: a path's trajectory depends only on its id.

Paths are simulated in chunks of at most ``_CHUNK``.  A chunk holds its
jump events and one window of ``_WINDOW`` steps of noise, so its working
set does not grow with the number of steps.  The noise increments are
stored time-major, shape (window, n): row j holds step k0 + j of every
path, where k0 is the window's first step, so each Euler step reads a
contiguous row.  At each window's first step, each path's next normals
are drawn into a small path-major block, scaled there to the price and
demand increments ``sigma0 dW`` and ``sigma_d dB``, and copied
transposed into the window.  A path's two normal streams
carry on from window to window, which draws the bits of one call over
the whole horizon.  The jump events are flat arrays sorted by grid node,
one event per (node, path) with jumps, so a step touches only the paths
that jump at its node.  Paths draw their jumps in blocks whose expected
draws add up to at most one per grid step, a block's first 8 draws a
path take one array call each, and its draws, each path's in draw order
and each with its path's column, are merged into events as soon as they
are drawn.  At each window's first step, one ``searchsorted``
finds where the events of the window's nodes start.  The recorded
``PathSet`` arrays stay path-major, shape (n_paths, n_recorded).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import closed_form, model
from .model import JumpParams, MarketState, ModelParams, check_seed

logger = logging.getLogger(__name__)

#: Paths are processed in fixed-size blocks to bound the size of the
#: per-chunk noise arrays.
_CHUNK = 2048

#: Steps of noise a chunk holds at a time.
_WINDOW = 360

#: Paths whose normals are drawn into one path-major block before it is
#: transposed into the time-major window.
_BLOCK = 64

#: Bytes a chunk holds at its largest on any grid: a window of dW and dB,
#: the drawing block, 14 items a path of step-loop arrays (tracemalloc) and
#: two 1 KB streams a path (tracemalloc: 762 to 777 B per ``_stream``).
_CHUNK_BYTES = (2 * _WINDOW * _CHUNK + 2 * _BLOCK * _WINDOW
                + 14 * _CHUNK) * 8 + 2 * _CHUNK * 1024

#: Streams per path in the counter-based RNG keying.
_STREAM_W, _STREAM_W_PERP, _STREAM_JUMP_TIMES, _STREAM_JUMP_SIGNS = range(4)
#: Stream keyed as path 0's on id 4, which no path uses: the equilibrium
#: fuzz of ``verify``.
_STREAM_FUZZ = 4

#: Coarsest grid allowed in the presence of jumps (jump placement error).
MAX_JUMP_DT = 60.0


@dataclass(frozen=True)
class Policy:
    """Feedback trading policy plus a one-shot production decision.

    ``rate_rule(s, x, y, d)`` maps the time and the (vectorised) state to
    a trading rate in MW/s; from the production node on, the inventory
    ``x`` passed in includes the produced quantity.
    ``production_rule(spread, y)`` is invoked exactly once per path, at
    the production time, a grid node.  Either rule may return a float,
    which applies to every path.  The simulation updates the state arrays
    it passes in place after each step, so a rule must neither keep them
    nor return them.
    """

    rate_rule: Callable
    production_time: float
    production_rule: Callable


@dataclass(frozen=True)
class PathSet:
    """Simulated trajectories on (a thinning of) the time grid.

    ``nodes`` holds the recorded grid node indices, the node's identity;
    ``times`` their times, ``k dt`` except at the nodes that stand for a
    named time (the production time and T), which hold that time.
    ``x, y, d, p_hat, q`` have shape (n_paths, n_recorded); ``jump_flag``
    sums signed jumps applied at each recorded node; ``xi`` and
    ``running_cost`` (the left-Riemann trading cost integral, accumulated
    at full resolution) have shape (n_paths,).
    """

    nodes: np.ndarray
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

    Philox copies the key word by word, so a tuple of Python ints serves
    and saves building an array and its numpy scalars.  ``counter=None``
    makes Philox turn the integer 0 into words in Python; a ready array
    of zero words (``_ZERO_COUNTER``) skips that.  On one pinned core, a
    stream cost 3.9 to 7.2 us with an array key and no counter, 2.7 to
    3.0 us with the counter array alone, and 2.2 us with both.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


#: Philox's initial counter, shared by every stream; Philox copies it.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _stream(seed: int, path_id: int, stream_id: int) -> np.random.Generator:
    """The one place where a seed becomes a Philox key."""
    return np.random.Generator(np.random.Philox(
        _PhiloxKey((seed, (path_id << 3) + stream_id)), counter=_ZERO_COUNTER))


def _draw_jumps(seed: int, first: int, jumps: JumpParams, horizon: float,
                width: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact exponential jump times on [0, horizon), their +1/-1 signs and
    their columns (path id less ``first``), of the paths ``first, ...,
    first + width - 1``.

    Each path's first 8 gaps and sign uniforms are drawn into one row of a
    block; the running sums and the in-horizon mask take one call for the
    block, whose in-horizon draws come first, in path order.  A path whose
    8th jump is inside the horizon draws on, the running sum of its gaps in
    doubling batches, and its later draws follow.  Each path's draws are
    thus in draw order, though not contiguous.
    """
    scale = 1.0 / jumps.lam
    streams = [(_stream(seed, pid, _STREAM_JUMP_TIMES),
                _stream(seed, pid, _STREAM_JUMP_SIGNS))
               for pid in range(first, first + width)]
    gaps, uniforms = np.empty((2, width, 8))
    for (gen_t, gen_s), gap_row, uniform_row in zip(streams, gaps, uniforms):
        gen_t.standard_exponential(out=gap_row)
        gen_s.random(out=uniform_row)
    gaps *= scale  # the bits of exponential(scale)
    times = np.cumsum(gaps, axis=1, out=gaps)  # in order along each row
    inside = times < horizon
    parts = [(times[inside], uniforms[inside], np.nonzero(inside)[0])]
    for i in np.flatnonzero(inside[:, -1]).tolist():
        gen_t, gen_s = streams[i]
        path = times[i]
        while path[-1] < horizon:
            more = gen_t.exponential(scale, size=path.size)
            more[0] += path[-1]  # cumsum adds in order: the running sum's bits
            path = np.concatenate((path, np.cumsum(more, out=more)))
        later = path[8:np.searchsorted(path, horizon)]
        parts.append((later, gen_s.random(size=later.size),
                      np.full(later.size, i)))
    times, uniforms, column = map(np.concatenate, zip(*parts))
    return times, np.where(uniforms < jumps.p_plus, 1, -1), column


def _jump_events(paths: PathSet, rows: slice, jumps: JumpParams | None,
                 horizon: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's jumps as events sorted by grid node.

    Returns ``(key, jump_d, jump_y)`` with ``key = node * n + column``: one
    event per (node, path) that has jumps, its demand and price jumps
    summed in draw order.  The signs of the jumps at recorded nodes go
    straight into ``paths.jump_flag``, at columns found by ``searchsorted``
    in ``paths.nodes``.  Each path draws from its own streams.  Paths draw in
    blocks whose expected draws add up to at most one per grid step (the
    whole chunk when its draws do, else at least one path), and each
    block's draws are merged into events as soon as they are drawn.
    """
    if jumps is None:
        return np.empty(0, np.int64), np.empty(0), np.empty(0)
    n, n_steps, dt = rows.stop - rows.start, int(paths.nodes[-1]), paths.dt
    draws = jumps.lam * horizon  # may underflow to 0.0: not divided by
    width = n if n * draws <= n_steps else max(1, int(n_steps // draws))
    flags = paths.jump_flag[rows]
    keys, d_parts, y_parts = [], [], []
    for lo in range(0, n, width):
        times, signs, column = _draw_jumps(paths.seed, rows.start + lo, jumps,
                                           horizon, min(width, n - lo))
        column += lo
        # first grid node at or after the exact jump time
        nodes = np.minimum(np.ceil(times / dt - 1e-12).astype(np.int64),
                           n_steps)
        pos = np.searchsorted(paths.nodes, nodes)
        hit = paths.nodes[pos] == nodes
        np.add.at(flags, (column[hit], pos[hit]), signs[hit])
        # bincount sums each (node, path) from 0.0 in draw order; a pairwise
        # sum would change the bits
        key, slot = np.unique(nodes * n + column, return_inverse=True)
        up = signs > 0
        keys.append(key)
        d_parts.append(np.bincount(slot, np.where(
            up, jumps.delta_plus, jumps.delta_minus), key.size))
        y_parts.append(np.bincount(slot, np.where(
            up, jumps.pi_plus, jumps.pi_minus), key.size))
        # free this block's arrays before the next block draws and the sort
        del times, signs, column, nodes, pos, hit, key, slot, up

    order = np.argsort(np.concatenate(keys))

    def node_major(parts):
        # each block's parts are freed before the sorted copy is made
        merged = np.concatenate(parts)
        parts.clear()
        return merged[order]

    return node_major(keys), node_major(d_parts), node_major(y_parts)


def _named_times(paths: PathSet, policy: Policy, horizon: float) -> dict:
    """Nodes that stand for a named time, with that time; the last node is
    at T also where it is the production node."""
    return {paths.production_index: policy.production_time,
            int(paths.nodes[-1]): horizon}


def _simulate_chunk(paths: PathSet, rows: slice, params: ModelParams,
                    jumps: JumpParams | None, policy: Policy,
                    start: MarketState) -> None:
    """Simulate the paths with ids ``rows`` and write them into ``paths``."""
    n = rows.stop - rows.start
    dt, seed, recorded = paths.dt, paths.seed, paths.nodes
    n_steps = int(recorded[-1])
    named = _named_times(paths, policy, params.horizon)

    # the events first: they peak while being sorted, before the noise exists
    key, jump_d, jump_y = _jump_events(paths, rows, jumps, params.horizon)

    # time-major: row j of dw/db is step k0 + j of every path in the window
    # that starts at step k0, stored as the price and demand increments
    # sigma0 dW and sigma_d dB, with dB = sqrt(1 - rho^2) dW_perp + rho dW
    window = min(_WINDOW, n_steps)
    dw, db = np.empty((2, window, n))
    block = np.empty((2, min(_BLOCK, n), window))

    def normal_streams(column):
        pid = rows.start + column
        return (_stream(seed, pid, _STREAM_W),
                _stream(seed, pid, _STREAM_W_PERP))

    # with one window, each path's streams are made when drawn and dropped:
    # kept for every path, two streams a path would stay alive beside the
    # sorted events (1e4 jumps a day over 2 h: 7.19 units, not 5.47, in
    # TestMemory.test_saturated_jump_events)
    kept = [normal_streams(c) for c in range(n)] if n_steps > window else None

    def draw(steps):
        """The next ``steps`` increments of every path, into the window."""
        for first in range(0, n, _BLOCK):
            width = min(_BLOCK, n - first)
            b0, b1 = block[:, :width, :steps]
            for i in range(width):
                gen_w, gen_p = kept[first + i] if kept else normal_streams(
                    first + i)
                gen_w.standard_normal(out=b0[i])
                gen_p.standard_normal(out=b1[i])
            b0 *= math.sqrt(dt)
            b1 *= math.sqrt(dt)
            b1 *= math.sqrt(1.0 - params.rho**2)
            for r in range(0, width, 8):  # no block-sized temporary
                b1[r:r + 8] += params.rho * b0[r:r + 8]
            b1 *= params.sigma_d
            b0 *= params.sigma0
            # a strided copy: np.multiply with the window as ``out`` buffers
            # its operands, and is slower
            db[:steps, first:first + width] = b1.T
            dw[:steps, first:first + width] = b0.T

    x = np.full(n, start.x)
    # + 0.0 turns a -0.0 start into +0.0; later nodes cannot be -0.0
    y = np.full(n, start.y + 0.0)
    d = np.full(n, start.d + 0.0)
    p_hat = y.copy()
    xi = 0.0  # production quantity, fixed at the production node
    running_cost = np.zeros(n)
    tmp = np.empty(n)
    pos = 0  # next position in ``recorded``
    for k in range(n_steps + 1):
        row = k % window
        if row == 0:  # events of node k + j are key[bounds[j]:bounds[j + 1]]
            bounds = np.searchsorted(
                key, np.arange(k, k + window + 1) * n).tolist()
        lo, hi = bounds[row], bounds[row + 1]
        if lo < hi:  # the jumps that land on node k
            cols = key[lo:hi] - k * n
            d[cols] += jump_d[lo:hi]
            y[cols] += jump_y[lo:hi]
            p_hat[cols] += jump_y[lo:hi]
        if k == paths.production_index:
            xi = policy.production_rule(d - x, y)
        q = policy.rate_rule(named.get(k, k * dt), x + xi, y, d)
        if k == recorded[pos]:
            paths.x[rows, pos] = x
            paths.y[rows, pos] = y
            paths.d[rows, pos] = d
            paths.p_hat[rows, pos] = p_hat
            paths.q[rows, pos] = q
            pos += 1
        if k == n_steps:
            break
        if row == 0:
            draw(min(window, n_steps - k))
        # in place, in the operation order of
        #   running_cost += q * (y + gamma q) dt,  x += q dt,
        #   y = y + nu q dt + dw,  d = d + mu dt + db,  p_hat += dw;
        # + and * commute bit for bit, and q may be a float
        np.multiply(q, params.gamma, out=tmp)
        tmp += y
        tmp *= q
        tmp *= dt
        running_cost += tmp
        np.multiply(q, dt, out=tmp)
        x += tmp
        np.multiply(q, params.nu, out=tmp)
        tmp *= dt
        y += tmp
        y += dw[row]
        d += params.mu * dt
        d += db[row]
        p_hat += dw[row]

    paths.xi[rows] = xi
    paths.running_cost[rows] = running_cost


def _grid_node(time: float, dt: float, name: str) -> int:
    """The grid node at ``time``, refused more than 1e-6 dt off the grid."""
    node = round(time / dt)
    if abs(node * dt - time) > 1e-6 * dt:
        raise ValueError(f"dt must divide the {name}")
    return node


def check_grid(params: ModelParams, jumps: JumpParams | None, n_paths: int,
               dt: float, record_every: Optional[int]) -> int:
    """Validate a simulation grid before anything is computed.

    Rejects a path count that is not a positive integer, a ``dt`` that is not
    finite or does not divide the horizon, a ``dt`` too coarse for the jumps,
    a bad ``record_every``, a run whose recorded arrays and per-record items
    and one chunk's jump events plus the fixed ``_CHUNK_BYTES`` of a chunk,
    or one block of jump draws, exceed physical memory, and more steps than
    int64 event keys index.  Returns the number of Euler steps.
    """
    model.check_integer(n_paths, "n_paths")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if not (math.isfinite(dt) and dt > 0
            and math.isfinite(params.horizon / dt)):
        raise ValueError("dt must be positive and finite, "
                         "and horizon / dt finite")
    n_steps = _grid_node(params.horizon, dt, "horizon")
    if n_steps < 1:
        raise ValueError("dt must divide the horizon")
    if jumps is not None and dt > MAX_JUMP_DT:
        raise ValueError(f"dt > {MAX_JUMP_DT:.0f} s misplaces jump times")

    if record_every is not None:
        model.check_integer(record_every, "record_every")
        if record_every < 1:
            raise ValueError("record_every must be positive or None")
    n_recorded = 1 if record_every is None else -(-n_steps // record_every) + 1
    draws = 0.0 if jumps is None else jumps.lam * params.horizon
    # recorded arrays (x, y, d, p_hat, q, jump_flag) and 5 items per
    # recorded node: the node array, the times and three of headroom; a
    # chunk's jump events, at most one per node and path, which peak at 5
    # items each while being sorted: 8-byte items throughout; then the
    # fixed rest of a chunk
    chunk = min(n_paths, _CHUNK)
    events = math.ceil(min(draws, n_steps + 1))
    needed = ((n_paths * n_recorded * 6 + n_recorded * 5
               + chunk * 5 * events) * 8 + _CHUNK_BYTES)
    model.check_memory(needed, f"{n_paths} paths at dt = {dt:g} s")
    # a block of jump draws peaks at 91 to 95 B a draw while merged
    # (tracemalloc, one path of 1e6 and 1e5 draws): the drawn arrays, and
    # the node and np.unique temporaries.  The widest block holds the
    # chunk's expected draws when they add up to at most one per step,
    # else at most one per step or one path's
    block = min(chunk * draws, max(n_steps, draws))
    model.check_memory(104 * block, f"{draws:.3g} expected jump draws per "
                       f"path (merged {block:.3g} at a time)")
    # the nodes and the event keys node * n + column are int64
    if (n_steps + _WINDOW) * chunk >= 2**63:
        raise ValueError(f"{n_steps:.3g} steps overflow the int64 event keys")
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
        recorded = np.array([n_steps])
    else:
        recorded = np.append(np.arange(0, n_steps, record_every), n_steps)

    if not 0.0 <= policy.production_time <= params.horizon:
        raise ValueError("production time must lie in [0, horizon]")
    production_index = _grid_node(policy.production_time, dt,
                                  "production time")

    shape = (n_paths, recorded.size)
    paths = PathSet(nodes=recorded, times=recorded * dt,
                    x=np.empty(shape), y=np.empty(shape), d=np.empty(shape),
                    p_hat=np.empty(shape), q=np.empty(shape),
                    jump_flag=np.zeros(shape, dtype=np.int64),
                    xi=np.empty(n_paths), running_cost=np.empty(n_paths),
                    production_index=production_index, dt=dt, seed=seed)
    for node, time in _named_times(paths, policy, params.horizon).items():
        paths.times[recorded == node] = time
    chunk, window = min(n_paths, _CHUNK), min(_WINDOW, n_steps)
    logger.debug("%d paths, %d steps, %d chunks, window of %d steps, "
                 "%d noise bytes per chunk, %d RNG streams", n_paths, n_steps,
                 -(-n_paths // _CHUNK), window, 2 * window * chunk * 8,
                 n_paths * (2 if jumps is None else 4))
    for first in range(0, n_paths, _CHUNK):
        rows = slice(first, min(first + _CHUNK, n_paths))
        _simulate_chunk(paths, rows, params, jumps, policy, start)
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
    mask = paths.nodes < paths.production_index
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
    nodes = paths.nodes.tolist()
    if paths.production_index not in nodes:
        raise ValueError("the production decision node is not recorded; "
                         "the CSV would lose xi")
    decision_pos = nodes.index(paths.production_index)
    time_cells = list(map(repr, paths.times.tolist()))
    try:
        with destination.open("w", newline="") as handle:
            handle.write("time_s,path_id,X,Y,D,P_hat,q,jump_flag,xi_at_decision\n")
            for path_id in range(paths.n_paths):
                xi_cells = ["0.0"] * len(nodes)
                xi_cells[decision_pos] = repr(float(paths.xi[path_id]))
                columns = [time_cells, [str(path_id)] * len(nodes)]
                columns += [map(repr, rows[path_id].tolist()) for rows in
                            (paths.x, paths.y, paths.d, paths.p_hat, paths.q)]
                columns += [map(str, paths.jump_flag[path_id].tolist()), xi_cells]
                handle.write("\n".join(map(",".join, zip(*columns))) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write path CSV to {destination}: {exc}") from exc
    return destination
