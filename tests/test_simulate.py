"""Tests for the Euler Monte Carlo engine: dynamics, determinism, I/O."""

import csv
import hashlib
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from intraday import cli, closed_form, delay, model, simulate
from intraday.model import DAY, HOUR, JumpParams, ModelParams, load_param_file


def small_params(**overrides):
    base = dict(sigma0=1 / 60, sigma_d=1000 / 60, beta=0.002, eta=100.0,
                mu=0.0, nu=4e-5, gamma=2.22, rho=0.8, horizon=24 * HOUR)
    base.update(overrides)
    return ModelParams(**base)


class TestValidation:
    def test_dt_must_divide_horizon(self, sim_params):
        policy = simulate.zero_policy(sim_params)
        with pytest.raises(ValueError, match="divide"):
            simulate.sample_paths(sim_params, None, policy, 1, 7.0, 0)

    @pytest.mark.parametrize("when", [-1.0, 24 * HOUR + 1.0])
    def test_production_time_outside_horizon_rejected(self, sim_params, when):
        policy = replace(simulate.zero_policy(sim_params),
                         production_time=when)
        with pytest.raises(ValueError, match="production time"):
            simulate.sample_paths(sim_params, None, policy, 1, 60.0, 0)

    def test_coarse_dt_with_jumps_rejected(self, sim_params_eta200,
                                           jumps_positive):
        policy = simulate.optimal_policy(sim_params_eta200, jumps_positive)
        with pytest.raises(ValueError, match="misplaces jump times"):
            simulate.sample_paths(sim_params_eta200, jumps_positive, policy,
                                  1, 3600.0, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(n_paths=0), dict(dt=0.0), dict(seed=-1), dict(record_every=0),
        dict(seed=2**64),
        # a bool or a float is not a count: 2.5 paths, a seed 1.5 keyed as
        # seed 1, or nodes recorded at steps 2.5, 5.0, ... that no step hits
        dict(seed=1.5), dict(seed=True), dict(n_paths=2.5),
        dict(n_paths=True), dict(record_every=2.5), dict(record_every=True),
    ])
    def test_bad_arguments_rejected(self, sim_params, kwargs):
        policy = simulate.zero_policy(sim_params)
        args = dict(n_paths=1, dt=3600.0, seed=0, record_every=1)
        args.update(kwargs)
        with pytest.raises(ValueError):
            simulate.sample_paths(sim_params, None, policy, args["n_paths"],
                                  args["dt"], args["seed"],
                                  record_every=args["record_every"])

    def test_numpy_integers_accepted(self, sim_params):
        """numpy integers are counts and seeds like ints, with the same
        paths."""
        policy = simulate.optimal_policy(sim_params, None)
        ours = simulate.sample_paths(sim_params, None, policy, np.int64(3),
                                     3600.0, np.uint64(5), d0=5e4,
                                     record_every=np.int32(5))
        ref = simulate.sample_paths(sim_params, None, policy, 3, 3600.0, 5,
                                    d0=5e4, record_every=5)
        assert np.array_equal(ours.times, ref.times)
        assert np.array_equal(ours.q, ref.q)
        assert np.array_equal(ours.d, ref.d)


    @pytest.mark.parametrize("state", [dict(d0=math.nan), dict(y0=math.inf),
                                       dict(x0=-math.inf)])
    def test_non_finite_start_state_rejected(self, sim_params, state):
        policy = simulate.zero_policy(sim_params)
        with pytest.raises(ValueError, match="must be finite"):
            simulate.sample_paths(sim_params, None, policy, 1, 3600.0, 0,
                                  **state)


    @pytest.mark.parametrize("kwargs, message", [
        (dict(dt=1e-300), "physical memory"),
        (dict(dt=math.nan), "positive and finite"),
        (dict(dt=math.inf), "positive and finite"),
        (dict(dt=1e-310), "positive and finite"),
        (dict(n_paths=10**400), "physical memory"),
        (dict(n_paths=10**12), "physical memory"),
        (dict(n_paths=10**12, record_every=None), "physical memory"),
        # drawn path by path, 1e12 jumps a day would run out of memory
        (dict(jumps=JumpParams(lam=1e12 / DAY, p_plus=0.3, delta_plus=1500.0,
                               delta_minus=-1500.0, pi_plus=10.0,
                               pi_minus=-10.0)),
         "jump draws per path .* physical memory"),
        # holds nothing per step, but its 8.64e304 steps overflow the keys
        (dict(dt=1e-300, record_every=None), "int64"),
    ])
    def test_oversized_grid_rejected_before_allocating(self, sim_params,
                                                       kwargs, message):
        policy = simulate.zero_policy(sim_params)
        args = dict(n_paths=1, dt=60.0, record_every=1, jumps=None)
        args.update(kwargs)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                simulate.sample_paths(sim_params, args["jumps"], policy,
                                      args["n_paths"], args["dt"], 0,
                                      record_every=args["record_every"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDynamics:
    def test_zero_policy_is_pure_diffusion(self, sim_params):
        """Without trading, X stays 0 and D is an exact random walk, so the
        realized cost matches (eta/2) E[D_T^2] with no Euler bias."""
        policy = simulate.zero_policy(sim_params)
        paths = simulate.sample_paths(sim_params, None, policy, 4000, 1800.0,
                                      3, d0=5e4, y0=50.0, record_every=None)
        assert np.all(paths.x == 0.0)
        assert np.all(paths.xi == 0.0)
        assert np.all(paths.running_cost == 0.0)
        cost = simulate.estimate_cost(paths, sim_params)
        analytic = 0.5 * sim_params.eta * (
            5e4**2 + sim_params.sigma_d**2 * sim_params.horizon)
        assert abs(cost.mean - analytic) <= 4.0 * cost.stderr

    def test_quoted_price_equals_unaffected_without_impact(self):
        """With nu = 0 and no jumps, Y and P_hat coincide exactly."""
        params = small_params(nu=0.0)
        policy = simulate.optimal_policy(params, None, constrained=False)
        paths = simulate.sample_paths(params, None, policy, 8, 1800.0, 1,
                                      d0=5e4, y0=50.0)
        assert np.array_equal(paths.y, paths.p_hat)

    def test_inventory_is_rate_integral(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 3, 3600.0, 9,
                                      d0=5e4, y0=50.0)
        # X_{k+1} - X_k = q_k dt at every recorded step before delivery
        dx = np.diff(paths.x, axis=1)
        assert np.allclose(dx, paths.q[:, :-1] * paths.dt, rtol=1e-12,
                           atol=1e-9)

    def test_running_cost_matches_rates(self, sim_params):
        """Left-Riemann cost rebuilt from recorded rates and prices."""
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 5, 3600.0, 4,
                                      d0=5e4, y0=50.0)
        q, y = paths.q[:, :-1], paths.y[:, :-1]
        rebuilt = ((q * (y + sim_params.gamma * q)) * paths.dt).sum(axis=1)
        assert np.allclose(rebuilt, paths.running_cost, rtol=1e-12)

    def test_jumps_applied_to_both_demand_and_price(self):
        """With negligible diffusion, the terminal state change per path
        decomposes exactly into counted positive and negative jumps."""
        params = small_params(sigma0=1e-9, sigma_d=1e-9)
        jumps = JumpParams(lam=20.0 / DAY, p_plus=0.6, delta_plus=1500.0,
                           delta_minus=-700.0, pi_plus=10.0, pi_minus=-4.0)
        policy = simulate.zero_policy(params)
        paths = simulate.sample_paths(params, jumps, policy, 40, 60.0, 12,
                                      d0=5e4, y0=50.0)
        assert np.abs(paths.jump_flag).sum() > 0  # jumps actually occurred
        delta_d = paths.d[:, -1] - 5e4
        delta_y = paths.y[:, -1] - 50.0
        # solve 1500 a - 700 b = delta_d, 10 a - 4 b = delta_y for the
        # per-path positive / negative jump counts (a, b)
        n_pos = (-4.0 * delta_d + 700.0 * delta_y) / 1000.0
        n_neg = (-10.0 * delta_d + 1500.0 * delta_y) / 1000.0
        assert np.allclose(n_pos, np.round(n_pos), atol=1e-4)
        assert np.allclose(n_neg, np.round(n_neg), atol=1e-4)
        assert np.all(np.round(n_pos) >= 0) and np.all(np.round(n_neg) >= 0)
        net = paths.jump_flag.sum(axis=1)
        assert np.array_equal(np.round(n_pos) - np.round(n_neg), net)

    def test_production_from_decision_state(self, sim_params_eta200):
        """The delayed policy fixes xi from the recorded state at T - h."""
        p = sim_params_eta200
        h = 4 * HOUR
        policy = delay.composite_delay_policy(p, h)
        paths = simulate.sample_paths(p, None, policy, 6, 1800.0, 21,
                                      d0=5e4, y0=50.0)
        idx = paths.production_index
        assert paths.times[idx] == pytest.approx(p.horizon - h)
        spread = paths.d[:, idx] - paths.x[:, idx]
        expected = delay.production_rule_delay(spread, paths.y[:, idx], p, h)
        assert np.allclose(paths.xi, expected, rtol=1e-12)


class TestScalarRules:
    """Rules may return Python floats; the step loop broadcasts them."""

    @staticmethod
    def _arrays(params, jumps, policy):
        paths = simulate.sample_paths(params, jumps, policy, 5, 60.0, 9,
                                      d0=5e4, y0=50.0, record_every=7)
        return [getattr(paths, name).tobytes() for name in
                ("x", "y", "d", "p_hat", "q", "jump_flag", "xi",
                 "running_cost")]

    @pytest.mark.parametrize("rate, xi", [(0.0, 0.0), (0.5, 1000.0)])
    def test_float_rules_match_array_rules(self, sim_params, jumps_negative,
                                           rate, xi):
        as_float = simulate.Policy(rate_rule=lambda s, x, y, d: rate,
                                   production_time=sim_params.horizon,
                                   production_rule=lambda spread, y: xi)
        as_array = simulate.Policy(
            rate_rule=lambda s, x, y, d: np.full_like(x, rate),
            production_time=sim_params.horizon,
            production_rule=lambda spread, y: np.full_like(spread, xi))
        expected = self._arrays(sim_params, jumps_negative, as_array)
        assert self._arrays(sim_params, jumps_negative, as_float) == expected
        if rate == 0.0 and xi == 0.0:
            zero = simulate.zero_policy(sim_params)
            assert self._arrays(sim_params, jumps_negative, zero) == expected


class TestDeterminism:
    def test_same_seed_bit_identical(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        a = simulate.sample_paths(sim_params, None, policy, 16, 3600.0, 5,
                                  d0=5e4, y0=50.0)
        b = simulate.sample_paths(sim_params, None, policy, 16, 3600.0, 5,
                                  d0=5e4, y0=50.0)
        for name in ("x", "y", "d", "p_hat", "q", "xi", "running_cost"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        a = simulate.sample_paths(sim_params, None, policy, 4, 3600.0, 5,
                                  d0=5e4, y0=50.0)
        b = simulate.sample_paths(sim_params, None, policy, 4, 3600.0, 6,
                                  d0=5e4, y0=50.0)
        assert not np.array_equal(a.d, b.d)

    def test_paths_keyed_by_id_not_batch(self, sim_params):
        """Enlarging the batch must not change earlier paths (streams are
        keyed by path id), so small runs are prefixes of large ones."""
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        small = simulate.sample_paths(sim_params, None, policy, 12, 3600.0, 7,
                                      d0=5e4, y0=50.0)
        # 2060 paths spans two scheduling chunks
        large = simulate.sample_paths(sim_params, None, policy, 2060, 3600.0,
                                      7, d0=5e4, y0=50.0)
        assert np.array_equal(small.x, large.x[:12])
        assert np.array_equal(small.q, large.q[:12])
        assert np.array_equal(small.running_cost, large.running_cost[:12])


def assert_same_state(ours, ref):
    """Two bit generators have the same key, counter, buffer, buffer
    position and kept 32-bit word."""
    a, b = ours.state, ref.state
    assert a["bit_generator"] == b["bit_generator"] == "Philox"
    for name in ("key", "counter"):
        assert np.array_equal(a["state"][name], b["state"][name])
        assert a["state"][name].dtype == b["state"][name].dtype
    assert np.array_equal(a["buffer"], b["buffer"])
    for name in ("buffer_pos", "has_uint32", "uinteger"):
        assert a[name] == b[name]


class TestStreamContract:
    """Each path draws from Philox keyed by [seed, (path_id << 3) +
    stream_id].  Re-keying changes every simulated path, so it must
    show up here as an edited test."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("path_id", [0, 2047, 2048, 10**6])
    @pytest.mark.parametrize("stream_id", range(4))
    def test_stream_is_keyed_philox(self, seed, path_id, stream_id):
        key = np.array([seed, (path_id << 3) + stream_id], dtype=np.uint64)
        ours = simulate._stream(seed, path_id, stream_id)
        ref = np.random.Generator(np.random.Philox(key=key))
        assert_same_state(ours.bit_generator, ref.bit_generator)
        assert np.array_equal(ours.standard_normal(300),
                              ref.standard_normal(300))
        assert np.array_equal(ours.exponential(3.0, 40),
                              ref.exponential(3.0, 40))
        assert np.array_equal(ours.random(40), ref.random(40))
        ours.integers(2**32, size=3, dtype=np.uint32)  # a uint32 is kept
        ref.integers(2**32, size=3, dtype=np.uint32)
        assert_same_state(ours.bit_generator, ref.bit_generator)

    def test_shared_counter_stays_zero(self):
        """Every stream starts from the one read-only counter array, which
        drawing leaves at zero."""
        counter = simulate._ZERO_COUNTER
        assert counter.dtype == np.uint64 and counter.shape == (4,)
        assert not counter.flags.writeable
        first, second = simulate._stream(3, 0, 0), simulate._stream(3, 1, 0)
        first.standard_normal(1000)
        second.random(7)
        assert counter.tolist() == [0, 0, 0, 0]
        assert first.bit_generator.state["state"]["counter"].any()
        with pytest.raises(ValueError):
            counter[0] = 1

    @pytest.mark.parametrize("with_jumps, per_path", [(False, 2), (True, 4)])
    def test_logged_streams_are_those_made(self, sim_params, jumps_negative,
                                           caplog, monkeypatch, with_jumps,
                                           per_path):
        made, philox = [], np.random.Philox

        def counted(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        caplog.set_level(logging.DEBUG, logger="intraday.simulate")
        jumps = jumps_negative if with_jumps else None
        simulate.sample_paths(sim_params, jumps,
                              simulate.zero_policy(sim_params), 5, 60.0, 2)
        [record] = caplog.records
        assert record.getMessage().endswith(f", {len(made)} RNG streams")
        assert len(made) == 5 * per_path

    def test_golden_jump_run(self):
        params, jumps, _ = load_param_file(
            cli.resolve_config("sim-jump-neg", "sim-jump-neg"))
        policy = simulate.optimal_policy(params, jumps)
        paths = simulate.sample_paths(params, jumps, policy, 5, 60.0,
                                      cli.DEFAULT_SEED, d0=cli.DEFAULT_D0,
                                      y0=cli.DEFAULT_Y0, record_every=7)
        assert np.abs(paths.jump_flag).sum() > 0
        digest = hashlib.sha256()
        for name in ("x", "y", "d", "p_hat", "q", "jump_flag", "xi",
                     "running_cost"):
            digest.update(getattr(paths, name).tobytes())
        assert digest.hexdigest() == (
            "c6e7d07e3e06d06f4fce55b66713c9a3ef9d48710f8e5a3e02f193e3c1cb7619")


class TestNoiseWindow:
    """A chunk draws its noise a window of ``_WINDOW`` steps at a time; a
    path's streams carry on across windows with the bits of one call."""

    def test_increments_across_window_boundaries(self, sim_params):
        """Zero policy, no jumps, dt = 45 s: 1920 steps, five full windows
        and a last one of 120 steps.  With nothing traded and no drift, Y
        and D are the running sums of sigma0 dW and sigma_d dB."""
        dt, n_steps = 45.0, 1920
        assert n_steps > simulate._WINDOW and n_steps % simulate._WINDOW
        p = sim_params
        paths = simulate.sample_paths(p, None, simulate.zero_policy(p), 3, dt,
                                      11)
        for pid in range(3):
            z = simulate._stream(11, pid, simulate._STREAM_W
                                 ).standard_normal(n_steps)
            z_perp = simulate._stream(11, pid, simulate._STREAM_W_PERP
                                      ).standard_normal(n_steps)
            dw = z * math.sqrt(dt)
            db = (z_perp * math.sqrt(dt) * math.sqrt(1.0 - p.rho**2)
                  + p.rho * dw) * p.sigma_d
            dw *= p.sigma0
            assert paths.y[pid, 1:].tobytes() == np.cumsum(dw).tobytes()
            assert paths.p_hat[pid, 1:].tobytes() == np.cumsum(dw).tobytes()
            assert paths.d[pid, 1:].tobytes() == np.cumsum(db).tobytes()

    @pytest.mark.parametrize("horizon, dt, per_day", [
        (2 * HOUR, 60.0, 20.0), (DAY, 45.0, 400.0)],
        ids=["one-window", "multi-window"])
    def test_windows_with_jumps(self, sim_params, jumps_negative, horizon,
                                dt, per_day):
        """A 2-hour horizon at dt = 60 s is 120 steps, less than a window,
        so no stream is kept.  A day at dt = 45 s is 1920 steps, five full
        windows and a last one of 120 steps, with jumps on the first node
        of some window and on the final node.  Price jumps of +-10 sum
        exactly, so Y is the running sum of the jumps at each node and the
        sigma0 dW after it."""
        params = replace(sim_params, horizon=horizon)
        jumps = replace(jumps_negative, lam=per_day / DAY)
        n_steps = round(horizon / dt)
        paths = simulate.sample_paths(params, jumps,
                                      simulate.zero_policy(params), 8, dt, 5)
        assert np.abs(paths.jump_flag).sum() > 0
        if n_steps > simulate._WINDOW:
            assert paths.jump_flag[:, simulate._WINDOW::simulate._WINDOW].any()
            assert paths.jump_flag[:, -1].any()
        for pid in range(8):
            z = simulate._stream(5, pid, simulate._STREAM_W
                                 ).standard_normal(n_steps)
            dw = (z * math.sqrt(dt) * params.sigma0).tolist()
            y, expected = 0.0, []
            for k, flag in enumerate(paths.jump_flag[pid].tolist()):
                y += 10.0 * flag
                expected.append(y)
                if k < n_steps:
                    y += dw[k]
            assert paths.y[pid].tolist() == expected

    def test_sample_paths_logs_its_working_set(self, sim_params, caplog):
        assert any(isinstance(handler, logging.NullHandler) for handler
                   in logging.getLogger("intraday").handlers)
        caplog.set_level(logging.DEBUG, logger="intraday.simulate")
        policy = simulate.zero_policy(sim_params)
        simulate.sample_paths(sim_params, None, policy, 3, 1800.0, 0)
        simulate.sample_paths(sim_params, None, policy, 2050, 60.0, 0,
                              record_every=None)
        records = [(r.name, r.levelno, r.getMessage())
                   for r in caplog.records]
        assert records == [
            ("intraday.simulate", logging.DEBUG,
             "3 paths, 48 steps, 1 chunks, window of 48 steps, "
             "2304 noise bytes per chunk, 6 RNG streams"),
            ("intraday.simulate", logging.DEBUG,
             "2050 paths, 1440 steps, 2 chunks, window of 360 steps, "
             "11796480 noise bytes per chunk, 4100 RNG streams")]


class TestGoldenPaths:
    """sha256 of all nine ``PathSet`` arrays for runs that stress how jumps
    are applied: several jumps at one node, jumps between recorded nodes,
    and no jumps at all (from a -0.0 start, which node 0 turns into +0.0)."""

    NAMES = ("times", "x", "y", "d", "p_hat", "q", "jump_flag", "xi",
             "running_cost")

    @staticmethod
    def _run(jumps, n_paths, record_every, d0=cli.DEFAULT_D0,
             y0=cli.DEFAULT_Y0, constrained=True):
        params, _, _ = load_param_file(
            cli.resolve_config("sim-jump-neg", "sim-jump-neg"))
        policy = simulate.optimal_policy(params, jumps, constrained)
        return simulate.sample_paths(params, jumps, policy, n_paths, 60.0,
                                     cli.DEFAULT_SEED, d0=d0, y0=y0,
                                     record_every=record_every)

    def _digest(self, paths):
        digest = hashlib.sha256()
        for name in self.NAMES:
            digest.update(getattr(paths, name).tobytes())
        return digest.hexdigest()

    def test_many_jumps_per_node(self, jumps_negative):
        """1e4 jumps a day at dt = 60 s: about 7 per node, summed in draw
        order."""
        paths = self._run(replace(jumps_negative, lam=1e4 / DAY), 3, 1)
        assert np.abs(paths.jump_flag).max() > 1
        assert self._digest(paths) == (
            "4f22daa53a439279f7d280dc8427b23bf6c7c9c1a914ef49ce74962402f309f0")

    def test_jumps_between_recorded_nodes(self, jumps_negative):
        jumps = replace(jumps_negative, lam=20.0 / DAY)
        paths = self._run(jumps, 4, 7)
        nodes = np.concatenate([
            np.ceil(simulate._draw_jumps(cli.DEFAULT_SEED, pid, jumps,
                                         DAY)[0] / 60.0 - 1e-12)
            for pid in range(4)])
        assert np.any(nodes % 7 != 0) and np.any(nodes % 7 == 0)
        assert 0 < np.abs(paths.jump_flag).sum() < nodes.size
        assert self._digest(paths) == (
            "9c8fdf40ce3d0ab35e660e18028185b6d0e77e99d6353938b3b9127ef1968496")

    def test_many_flushes_across_chunks(self, jumps_negative):
        """20 jumps a day over 2100 paths: each chunk merges its jump draws
        in many blocks, and the second chunk starts mid-run.  Digest taken
        from the per-path merge."""
        paths = self._run(replace(jumps_negative, lam=20.0 / DAY), 2100, None)
        assert paths.n_paths > simulate._CHUNK
        assert self._digest(paths) == (
            "3ff4e930f4cdbeafaa6b2ef2dd2c67b0d05f909f3ea79d8d1a1ee8310817ebe4")

    def test_unconstrained_production(self, jumps_negative):
        """The policy that ``verify`` and the mc-cost benchmark run."""
        paths = self._run(jumps_negative, 5, 7, constrained=False)
        assert self._digest(paths) == (
            "240c2e677dc861c8399d4f22133f3e37cf68b47e80c5ea3f73ee335fc838ac72")

    def test_no_jumps(self):
        paths = self._run(None, 3, 7, d0=-0.0, y0=-0.0)
        assert not np.signbit(paths.y[:, 0]).any()
        assert self._digest(paths) == (
            "b75ba431c2539190c74561b46dc66ea0d5656e6b37954ce32b0efa0f4940dc65")


def _running_sum_jumps(seed, path_id, jumps, horizon):
    """Jump times added up one Python float at a time, 8 gaps per draw,
    and their signs: the reference the array draw must reproduce."""
    gen_t = simulate._stream(seed, path_id, simulate._STREAM_JUMP_TIMES)
    times, t = [], 0.0
    while t < horizon:
        for gap in gen_t.exponential(1.0 / jumps.lam, size=8):
            t += gap
            if t >= horizon:
                break
            times.append(t)
    uniforms = simulate._stream(seed, path_id, simulate._STREAM_JUMP_SIGNS
                                ).random(size=len(times))
    return np.array(times), np.where(uniforms < jumps.p_plus, 1, -1)


class TestJumpDraws:
    """``_draw_jumps`` takes the cumulative sum of its stream's gaps in
    array calls, with the bits of a running sum."""

    @staticmethod
    def _assert_same(ours, ref):
        for a, b in zip(ours, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("per_day, n_paths", [
        (1.5, 640), (8.0, 64), (1e4, 20), (1e5, 4)])
    def test_matches_running_sum(self, jumps_negative, per_day, n_paths):
        """All paths in one block; at 8 a day about half of them draw on
        past their first 8 gaps."""
        jumps = replace(jumps_negative, lam=per_day / DAY)
        times, signs, column = simulate._draw_jumps(cli.DEFAULT_SEED, 0, jumps,
                                                    DAY, n_paths)
        for pid in range(n_paths):
            mine = column == pid
            self._assert_same(
                (times[mine], signs[mine]),
                _running_sum_jumps(cli.DEFAULT_SEED, pid, jumps, DAY))

    def test_event_sums_in_draw_order(self, sim_params, jumps_negative):
        """1e4 jumps a day over 2 h at dt = 60 s, 6 paths in one block:
        each (node, path) sum of ``_jump_events`` is a Python sum from 0.0
        of that path's draws in draw order, and some node holds both a
        path's first 8 draws and its later ones.  The jump sizes are not
        integers, so that the sums' bits depend on the order."""
        params = replace(sim_params, horizon=2 * HOUR)
        jumps = replace(jumps_negative, lam=1e4 / DAY, delta_plus=1500.1,
                        delta_minus=-1499.3, pi_plus=10.1, pi_minus=-9.7)
        n, dt = 6, 60.0
        paths = simulate.sample_paths(params, None,
                                      simulate.zero_policy(params), n, dt,
                                      cli.DEFAULT_SEED, record_every=1)
        key, jump_d, jump_y = simulate._jump_events(
            paths, slice(0, n), np.arange(paths.times.size), jumps,
            params.horizon)
        expected, shared = {}, False
        for pid in range(n):
            times, signs = _running_sum_jumps(cli.DEFAULT_SEED, pid, jumps,
                                              params.horizon)
            nodes = np.ceil(times / dt - 1e-12).astype(np.int64).tolist()
            shared |= nodes[7] == nodes[8]
            for node, sign in zip(nodes, signs.tolist()):
                d, y = expected.get(node * n + pid, (0.0, 0.0))
                up = sign > 0
                expected[node * n + pid] = (
                    d + (jumps.delta_plus if up else jumps.delta_minus),
                    y + (jumps.pi_plus if up else jumps.pi_minus))
        assert shared
        assert key.tolist() == sorted(expected)
        assert jump_d.tolist() == [expected[k][0] for k in key.tolist()]
        assert jump_y.tolist() == [expected[k][1] for k in key.tolist()]

    def test_jump_at_the_horizon_is_dropped(self, jumps_negative):
        """A jump time equal to the horizon is outside [0, horizon)."""
        jumps = replace(jumps_negative, lam=20.0 / DAY)
        horizon = float(_running_sum_jumps(7, 3, jumps, DAY)[0][5])
        ours = simulate._draw_jumps(7, 3, jumps, horizon)
        assert ours[0].size == 5 and ours[0][-1] < horizon
        self._assert_same(ours, _running_sum_jumps(7, 3, jumps, horizon))


    @pytest.mark.parametrize("n_paths, hours, per_day, widths", [
        (2048, 24, 1.5, [960, 960, 128]), (500, 2, 1.5, [500]),
        (4, 2, 1e4, [1, 1, 1, 1])], ids=["chunk", "one-block", "saturated"])
    def test_blocks_sized_by_the_grid(self, sim_params, jumps_negative,
                                      monkeypatch, n_paths, hours, per_day,
                                      widths):
        """At dt = 60 s a chunk draws in blocks whose expected draws add up
        to at most one per step: 960 of sim-jump-neg's paths draw 1440 over
        24 h, and 500 paths draw 62.5 over the 120 steps of 2 h.  At 1e4
        jumps a day one path draws 833, more than its 120 steps."""
        drawn, draw = [], simulate._draw_jumps

        def spy(seed, first, jumps, horizon, width=1):
            drawn.append(width)
            return draw(seed, first, jumps, horizon, width)

        monkeypatch.setattr(simulate, "_draw_jumps", spy)
        params = replace(sim_params, horizon=hours * HOUR)
        jumps = replace(jumps_negative, lam=per_day / DAY)
        simulate.sample_paths(params, jumps, simulate.zero_policy(params),
                              n_paths, 60.0, 1, record_every=None)
        assert drawn == widths


class TestMemory:
    @staticmethod
    def _traced_peak(params, jumps, n, dt, record_every=None):
        """Traced peak bytes of one n-path chunk (numpy reports its buffers
        to tracemalloc)."""
        policy = simulate.optimal_policy(params, jumps, constrained=False)
        simulate.sample_paths(params, jumps, policy, 2, dt, 1,
                              d0=5e4, y0=50.0, record_every=record_every)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate.sample_paths(params, jumps, policy, n, dt, 1,
                                  d0=5e4, y0=50.0, record_every=record_every)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @classmethod
    def _chunk_peak(cls, params, jumps, n):
        """Traced peak of one n-path chunk at dt = 60 s, in units of
        n x n_steps 8-byte items."""
        unit = n * round(params.horizon / 60.0) * 8
        return cls._traced_peak(params, jumps, n, 60.0) / unit

    @pytest.mark.parametrize("with_jumps", [True, False],
                             ids=["jumps", "no-jumps"])
    def test_chunk_working_set(self, sim_params, jumps_negative, with_jumps):
        """One 1024-path chunk holds a window of 360 of the 1440 steps of
        its time-major dW and dB (0.50 units), each path's two streams from
        window to window (0.14), the drawing block, whose rho dW term is
        added in 8-row slices so that no block-sized temporary is made, and
        small per-step arrays; 1.5 jumps a day add about 1500 events.
        Measured 0.69 units without jumps and 0.70 with them; whole-horizon
        noise read 2.14 and 2.15."""
        jumps = jumps_negative if with_jumps else None
        assert self._chunk_peak(sim_params, jumps, 1024) <= 0.8

    @pytest.mark.parametrize("with_jumps", [True, False],
                             ids=["jumps", "no-jumps"])
    def test_long_grid_is_bounded_by_the_window(self, sim_params,
                                                jumps_negative, with_jumps):
        """256 paths at dt = 10 s, 8640 steps: the peak is set by the
        window of noise, 2 x 360 x 256 items, not by the horizon.  Measured
        1.62 windows without jumps and 1.70 with them; whole-horizon noise
        would be 24 windows alone (it read 30.5)."""
        jumps = jumps_negative if with_jumps else None
        window = 2 * 360 * 256 * 8
        assert self._traced_peak(sim_params, jumps, 256, 10.0) <= 2 * window

    @pytest.mark.parametrize("with_jumps", [True, False],
                             ids=["jumps", "no-jumps"])
    def test_grid_budget_grows_only_per_node(self, sim_params, jumps_negative,
                                             with_jumps, monkeypatch):
        """From dt = 60 s to dt = 1 s, the budget of a 4096-path run that
        records only the terminal node does not grow: a chunk's noise stays
        one window of 360 steps, its kept streams and jump events do not
        depend on dt, and nothing is held per node."""
        needed = {}
        monkeypatch.setattr(model, "check_memory",
                            lambda size, what: needed.setdefault(what, size))
        jumps = jumps_negative if with_jumps else None
        for dt in (60.0, 1.0):
            simulate.check_grid(sim_params, jumps, 4096, dt, None)
        growth = (needed["4096 paths at dt = 1 s"]
                  - needed["4096 paths at dt = 60 s"])
        assert growth == 0

    @pytest.mark.parametrize("dt, draws", [(60.0, 1440), (0.01, 3072)])
    def test_jump_draw_budget(self, sim_params, jumps_negative, monkeypatch,
                              dt, draws):
        """4096 sim-jump-neg paths: the widest block of a 2048-path chunk
        draws at most one jump per step (1440 at dt = 60 s), and never
        more than the chunk's 3072, however fine the grid."""
        needed = {}
        monkeypatch.setattr(model, "check_memory",
                            lambda size, what: needed.setdefault(what, size))
        simulate.check_grid(sim_params, jumps_negative, 4096, dt, None)
        [budget] = [size for what, size in needed.items()
                    if "jump draws" in what]
        assert budget == 104 * draws

    @pytest.mark.parametrize("hours, with_jumps, n", [
        (2, False, 2048), (2, True, 2048), (6, False, 2048),
        (2, False, 512), (2, False, 1), (2, True, 1), (6, False, 1),
        (6, True, 1), (6, False, 8), (6, True, 8)],
        ids=["2h", "2h-jumps", "6h", "2h-512", "2h-1", "2h-jumps-1", "6h-1",
             "6h-jumps-1", "6h-8", "6h-jumps-8"])
    def test_one_window_runs_are_budgeted(self, sim_params, jumps_negative,
                                          hours, with_jumps, n, monkeypatch):
        """A horizon of one noise window at dt = 60 s: the chunk holds a
        window of the run's length, the block its normals are drawn into
        and 14 items a path of step-loop arrays, and its streams are made
        as each path draws.  ``_CHUNK_BYTES`` holds a full chunk's longest
        window, block and streams.  Measured 0.26, 0.26, 0.75 and 0.07 of
        the budget; 1 path 0.0008 (2 h) and 0.0015 (6 h), 8 paths 0.0076.
        A budget of each run's own window, block and streams read 0.51,
        0.51, 0.75 and 0.53, but 1.85, 1.90, 1.51, 1.52, 1.11 and 1.11 for
        the runs of 1 and 8 paths: Python objects, array headers and the
        window's event bounds, which no term counted, outweigh them."""
        needed = {}
        monkeypatch.setattr(model, "check_memory",
                            lambda size, what: needed.setdefault(what, size))
        params = replace(sim_params, horizon=hours * HOUR)
        jumps = jumps_negative if with_jumps else None
        peak = self._traced_peak(params, jumps, n, 60.0)
        assert peak <= needed[f"{n} paths at dt = 60 s"]

    @pytest.mark.parametrize("with_jumps", [False, True],
                             ids=["no-jumps", "jumps"])
    @pytest.mark.parametrize("n", [1, 8])
    def test_few_path_runs_are_budgeted(self, sim_params, jumps_negative, n,
                                        with_jumps, monkeypatch):
        """24 h at dt = 60 s, four noise windows, 1 and 8 paths: measured
        0.0016 and 0.0083 of the budget.  A budget of each run's own
        window, block and streams read 1.06 for 1 path (1.07 with jumps)
        and 1.13 for 8."""
        needed = {}
        monkeypatch.setattr(model, "check_memory",
                            lambda size, what: needed.setdefault(what, size))
        jumps = jumps_negative if with_jumps else None
        peak = self._traced_peak(sim_params, jumps, n, 60.0)
        assert peak <= needed[f"{n} paths at dt = 60 s"]

    def test_peak_grows_at_most_one_item_per_node(self, sim_params,
                                                  jumps_negative):
        """From dt = 60 s to dt = 10 s, 400 jump paths recording only the
        terminal node: the noise stays one window and the events are
        bounded per window, so the traced peak grows by at most one 8-byte
        item per extra node.  Measured -2.2 B a node; event bounds over the
        whole horizon read 24.4."""
        peaks = [self._traced_peak(sim_params, jumps_negative, 400, dt)
                 for dt in (60.0, 10.0)]
        assert peaks[1] - peaks[0] <= (8640 - 1440) * 8

    @pytest.mark.parametrize("n, with_jumps", [
        pytest.param(1, False, id="1"), pytest.param(8, False, id="8"),
        pytest.param(1, True, id="jumps-1"),
        pytest.param(8, True, id="jumps-8")])
    def test_recorded_nodes_are_budgeted(self, sim_params, jumps_negative, n,
                                         with_jumps, monkeypatch):
        """Every node recorded at dt = 1 s: the run holds the recorded
        arrays and, per recorded node, the node array and the times, with
        or without jumps.  Measured 0.23 and 0.65 of the budget, the same
        with sim-jump-neg's jumps.  Of the budget less ``_CHUNK_BYTES``
        they read 0.73 and 0.95, and with 4 items per record they would
        read 0.80 and 0.96.  About 20 s each: tracemalloc slows the 86 400
        steps."""
        needed = {}
        monkeypatch.setattr(model, "check_memory",
                            lambda size, what: needed.setdefault(what, size))
        jumps = jumps_negative if with_jumps else None
        peak = self._traced_peak(sim_params, jumps, n, 1.0, record_every=1)
        assert peak <= needed[f"{n} paths at dt = 1 s"]

    def test_saturated_jump_events(self, sim_params, jumps_negative):
        """1e4 jumps a day, about 7 per node: merged one path at a time,
        there is an event at almost every (node, path), and sorting them
        peaks at 5 units before dW and dB exist.  Measured 5.46, of which
        the drawing block is 0.25 on this 2-hour horizon.  Keeping every
        raw draw would take tens of units."""
        params = replace(sim_params, horizon=2 * HOUR)
        jumps = replace(jumps_negative, lam=1e4 / DAY)
        assert self._chunk_peak(params, jumps, 512) <= 6.0


class TestRecording:
    def test_thinning_is_a_subsample(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        full = simulate.sample_paths(sim_params, None, policy, 4, 1800.0, 2,
                                     d0=5e4, y0=50.0, record_every=1)
        thin = simulate.sample_paths(sim_params, None, policy, 4, 1800.0, 2,
                                     d0=5e4, y0=50.0, record_every=8)
        keep = np.isin(full.times, thin.times)
        assert np.array_equal(full.x[:, keep], thin.x)
        assert np.array_equal(full.d[:, keep], thin.d)
        # the cost integral is unaffected by thinning
        assert np.array_equal(full.running_cost, thin.running_cost)
        assert np.array_equal(full.xi, thin.xi)

    def test_terminal_only_recording(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 4, 1800.0, 2,
                                      d0=5e4, y0=50.0, record_every=None)
        assert paths.times.shape == (1,)
        assert paths.times[0] == sim_params.horizon

    @pytest.mark.parametrize("steps, past", [(147, True), (161, False)])
    def test_last_node_past_the_horizon(self, sim_params, steps, past):
        """dt = 86 400 / 147 s rounds so that the last node lies 1.5e-11 s
        past T, and 86 400 / 161 s so that it lies as far short of it.  The
        node is recorded at n dt, and its rate is taken at T: the tau = 0
        rate, bit for bit."""
        dt = sim_params.horizon / steps
        assert (steps * dt > sim_params.horizon) is past
        policy = simulate.optimal_policy(sim_params, None)
        paths = simulate.sample_paths(sim_params, None, policy, 3, dt, 2,
                                      d0=5e4, y0=50.0)
        assert paths.times.size == steps + 1
        assert paths.times[-1] == steps * dt != sim_params.horizon
        assert (paths.times[-1] > sim_params.horizon) == past
        assert np.isfinite(paths.q[:, -1]).all()
        at_delivery = closed_form.feedback_rate_jump(
            0.0, paths.d[:, -1] - (paths.x[:, -1] + paths.xi), paths.y[:, -1],
            sim_params, None)
        assert np.array_equal(paths.q[:, -1], at_delivery)

    def test_final_node_always_recorded(self, sim_params):
        policy = simulate.zero_policy(sim_params)
        paths = simulate.sample_paths(sim_params, None, policy, 1, 1800.0, 2,
                                      record_every=7)  # 7 does not divide 48
        assert paths.times[-1] == sim_params.horizon


class TestEstimates:
    def test_estimate_cost_matches_arrays(self, sim_params):
        from intraday.model import terminal_cost
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 50, 3600.0, 8,
                                      d0=5e4, y0=50.0)
        total = paths.running_cost + terminal_cost(paths.terminal_spread,
                                                   paths.xi, sim_params)
        est = simulate.estimate_cost(paths, sim_params)
        assert est.mean == pytest.approx(float(total.mean()), rel=1e-14)
        assert est.stderr == pytest.approx(
            float(total.std(ddof=1)) / math.sqrt(50), rel=1e-12)

    def test_fine_grid_cost_is_finite(self):
        """512 sim-jump-neg paths at dt = 1 s recording only the terminal
        node, the run of CI's "fine grid" step: 86 400 steps end in a
        finite cost."""
        params, jumps, _ = load_param_file(
            cli.resolve_config("sim-jump-neg", None))
        policy = simulate.optimal_policy(params, jumps, constrained=False)
        paths = simulate.sample_paths(params, jumps, policy, 512, 1.0,
                                      cli.DEFAULT_SEED, d0=cli.DEFAULT_D0,
                                      y0=cli.DEFAULT_Y0, record_every=None)
        assert paths.times.size == 1
        assert math.isfinite(simulate.estimate_cost(paths, params).mean)

    def test_non_finite_cost_is_refused(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        with np.errstate(over="ignore", invalid="ignore"):
            paths = simulate.sample_paths(sim_params, None, policy, 2, 3600.0,
                                          8, d0=1e200, y0=50.0)
            with pytest.raises(ValueError, match="not finite"):
                simulate.estimate_cost(paths, sim_params)

    def test_martingale_needs_enough_nodes(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 4, 3600.0, 8,
                                      d0=5e4, y0=50.0, record_every=None)
        with pytest.raises(ValueError):
            simulate.martingale_diagnostics(paths, sim_params)

    def test_drift_estimate_excludes_production_node(self, sim_params):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 64, 1800.0, 8,
                                      d0=5e4, y0=50.0)
        drift = simulate.martingale_diagnostics(paths, sim_params)
        assert drift.expected == 0.0
        assert math.isfinite(drift.slope) and drift.stderr > 0.0

    def test_perturbed_policy_adds_bump(self, sim_params):
        base = simulate.optimal_policy(sim_params, None, constrained=False)
        bumped = simulate.perturbed_policy(base, 0.5, lambda s: 1.0)
        q0 = base.rate_rule(0.0, 0.0, 50.0, 5e4)
        q1 = bumped.rate_rule(0.0, 0.0, 50.0, 5e4)
        assert q1 == pytest.approx(q0 + 0.5, rel=1e-14)


class TestCsvExport:
    @staticmethod
    def _digest(paths, tmp_path):
        destination = simulate.export_csv(paths, tmp_path / "paths.csv")
        return hashlib.sha256(destination.read_bytes()).hexdigest()

    def test_round_trip_bit_identical(self, jumps_negative, tmp_path):
        """Every column of a thinned jump run parses back to the bytes of
        the ``PathSet``, as ``bench/workloads.py::csv_matches`` checks."""
        paths = TestGoldenPaths._run(replace(jumps_negative, lam=20.0 / DAY),
                                     4, 7)
        assert np.abs(paths.jump_flag).sum() > 0
        destination = simulate.export_csv(paths, tmp_path / "paths.csv")
        with destination.open() as handle:
            rows = list(csv.DictReader(handle))
        n_rec = paths.times.size
        assert len(rows) == paths.n_paths * n_rec
        decision = paths.times == paths.production_index * paths.dt
        assert decision.sum() == 1
        for path_id in range(paths.n_paths):
            block = rows[path_id * n_rec:(path_id + 1) * n_rec]

            def column(name, parse=float, dtype=np.float64):
                return np.array([parse(row[name]) for row in block], dtype)

            assert column("time_s").tobytes() == paths.times.tobytes()
            assert (column("path_id", int, np.int64) == path_id).all()
            for name, attr in (("X", "x"), ("Y", "y"), ("D", "d"),
                               ("P_hat", "p_hat"), ("q", "q")):
                assert (column(name).tobytes()
                        == getattr(paths, attr)[path_id].tobytes())
            assert (column("jump_flag", int, paths.jump_flag.dtype).tobytes()
                    == paths.jump_flag[path_id].tobytes())
            assert (column("xi_at_decision").tobytes()
                    == np.where(decision, paths.xi[path_id], 0.0).tobytes())

    def test_golden_thinned_jump_run(self, jumps_negative, tmp_path):
        """record_every=7 does not divide the 1440 steps: the decision node
        at T is recorded only as the final node."""
        paths = TestGoldenPaths._run(replace(jumps_negative, lam=20.0 / DAY),
                                     4, 7)
        assert paths.production_index % 7 != 0
        assert paths.times[-1] == paths.production_index * paths.dt
        assert self._digest(paths, tmp_path) == (
            "923a564db6f65a2046ec6ba42c7fb323f92105d20f59298e9e0a9bddf3b4d72a")

    def test_golden_many_jumps_per_node(self, jumps_negative, tmp_path):
        """The 1e4-jumps-a-day run of ``TestGoldenPaths``: signed jump
        counts of two digits."""
        paths = TestGoldenPaths._run(replace(jumps_negative, lam=1e4 / DAY),
                                     3, 1)
        assert np.abs(paths.jump_flag).max() >= 10
        assert self._digest(paths, tmp_path) == (
            "8ed1a68f2d1875cc0167d7669842c67c2c9621a7b3fc00ffb9cac8f51b501bc1")

    def test_golden_signed_zeros(self, jumps_negative, tmp_path):
        """``zero_policy`` from an all -0.0 start: node 0 writes X as -0.0,
        every later node as 0.0."""
        params, _, _ = load_param_file(
            cli.resolve_config("sim-jump-neg", "sim-jump-neg"))
        paths = simulate.sample_paths(params, jumps_negative,
                                      simulate.zero_policy(params), 3, 60.0,
                                      cli.DEFAULT_SEED, d0=-0.0, y0=-0.0,
                                      x0=-0.0, record_every=7)
        assert np.signbit(paths.x[:, 0]).all()
        assert not np.signbit(paths.x[:, 1:]).any()
        assert self._digest(paths, tmp_path) == (
            "b89c9899de5029ccf07d64974ae9b733def3f07f6e6a8ce61c585b96fcc29944")

    @staticmethod
    def _export_peak(paths, tmp_path):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate.export_csv(paths, tmp_path / "paths.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak

    def test_export_memory_independent_of_path_count(self, jumps_negative,
                                                     tmp_path):
        """The export converts one path's rows at a time, so its traced peak
        does not grow with the path count: measured 0.81 MB at both 10 and
        100 paths of 1441 nodes.  A variant that took ``tolist`` of the whole
        arrays peaked at 2.9 MB and 23.7 MB."""
        small, large = (
            self._export_peak(TestGoldenPaths._run(jumps_negative, n, 1),
                              tmp_path)
            for n in (10, 100))
        assert large <= 1.25 * small

    def test_production_only_on_decision_row(self, sim_params, tmp_path):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 2, 3600.0, 10,
                                      d0=5e4, y0=50.0)
        destination = simulate.export_csv(paths, tmp_path / "paths.csv")
        with destination.open() as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            xi = float(row["xi_at_decision"])
            if float(row["time_s"]) == sim_params.horizon:
                assert xi == paths.xi[int(row["path_id"])]
            else:
                assert xi == 0.0

    def test_unwritable_destination_raises_oserror(self, sim_params, tmp_path):
        policy = simulate.zero_policy(sim_params)
        paths = simulate.sample_paths(sim_params, None, policy, 1, 3600.0, 0)
        with pytest.raises(OSError):
            simulate.export_csv(paths, tmp_path / "missing" / "paths.csv")

    def test_unrecorded_decision_node_is_rejected(self, tmp_path):
        """A thinned record that skips the delay rule's decision node would
        write xi_at_decision = 0 on every row; no file is written."""
        params, _, h = load_param_file(
            cli.resolve_config("sim-delay", "sim-delay"))
        policy = delay.composite_delay_policy(params, h)
        paths = simulate.sample_paths(params, None, policy, 2, 60.0, 3,
                                      d0=5e4, y0=50.0, record_every=7)
        assert paths.production_index % 7 != 0 and paths.xi.all()
        with pytest.raises(ValueError, match="decision node is not recorded"):
            simulate.export_csv(paths, tmp_path / "paths.csv")
        assert not any(tmp_path.iterdir())
