"""Tests for the Euler Monte Carlo engine: dynamics, determinism, I/O."""

import csv
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from intraday import cli, closed_form, delay, simulate
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

    def test_coarse_dt_with_jumps_rejected(self, sim_params_eta200,
                                           jumps_positive):
        policy = simulate.optimal_policy(sim_params_eta200, jumps_positive)
        with pytest.raises(ValueError, match="misplaces jump times"):
            simulate.sample_paths(sim_params_eta200, jumps_positive, policy,
                                  1, 3600.0, 0)

    @pytest.mark.parametrize("kwargs", [
        dict(n_paths=0), dict(dt=0.0), dict(seed=-1), dict(record_every=0),
        dict(seed=2**64),
    ])
    def test_bad_arguments_rejected(self, sim_params, kwargs):
        policy = simulate.zero_policy(sim_params)
        args = dict(n_paths=1, dt=3600.0, seed=0, record_every=1)
        args.update(kwargs)
        with pytest.raises(ValueError):
            simulate.sample_paths(sim_params, None, policy, args["n_paths"],
                                  args["dt"], args["seed"],
                                  record_every=args["record_every"])


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
        assert np.array_equal(ours.standard_normal(300),
                              ref.standard_normal(300))
        assert np.array_equal(ours.exponential(3.0, 40),
                              ref.exponential(3.0, 40))
        assert np.array_equal(ours.random(40), ref.random(40))

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


class TestMemory:
    def test_chunk_working_set(self, sim_params, jumps_negative):
        """One 1024-path jump chunk holds its time-major dW and dB and the
        three jump arrays, each n x n_steps, plus small per-step arrays:
        a traced peak of at most 5.25 such units (numpy reports its
        buffers to tracemalloc)."""
        policy = simulate.optimal_policy(sim_params, jumps_negative,
                                         constrained=False)
        n, dt = 1024, 60.0
        unit = n * round(sim_params.horizon / dt) * 8
        simulate.sample_paths(sim_params, jumps_negative, policy, 2, dt, 1,
                              d0=5e4, y0=50.0, record_every=None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            simulate.sample_paths(sim_params, jumps_negative, policy, n, dt,
                                  1, d0=5e4, y0=50.0, record_every=None)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * unit


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

    def test_pure_trader_policy_never_produces(self, sim_params):
        policy = simulate.pure_trader_policy(sim_params)
        paths = simulate.sample_paths(sim_params, None, policy, 4, 3600.0, 8,
                                      d0=5e4, y0=50.0)
        assert np.all(paths.xi == 0.0)


class TestCsvExport:
    def test_round_trip_bit_identical(self, sim_params, tmp_path):
        policy = simulate.optimal_policy(sim_params, None, constrained=False)
        paths = simulate.sample_paths(sim_params, None, policy, 3, 3600.0, 10,
                                      d0=5e4, y0=50.0)
        destination = simulate.export_csv(paths, tmp_path / "paths.csv")
        with destination.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 * paths.times.size
        by_path = {}
        for row in rows:
            by_path.setdefault(int(row["path_id"]), []).append(row)
        for path_id, entries in by_path.items():
            x = np.array([float(r["X"]) for r in entries])
            q = np.array([float(r["q"]) for r in entries])
            assert np.array_equal(x, paths.x[path_id])
            assert np.array_equal(q, paths.q[path_id])

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
