"""Tests for the independent ODE / quadrature / Monte Carlo oracle."""

import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest

from intraday import cli, closed_form, error_bounds, oracle, simulate
from intraday.model import (DAY, HOUR, JumpParams, ModelParams,
                            load_param_file, reduced_cost_coefficient)


class TestRk4Integration:
    def test_matches_closed_form(self, sim_params):
        solution = oracle.integrate_jump_riccati(
            sim_params, None, sim_params.horizon, n_steps=2000)
        errors = oracle.compare_with_closed_form(solution, sim_params)
        assert max(errors.values()) <= 1e-6

    def test_jump_system_matches_closed_form(self, sim_params_eta200,
                                             jumps_negative):
        solution = oracle.integrate_jump_riccati(
            sim_params_eta200, jumps_negative, sim_params_eta200.horizon,
            n_steps=2000)
        errors = oracle.compare_with_closed_form(solution, sim_params_eta200,
                                                 jumps_negative)
        assert max(errors.values()) <= 1e-6

    def test_stiff_regime_uses_log_transform(self, table_params):
        solution = oracle.integrate_jump_riccati(
            table_params, None, table_params.horizon, n_steps=4000)
        errors = oracle.compare_with_closed_form(solution, table_params)
        assert max(errors.values()) <= oracle.ODE_RTOL

    @pytest.mark.parametrize("preset", ["sim-nojump", "sim-jump-pos",
                                        "sim-jump-neg", "sim-delay",
                                        "table13"])
    def test_comparison_equals_scalar_loop(self, preset):
        """``verify``'s comparison evaluates the closed forms in one array
        call; its deviations equal those against one scalar closed-form
        call per node, the reference, on every preset."""
        params, jumps, _ = load_param_file(cli.resolve_config(preset, preset))
        sol = oracle.integrate_jump_riccati(params, jumps, params.horizon)
        closed = np.array([
            (c.a, c.b, c.f, c.g, c.h, c.k) for c in (
                closed_form.jump_riccati_coefficients(float(tau), params, jumps)
                for tau in sol.tau)])
        scales = np.maximum(np.abs(closed).max(axis=0), 1e-30)
        errors = np.abs(sol.coeffs - closed).max(axis=0) / scales
        assert oracle.compare_with_closed_form(sol, params, jumps) == dict(
            zip("abfghk", errors.tolist()))

    @pytest.mark.parametrize("pure_trader", [False, True],
                             ids=["beta", "pure-trader"])
    @pytest.mark.parametrize("preset, with_jumps", [
        *((name, with_jumps) for name in ("sim-nojump", "sim-jump-pos",
                                          "sim-jump-neg", "sim-delay")
          for with_jumps in (False, True)),
        ("table13", False), ("table13", True),
    ], ids=lambda v: {False: "no-jumps", True: "jumps"}.get(v, v))
    def test_accuracy_floor(self, preset, with_jumps, pure_trader,
                            jumps_negative):
        """At the 10^4 steps of ``verify``, log-time RK4 meets the closed
        forms to 1e-10 on every preset, stiff or not (worst measured:
        2.4e-11, table13 pure trader with jumps).  Presets without a jump
        block take the negative-dominant jumps in the jump case."""
        params, jumps, _ = load_param_file(cli.resolve_config(preset, preset))
        if pure_trader:
            params = dataclasses.replace(params, beta=None)
        jumps = (jumps or jumps_negative) if with_jumps else None
        sol = oracle.integrate_jump_riccati(params, jumps, params.horizon)
        errors = oracle.compare_with_closed_form(sol, params, jumps)
        assert max(errors.values()) <= 1e-10

    @pytest.mark.parametrize("pure_trader", [False, True],
                             ids=["beta", "pure-trader"])
    @pytest.mark.parametrize("with_jumps", [False, True],
                             ids=["no-jumps", "jumps"])
    @pytest.mark.parametrize("mu", [0.0, 1000.0 / DAY], ids=["mu0", "mu1000"])
    @pytest.mark.parametrize("nu_is_gamma", [False, True],
                             ids=["nu4e-5", "nu=gamma"])
    @pytest.mark.parametrize("gamma", [1.0, 1e-4, 1e-7, 1e-10])
    def test_stiffness_sweep(self, gamma, nu_is_gamma, mu, with_jumps,
                             pure_trader, jumps_negative):
        """1e-10 at 10^4 steps from stiffness 88 to 8.6e16 (pure trader at
        gamma = 1e-10), drift and jumps included: the jump terms of dg and
        dh read the carried u1, u2, which do not cancel to round-off.
        Rebuilt from a, b, f, u1 and u2 err by up to 7e-5 (beta) and 9e-2
        (pure trader) on this grid."""
        params = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60,
                             beta=None if pure_trader else 0.002, eta=200.0,
                             mu=mu, nu=gamma if nu_is_gamma else 4e-5,
                             gamma=gamma, rho=0.8, horizon=24 * HOUR)
        jumps = jumps_negative if with_jumps else None
        sol = oracle.integrate_jump_riccati(params, jumps, params.horizon)
        errors = oracle.compare_with_closed_form(sol, params, jumps)
        assert max(errors.values()) <= 1e-10

    def test_fourth_order_convergence(self, sim_params):
        """Halving the step divides the error by ~2^4 (classical RK4)."""
        def max_error(n):
            sol = oracle.integrate_jump_riccati(sim_params, None,
                                                sim_params.horizon, n)
            return max(oracle.compare_with_closed_form(sol,
                                                       sim_params).values())

        coarse, fine = max_error(400), max_error(800)
        assert coarse / fine == pytest.approx(16.0, rel=0.25)

    def test_blow_up_detected(self):
        """Too few steps on a moderately stiff system must fail loudly
        rather than return garbage."""
        params = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60, beta=0.002,
                             eta=200.0, mu=0.0, nu=4e-5, gamma=0.05, rho=0.8,
                             horizon=24 * HOUR)
        with pytest.raises(RuntimeError, match="blew up"):
            oracle.integrate_jump_riccati(params, None, params.horizon,
                                          n_steps=2)

    @pytest.mark.parametrize("gamma, n_steps, step", [(1e-5, 2, "2/2"),
                                                      (1e-7, 3, "2/3")])
    def test_overflow_is_blow_up(self, gamma, n_steps, step):
        """A stage that overflows a float power reports the same blow-up as
        a step that ends non-finite, not an OverflowError."""
        params = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60, beta=0.002,
                             eta=200.0, mu=0.0, nu=4e-5, gamma=gamma, rho=0.8,
                             horizon=24 * HOUR)
        with pytest.raises(RuntimeError,
                           match=f"blew up at step {step}; reduce"):
            oracle.integrate_jump_riccati(params, None, params.horizon,
                                          n_steps=n_steps)

    def test_no_jump_wrapper_is_bit_identical(self, table_params):
        """integrate_riccati is integrate_jump_riccati without jumps."""
        plain = oracle.integrate_riccati(table_params, table_params.horizon,
                                         500)
        jump = oracle.integrate_jump_riccati(table_params, None,
                                             table_params.horizon, 500)
        assert plain.tau.tobytes() == jump.tau.tobytes()
        assert plain.coeffs.tobytes() == jump.coeffs.tobytes()

    @pytest.mark.parametrize("tau_max", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_tau_max(self, sim_params, tau_max):
        """nan and inf used to pass the sign check and fail as a blow-up
        at step 1, which blames the step size."""
        with pytest.raises(ValueError, match="tau_max must be positive "
                                             "and finite"):
            oracle.integrate_jump_riccati(sim_params, None, tau_max, 100)

    def test_invalid_arguments(self, sim_params):
        with pytest.raises(ValueError):
            oracle.integrate_jump_riccati(sim_params, None, 3600.0, 0)


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64)
                          .tobytes()).hexdigest()


class TestRk4Bits:
    """Golden sha256 of the oracle's coefficients and grid at 10^4 steps.
    The stiff table13 digests were taken from the numpy-array RK4 that the
    Python-float RK4 replaced, the no-jump sim digests from the log-time
    RK4 that replaced linear time for non-stiff systems, and the jump
    digest from the RK4 that carries u1, u2 into the jump terms (its
    error against the closed forms fell from 6.7e-14 to 1.2e-14).  The
    drift and pure-trader digests cover the mu terms and beta = None,
    which no preset reaches.  A change to the oracle's arithmetic must
    edit these digests."""

    def test_no_jump_system(self, sim_params):
        sol = oracle.integrate_jump_riccati(sim_params, None,
                                            sim_params.horizon, 10_000)
        assert _sha256(sol.coeffs) == ("cb9b02a260eda3c13ad88c5b5fa2c56b"
                                       "54798d97ac7463e734d0b11a35fdc0a7")
        assert _sha256(sol.tau) == ("27beecf1ad781655538494ae11d038b8"
                                    "83ea98f668fd16bb625a493c690af48d")

    def test_jump_system(self, sim_params_eta200, jumps_negative):
        sol = oracle.integrate_jump_riccati(sim_params_eta200, jumps_negative,
                                            sim_params_eta200.horizon, 10_000)
        assert _sha256(sol.coeffs) == ("725cf81cc5f261f0a43ac51ab75f7b6a"
                                       "c2f074d77ecb0b31bb6b66eaadc2363f")
        assert _sha256(sol.tau) == ("70eb001e80f1ac820f6c566fee903631"
                                    "e8696514ce67063e571990c013684376")

    def test_log_transformed_system(self, table_params):
        sol = oracle.integrate_jump_riccati(table_params, None,
                                            table_params.horizon, 10_000)
        assert _sha256(sol.coeffs) == ("8608a894ff543695c90498f38a9208a3"
                                       "a979174887516eed6b96f006f27e4cc1")
        assert _sha256(sol.tau) == ("65d00426fd6c0a7d604d6e632f887df4"
                                    "d33ed9c0af73987350be53fb6cf6bcd0")

    def test_drift_jump_system(self, sim_params, jumps_negative):
        params = dataclasses.replace(sim_params, mu=0.3, rho=-0.5)
        sol = oracle.integrate_jump_riccati(params, jumps_negative,
                                            params.horizon, 10_000)
        assert _sha256(sol.coeffs) == ("7d94034b75f7f8d3e5e517b653764492"
                                       "5a80be206b0d981a1cd25e251c8256bd")
        assert _sha256(sol.tau) == ("27beecf1ad781655538494ae11d038b8"
                                    "83ea98f668fd16bb625a493c690af48d")

    def test_pure_trader_jump_system(self, sim_params, jumps_positive):
        params = dataclasses.replace(sim_params, beta=None)
        sol = oracle.integrate_jump_riccati(params, jumps_positive,
                                            params.horizon, 10_000)
        assert _sha256(sol.coeffs) == ("fb169e23403073eac0a54a8ffda12827"
                                       "19bd717bb5340690a8240028c0819cff")
        assert _sha256(sol.tau) == ("c191f43bc0eb03f4e643af8ed994a4bd"
                                    "cda533f4070c70ae62b7aac00e51ff23")


class TestQuadrature:
    def test_zero_tau(self, sim_params):
        assert oracle.variance_spread_quadrature(0.0, sim_params) == 0.0

    def test_positive(self, sim_params):
        assert oracle.variance_spread_quadrature(3600.0, sim_params) > 0.0

    @pytest.mark.parametrize("tau", [60.0, HOUR, None],
                             ids=["60s", "1h", "horizon"])
    @pytest.mark.parametrize("pure_trader", [False, True],
                             ids=["beta", "pure-trader"])
    @pytest.mark.parametrize("preset", ["sim-nojump", "sim-jump-pos",
                                        "sim-jump-neg", "sim-delay",
                                        "table13"])
    def test_matches_40_digit_mpmath(self, preset, pure_trader, tau):
        """The variance integral against mpmath's tanh-sinh at 40 digits,
        split at decades of the boundary-layer width 2 gamma / (r + nu),
        independently of the log-time substitution."""
        params, _, _ = load_param_file(cli.resolve_config(preset, preset))
        if pure_trader:
            params = dataclasses.replace(params, beta=None)
        tau = params.horizon if tau is None else tau
        s0, sd, nu, gamma, rho, r = map(mpmath.mpf, (
            params.sigma0, params.sigma_d, params.nu, params.gamma,
            params.rho, reduced_cost_coefficient(params)))

        def integrand(s):
            lin = nu * s + 2 * gamma
            return (s0**2 * s**2 + sd**2 * lin**2 + 2 * rho * s0 * sd * s * lin
                    ) / ((r + nu) * s + 2 * gamma) ** 2

        with mpmath.workdps(40):
            width = 2 * gamma / (r + nu)
            splits = [width * 10**k for k in range(30) if width * 10**k < tau]
            exact = mpmath.quad(integrand, [0, *splits, tau])
            value = oracle.variance_spread_quadrature(tau, params)
            assert float(abs(value - exact) / exact) <= 1e-14


class TestOptimalityProbe:
    def test_all_profiles_increase_cost(self, sim_params):
        base = simulate.optimal_policy(sim_params, None, constrained=False)
        results = oracle.optimality_probe(sim_params, None, base, 0.25,
                                          n_paths=500, seed=2, dt=360.0,
                                          d0=5e4, y0=50.0,
                                          epsilon_factors=(1.0,))
        assert {r.profile for r in results} == {"constant", "early", "late"}
        for r in results:
            assert r.mean_increase > 0.0

    def test_invalid_scale(self, sim_params):
        base = simulate.optimal_policy(sim_params, None, constrained=False)
        with pytest.raises(ValueError):
            oracle.optimality_probe(sim_params, None, base, 0.0, 10, 0)

    def test_one_path_refused_before_simulating(self, sim_params,
                                                monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("paths were simulated")

        monkeypatch.setattr(simulate, "sample_paths", not_called)
        base = simulate.optimal_policy(sim_params, None, constrained=False)
        with pytest.raises(ValueError, match="at least 2"):
            oracle.optimality_probe(sim_params, None, base, 0.25, 1, 0)


class TestVerificationReport:
    def test_full_report_passes(self, sim_params):
        report = oracle.verification_report(sim_params, None, seed=0,
                                            n_paths=500, dt=60.0)
        assert report["passed"], report
        expected_checks = {"riccati_ode", "variance_quadrature",
                           "forecast_equilibrium", "martingale_drift",
                           "monte_carlo_cost"}
        assert set(report["checks"]) == expected_checks

    def test_report_detects_wrong_coefficients(self, sim_params, monkeypatch):
        """Fault injection: a 1% error in A must fail the ODE check."""
        original = closed_form.riccati_coefficients

        def tampered(tau, params):
            c = original(tau, params)
            return closed_form.CoefficientSet(c.a * 1.01, c.b, c.f, c.g, c.h,
                                              c.k)

        monkeypatch.setattr(closed_form, "riccati_coefficients", tampered)
        solution = oracle.integrate_jump_riccati(
            sim_params, None, sim_params.horizon, n_steps=500)
        errors = oracle.compare_with_closed_form(solution, sim_params)
        assert errors["a"] > 1e-3

    @pytest.mark.parametrize("with_jumps, grid, message", [
        (False, dict(dt=float("nan")), "dt must be positive and finite"),
        (False, dict(dt=7.0), "dt must divide the horizon"),
        (True, dict(dt=3600.0), "misplaces jump times"),
        (False, dict(n_paths=0), "n_paths must be at least 1"),
        (False, dict(n_paths=10**12), "physical memory"),
        (False, dict(n_paths=2.5), "n_paths must be an integer"),
        (False, dict(seed=1.5), "seed must be an integer"),
        (False, dict(seed=True), "seed must be an integer"),
    ])
    def test_bad_grid_rejected_before_the_oracle(self, sim_params,
                                                 jumps_negative, monkeypatch,
                                                 with_jumps, grid, message):
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the grid check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        jumps = jumps_negative if with_jumps else None
        with pytest.raises(ValueError, match=message):
            oracle.verification_report(sim_params, jumps, **grid)

    def test_pure_trader_ignores_the_grid(self):
        """A pure trader is not simulated, so its grid is not checked."""
        pure = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60, beta=None,
                           eta=100.0, mu=0.0, nu=4e-5, gamma=2.22, rho=0.8,
                           horizon=24 * HOUR)
        report = oracle.verification_report(pure, dt=float("nan"), n_paths=0)
        assert set(report["checks"]) == {"riccati_ode", "variance_quadrature"}

    def test_pure_trader_passes(self, sim_params):
        """The variance integrand's boundary layer at tau = 0 is resolved
        for the pure trader too."""
        report = oracle.verification_report(
            dataclasses.replace(sim_params, beta=None))
        assert report["passed"], report

    @pytest.mark.parametrize("pure_trader", [False, True])
    @pytest.mark.parametrize("lam", [None, 1.5 / DAY])
    def test_one_integration_per_distinct_system(self, sim_params, monkeypatch,
                                                 lam, pure_trader):
        """The report integrates the config's own Riccati system once, the
        jump-corrected one when there are jumps, and checks it as
        ``riccati_ode``."""
        calls, integrate = [], oracle.integrate_jump_riccati

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(oracle, "integrate_jump_riccati", counted)
        jumps = None if lam is None else JumpParams(
            lam=lam, p_plus=0.3, delta_plus=1500.0, delta_minus=-1500.0,
            pi_plus=10.0, pi_minus=-10.0)
        params = (dataclasses.replace(sim_params, beta=None) if pure_trader
                  else sim_params)
        report = oracle.verification_report(params, jumps, n_paths=2)
        assert len(calls) == 1
        assert calls[0][:2] == (params, jumps)
        assert report["checks"]["riccati_ode"]["passed"]

    @pytest.mark.parametrize("name, mu", [
        ("a", 0.0), ("b", 0.0), ("f", 0.0), ("k", 0.0),
        ("g", 0.02), ("h", 0.02),  # G = H = 0 at mu + lam delta = 0
    ])
    def test_jump_check_detects_wrong_no_jump_coefficients(
            self, sim_params_eta200, jumps_negative, monkeypatch, name, mu):
        """The jump system's check also covers the no-jump closed form that
        the jump coefficients are built on: a 1 % error in any coefficient
        of the shared core ``_coefficients`` fails ``riccati_ode``.  The
        jumps shift the drift by lam delta = -0.0104 MW/s, so mu = 0.02
        keeps G and H well away from 0."""
        original = closed_form._coefficients

        def tampered(*args):
            c = original(*args)
            return dataclasses.replace(c, **{name: getattr(c, name) * 1.01})

        monkeypatch.setattr(closed_form, "_coefficients", tampered)
        params = dataclasses.replace(sim_params_eta200, mu=mu, beta=None)
        report = oracle.verification_report(params, jumps_negative)
        check = report["checks"]["riccati_ode"]
        assert not check["passed"]
        assert check["per_coefficient"][name] > 1e-4

    def test_rng_keys_are_distinct(self, sim_params, jumps_negative,
                                   monkeypatch):
        """One seed's simulated paths and equilibrium fuzz draw from
        distinct Philox keys, and the jump bound draws none; the paths of
        ``verify`` are those of ``sample_paths``."""
        keys, philox = [], np.random.Philox

        def recorded(seed=None, counter=None, key=None):
            words = seed.key if key is None else key
            keys.append(tuple(int(w) for w in words))
            return philox(seed, counter, key)

        def keys_of(call):
            keys.clear()
            call()
            return list(keys)

        monkeypatch.setattr(np.random, "Philox", recorded)
        bound = keys_of(lambda: error_bounds.error_bound_jump(
            24 * HOUR, 5e4, 50.0, sim_params, jumps_negative, seed=7))
        paths = keys_of(lambda: simulate.sample_paths(
            sim_params, jumps_negative,
            simulate.optimal_policy(sim_params, jumps_negative), 3, 60.0, 7))
        verify = keys_of(lambda: oracle.verification_report(
            sim_params, jumps_negative, seed=7, n_paths=3))
        assert bound == [] and len(paths) == 12
        assert len(verify) == 13  # 4 streams for each of 3 paths, 1 fuzz
        assert set(paths) < set(verify)
        assert len(set(verify)) == len(verify)

    def test_format_report_mentions_status(self, sim_params):
        report = {"passed": True,
                  "checks": {"demo": {"value": 1.0, "passed": True}}}
        text = oracle.format_report(report)
        assert "PASS" in text and "demo" in text
