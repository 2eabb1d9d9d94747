"""Unit and property tests for psi, spread moments and error bounds."""

import hashlib
import itertools
import logging
import math
import re
import time
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from intraday import cli, closed_form, delay, error_bounds, oracle
from intraday.model import (
    DAY,
    HOUR,
    JumpParams,
    MarketState,
    ModelParams,
    reduced_cost_coefficient,
)

# Frozen regression values.
PSI_AT_1 = 0.07533978334377078
PSI_TILDE_AT_1 = 0.08331547058768629
BOUND_Y20 = 1262.328858467107          # table params, Y0 = 20
PROB_Y20 = 2.2278478755955398e-05
BOUND_SIM100 = 4.223559222787602e-16   # simulation params, benchmark state


class TestPsi:
    def test_frozen_values(self):
        assert error_bounds.psi(1.0) == pytest.approx(PSI_AT_1, rel=1e-13)
        assert error_bounds.psi_tilde(1.0) == pytest.approx(PSI_TILDE_AT_1,
                                                            rel=1e-13)

    def test_psi_at_zero(self):
        assert error_bounds.psi(0.0) == pytest.approx(0.5, rel=1e-14)
        assert error_bounds.psi_tilde(0.0) == pytest.approx(
            norm.pdf(0.0), rel=1e-14)

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_psi_reflection_identity(self, z):
        """psi(z) + psi(-z) = z^2 + 1 (from Phi(z) + Phi(-z) = 1)."""
        total = error_bounds.psi(z) + error_bounds.psi(-z)
        assert total == pytest.approx(z**2 + 1.0, rel=1e-12)

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_psi_tilde_reflection_identity(self, z):
        """psi_tilde(z) - psi_tilde(-z) = -z."""
        diff = error_bounds.psi_tilde(z) - error_bounds.psi_tilde(-z)
        assert diff == pytest.approx(-z, rel=1e-12, abs=1e-12)

    def test_nonnegative_and_decreasing(self):
        grid = np.linspace(-10.0, 40.0, 400)
        values = error_bounds.psi(grid)
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) <= 0.0)
        tilde = error_bounds.psi_tilde(grid)
        assert np.all(tilde >= 0.0)
        assert np.all(np.diff(tilde) <= 0.0)

    def test_tail_switch_is_continuous(self):
        """Direct evaluation and the asymptotic series agree at the switch."""
        below = error_bounds.psi(25.999999)
        above = error_bounds.psi(26.000001)
        assert above == pytest.approx(below, rel=1e-7)
        below = error_bounds.psi_tilde(25.999999)
        above = error_bounds.psi_tilde(26.000001)
        assert above == pytest.approx(below, rel=1e-7)

    def test_tail_values_positive_far_out(self):
        # psi underflows to 0 in double precision near z ~ 38.6
        assert error_bounds.psi(30.0) > 0.0
        assert error_bounds.psi_tilde(35.0) > 0.0

    @given(st.floats(-5.0, 37.0))
    @settings(max_examples=200, deadline=None)
    def test_log_psi_consistent(self, z):
        p = error_bounds.psi(z)
        if p > 0.0:
            assert error_bounds.log_psi(z) == pytest.approx(math.log(p),
                                                            rel=1e-9)

    def test_log_psi_beyond_underflow(self):
        # usable where psi itself underflows; leading order is
        # log(2 phi(z)/z^3) = -z^2/2 - log(2 pi)/2 + log 2 - 3 log z
        z = 100.0
        lp = error_bounds.log_psi(z)
        assert math.isfinite(lp)
        leading = (-0.5 * z**2 - 0.5 * math.log(2.0 * math.pi)
                   + math.log(2.0) - 3.0 * math.log(z))
        assert lp == pytest.approx(leading, rel=1e-5)

    def test_vectorised(self):
        out = error_bounds.psi(np.array([0.0, 1.0, 30.0]))
        assert out.shape == (3,)

    @pytest.mark.parametrize("name, digests", [
        ("psi", (
            "e1222c1b811c857244d412b58d99e4f70703727be03619373ea8f6bf11a68300",
            "df8f28cba5ff0f9ee294bd20594b4f8e96f85ab3b4153f292730433adf1f3265")),
        ("psi_tilde", (
            "1842d503fb25172d9c6f6f9c75775b889f5f30fa816aa7848b4bd058594f4cb4",
        ) * 2),
        ("log_psi", (
            "4720f332b2c46291a5b4904bba38491d7a675f7eb51eec7418c91dac083a9fb4",
        ) * 2),
    ])
    def test_golden_bits(self, name, digests):
        """sha256 of an array call and of scalar calls on both sides of
        the tail switch and up to z = 1e305.  A scalar keeps numpy's
        scalar arithmetic, which in psi's tail differs from the array
        loops by an ulp at some z, hence two psi digests."""
        z = np.concatenate([np.linspace(-40.0, 60.0, 2001),
                            10.0 ** np.arange(2.0, 308.0, 3.0)])
        f = getattr(error_bounds, name)
        scalars = np.array([f(float(v)) for v in z])
        assert (hashlib.sha256(f(z).tobytes()).hexdigest(),
                hashlib.sha256(scalars.tobytes()).hexdigest()) == digests

    def test_huge_z_is_quiet(self):
        """Each branch is evaluated only on its own side of the switch,
        and the tail's z**3 overflows to inf without a warning."""
        z = np.array([-1e200, 1.0, 30.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = error_bounds.psi(z)
            assert out[0] == math.inf and out[-1] == 0.0
            assert out[1] == error_bounds.psi(1.0)
            assert error_bounds.psi(1e300) == 0.0
            assert error_bounds.psi_tilde(1e300) == 0.0
            assert error_bounds.psi_tilde(z)[-1] == 0.0
            assert error_bounds.log_psi(1e300) == -math.inf
            assert error_bounds.log_psi(z)[-1] == -math.inf


class TestNormalFunctions:
    """Phi(-z) and phi(z) come from ``ndtr`` and an explicit exp, with the
    bits of ``scipy.stats.norm.sf``/``.pdf`` and without calling them."""

    Z = np.concatenate([np.linspace(-40.0, 60.0, 2001),
                        np.random.default_rng(0).uniform(-40.0, 60.0, 4000),
                        np.random.default_rng(1).uniform(26.0, 40.0, 1000),
                        [0.0, -0.0, math.inf, -math.inf, math.nan]])

    def test_arrays_equal_scipy_stats(self):
        np.testing.assert_array_equal(error_bounds._norm_sf(self.Z),
                                      norm.sf(self.Z), strict=True)
        np.testing.assert_array_equal(error_bounds._norm_pdf(self.Z),
                                      norm.pdf(self.Z), strict=True)

    def test_scalars_equal_scipy_stats(self):
        """0-d arrays, numpy floats and Python floats alike: a scalar's
        ``**2`` would miss the array square by an ulp at some z."""
        for v in self.Z[~np.isnan(self.Z)]:
            sf, pdf = norm.sf(np.asarray(v)), norm.pdf(np.asarray(v))
            for z in (np.asarray(v), v, float(v)):
                assert error_bounds._norm_sf(z) == sf, z
                assert error_bounds._norm_pdf(z) == pdf, z

    @pytest.mark.parametrize("y", [20.0, 30.0, 35.0, 40.0, 50.0])
    def test_shortfall_probability_equals_scipy_stats(self, table_params, y):
        rep = error_bounds.error_bound(24 * HOUR, 50_000.0, y, table_params)
        z = rep.moments.mean / math.sqrt(rep.moments.variance)
        assert rep.shortfall_probability == float(norm.sf(z))

    def test_bounds_do_not_call_scipy_stats(self, monkeypatch, tmp_path,
                                            capsys, sim_params_eta200,
                                            jumps_negative):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.stats.norm called")

        monkeypatch.setattr(norm, "sf", refuse)
        monkeypatch.setattr(norm, "pdf", refuse)
        params = sim_params_eta200
        state = MarketState(t=0.0, x=0.0, y=50.0, d=50_000.0)
        error_bounds.error_bound(24 * HOUR, 50_000.0, 30.0, params)
        error_bounds.log_error_bound(24 * HOUR, 50_000.0, 30.0, params)
        error_bounds.psi_tilde(np.array([-1.0, 1.0, 30.0]))
        error_bounds.error_bound_jump(24 * HOUR, 50_000.0, 50.0, params,
                                      jumps_negative)
        delay.error_bound_delay(state, params, 4 * HOUR)
        delay.post_decision_mean_rate(state, params, 4 * HOUR)
        assert cli.main(["tables", "--out", str(tmp_path)]) == 0
        assert cli.main(["errorbound", "--config", "sim-jump-neg"]) == 0
        assert cli.main(["delay"]) == 0
        capsys.readouterr()


class TestSpreadMoments:
    @given(tau=st.floats(0.0, 48 * HOUR), d=st.floats(-1e5, 1e6),
           y=st.floats(-200.0, 1000.0))
    @settings(max_examples=100, deadline=None)
    def test_mean_is_spread_minus_traded_volume(self, sim_params, tau, d, y):
        """m = spread + mu tau - tau q(tau, spread, y)."""
        q = closed_form.feedback_rate(tau, d, y, sim_params)
        expected = d + sim_params.mu * tau - tau * q
        assert error_bounds.mean_spread(tau, d, y, sim_params) == \
            pytest.approx(expected, rel=1e-11, abs=1e-9)

    def test_mean_at_zero_tau(self, sim_params):
        assert error_bounds.mean_spread(0.0, 1234.5, 50.0, sim_params) == \
            pytest.approx(1234.5, rel=1e-15)

    def test_variance_zero_at_zero(self, sim_params):
        assert error_bounds.variance_spread(0.0, sim_params) == 0.0

    def test_variance_increasing(self, sim_params):
        grid = np.linspace(0.0, 24 * HOUR, 50)
        values = [error_bounds.variance_spread(t, sim_params) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_variance_negative_tau_rejected(self, sim_params):
        with pytest.raises(ValueError):
            error_bounds.variance_spread(-1.0, sim_params)

    def test_nan_tau_rejected(self, sim_params):
        """A nan time-to-go is refused, not turned into a nan variance and
        then an overflowing spread in the bound."""
        with pytest.raises(ValueError, match="nonnegative"):
            error_bounds.variance_spread(math.nan, sim_params)
        with pytest.raises(ValueError, match="nonnegative"):
            error_bounds.error_bound(math.nan, 5e4, 50.0, sim_params)

    @pytest.mark.parametrize("tau", [60.0, 3600.0, 24 * HOUR])
    def test_variance_matches_quadrature(self, sim_params, tau):
        closed = error_bounds.variance_spread(tau, sim_params)
        quad = oracle.variance_spread_quadrature(tau, sim_params)
        assert closed == pytest.approx(quad, rel=1e-13)

    def test_variance_matches_quadrature_stiff(self, table_params):
        closed = error_bounds.variance_spread(24 * HOUR, table_params)
        quad = oracle.variance_spread_quadrature(24 * HOUR, table_params)
        assert closed == pytest.approx(quad, rel=1e-13)

    def test_variance_hand_integrable_case(self):
        """With rho=1, nu=0, sigma0 = r k, sigma_d = k the integrand is
        exactly k^2, so V(tau) = k^2 tau."""
        eta, beta = 100.0, 0.002
        r = eta * beta / (eta + beta)
        k = 3.0
        params = ModelParams(sigma0=r * k, sigma_d=k, beta=beta, eta=eta,
                             mu=0.0, nu=0.0, gamma=2.22, rho=1.0,
                             horizon=24 * HOUR)
        for tau in (100.0, 3600.0, 24 * HOUR):
            assert error_bounds.variance_spread(tau, params) == \
                pytest.approx(k**2 * tau, rel=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            error_bounds.SpreadMoments(mean=0.0, variance=-1.0)

    @pytest.mark.parametrize("mean, variance", [
        (math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf),
        (0.0, math.nan)])
    def test_non_finite_moments_rejected(self, mean, variance):
        with pytest.raises(ValueError, match="overflows float64"):
            error_bounds.SpreadMoments(mean=mean, variance=variance)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_bound_rejected(self, bound):
        moments = error_bounds.SpreadMoments(mean=0.0, variance=1.0)
        with pytest.raises(ValueError, match="error bound overflows"):
            error_bounds.ErrorBoundReport(bound, 0.5, moments)


class TestErrorBound:
    def test_frozen_table_row(self, table_params):
        rep = error_bounds.error_bound(24 * HOUR, 50_000.0, 20.0, table_params)
        assert rep.bound == pytest.approx(BOUND_Y20, rel=1e-12)
        assert rep.shortfall_probability == pytest.approx(PROB_Y20, rel=1e-12)
        assert rep.mc_stderr == 0.0

    def test_frozen_simulation_state(self, sim_params):
        rep = error_bounds.error_bound(24 * HOUR, 50_000.0, 50.0, sim_params)
        assert rep.bound == pytest.approx(BOUND_SIM100, rel=1e-9)

    def test_definition(self, sim_params):
        tau, spread, y = 24 * HOUR, 50_000.0, 30.0
        rep = error_bounds.error_bound(tau, spread, y, sim_params)
        r = reduced_cost_coefficient(sim_params)
        m = error_bounds.mean_spread(tau, spread, y, sim_params)
        v = error_bounds.variance_spread(tau, sim_params)
        z = m / math.sqrt(v)
        expected = (sim_params.eta * r / (2.0 * sim_params.beta)
                    * v * error_bounds.psi(z))
        assert rep.bound == pytest.approx(expected, rel=1e-12)
        assert rep.shortfall_probability == pytest.approx(norm.sf(z), rel=1e-12)
        assert rep.moments.mean == pytest.approx(m)
        assert rep.moments.variance == pytest.approx(v)

    def test_pure_trader_rejected(self):
        pure = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60, beta=None,
                           eta=100.0, mu=0.0, nu=4e-5, gamma=2.22, rho=0.8,
                           horizon=24 * HOUR)
        with pytest.raises(ValueError):
            error_bounds.error_bound(3600.0, 1000.0, 50.0, pure)

    def test_log_bound_consistent(self, sim_params):
        for y in (20.0, 35.0, 50.0):
            rep = error_bounds.error_bound(24 * HOUR, 50_000.0, y, sim_params)
            log_rep = error_bounds.log_error_bound(24 * HOUR, 50_000.0, y,
                                                   sim_params)
            assert log_rep == pytest.approx(math.log(rep.bound), rel=1e-9)

    def test_log_bound_beyond_underflow(self, sim_params):
        log_rep = error_bounds.log_error_bound(24 * HOUR, 5e6, 50.0,
                                               sim_params)
        # well below log(min double) ~ -745: bound itself underflows to zero
        assert math.isfinite(log_rep) and log_rep < -1e3

    def test_log_bound_at_delivery(self, sim_params):
        """At tau = 0 the spread is known, V = 0, and the bound is 0."""
        assert error_bounds.log_error_bound(0.0, 5e4, 50.0, sim_params) \
            == -math.inf

    def test_asymptotic_constants_formulas(self, sim_params):
        tau, spread, y = 24 * HOUR, 50_000.0, 50.0
        c1, c2, c3 = error_bounds.asymptotic_rate_constants(tau, spread, y,
                                                            sim_params)
        assert c1 == pytest.approx(-0.5 * (spread / sim_params.sigma_d) ** 2)
        r = reduced_cost_coefficient(sim_params)
        den = (r + sim_params.nu) * tau + 2.0 * sim_params.gamma
        v = error_bounds.variance_spread(tau, sim_params)
        m_inf = (sim_params.nu * tau + 2.0 * sim_params.gamma) / den
        assert c2 == pytest.approx(-0.5 * m_inf**2 / v, rel=1e-12)
        assert c3 == pytest.approx(-0.5 * (tau / den) ** 2 / v, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_asymptotic_constants_need_positive_tau(self, sim_params, tau):
        """V(0) = 0, so the spread and price constants do not exist there."""
        with pytest.raises(ValueError, match="positive"):
            error_bounds.asymptotic_rate_constants(tau, 5e4, 50.0, sim_params)


class TestJumpBound:
    def test_lam_zero_collapse(self, sim_params_eta200):
        rep = error_bounds.error_bound_jump(24 * HOUR, 50_000.0, 50.0,
                                            sim_params_eta200, None)
        plain = error_bounds.error_bound(24 * HOUR, 50_000.0, 50.0,
                                         sim_params_eta200)
        assert rep.bound == plain.bound

    def test_mean_spread_jump_collapse(self, sim_params_eta200):
        assert error_bounds.mean_spread_jump(
            24 * HOUR, 50_000.0, 50.0, sim_params_eta200, None) == \
            error_bounds.mean_spread(24 * HOUR, 50_000.0, 50.0,
                                     sim_params_eta200)

    @pytest.mark.parametrize("p_plus", [0.3, 1.0])
    @pytest.mark.parametrize("beta", [0.002, None], ids=["beta", "pure"])
    @pytest.mark.parametrize("mu", [0.0, 1000.0 / DAY], ids=["mu0", "mu1000"])
    def test_mean_spread_jump_plus_jumps_is_full_mean(self, sim_params_eta200,
                                                      p_plus, beta, mu):
        """m_lambda is the mean terminal spread when no jump occurs.  Adding
        the mean effect of the jumps, lam times the integral over the time
        to go u of (delta (nu u + 2 gamma) + pi u) / ((r + nu) u + 2 gamma),
        taken here by 30-digit quadrature, gives the full mean: m at the
        drift mu + lam delta plus the price drift's lam pi tau^2 / (2 den).
        Measured at most 1.1e-12 apart."""
        p = replace(sim_params_eta200, beta=beta, mu=mu)
        jumps = JumpParams(lam=1.5 / DAY, p_plus=p_plus, delta_plus=1500.0,
                           delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        r = reduced_cost_coefficient(p)
        lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
        nu, gamma = p.nu, p.gamma
        for tau, spread, y in itertools.product((HOUR, 24 * HOUR),
                                                (-2e4, 5e4), (-50.0, 150.0)):
            den = (r + nu) * tau + 2.0 * gamma
            full = (error_bounds.mean_spread(
                tau, spread, y, replace(p, mu=mu + lam * delta))
                + lam * pi * tau**2 / (2.0 * den))
            with mpmath.workdps(30):
                jump_mean = lam * mpmath.quad(
                    lambda u: (delta * (nu * u + 2 * gamma) + pi * u)
                    / ((r + nu) * u + 2 * gamma),
                    [0, 2 * gamma / (r + nu), tau])
            no_jump = error_bounds.mean_spread_jump(tau, spread, y, p, jumps)
            assert no_jump + float(jump_mean) == pytest.approx(full,
                                                               rel=1e-11)

    def test_positive_only_jumps_closed_form(self, sim_params_eta200):
        """With p- = 0 there is no Monte Carlo average (stderr 0)."""
        jumps = JumpParams(lam=1.5 / DAY, p_plus=1.0, delta_plus=1500.0,
                           delta_minus=0.0, pi_plus=10.0, pi_minus=0.0)
        rep = error_bounds.error_bound_jump(24 * HOUR, 50_000.0, 50.0,
                                            sim_params_eta200, jumps)
        assert rep.mc_stderr == 0.0
        m_l = error_bounds.mean_spread_jump(24 * HOUR, 50_000.0, 50.0,
                                            sim_params_eta200, jumps)
        v = error_bounds.variance_spread(24 * HOUR, sim_params_eta200)
        r = reduced_cost_coefficient(sim_params_eta200)
        expected = (sim_params_eta200.eta * r / (2.0 * sim_params_eta200.beta)
                    * v * error_bounds.psi(m_l / math.sqrt(v)))
        assert rep.bound == pytest.approx(expected, rel=1e-12)

    def test_negative_jumps_deterministic_and_larger(self, sim_params_eta200,
                                                     jumps_negative):
        rep1 = error_bounds.error_bound_jump(
            24 * HOUR, 50_000.0, 50.0, sim_params_eta200, jumps_negative,
            seed=11)
        rep2 = error_bounds.error_bound_jump(
            24 * HOUR, 50_000.0, 50.0, sim_params_eta200, jumps_negative,
            seed=12)
        assert rep1 == rep2  # the seed is not read
        assert rep1.mc_stderr == 0.0
        plain = error_bounds.error_bound(24 * HOUR, 50_000.0, 50.0,
                                         sim_params_eta200)
        # negative jumps can only worsen the shortfall risk
        assert rep1.bound > plain.bound

    @pytest.mark.parametrize("spread, y, message", [
        (50_000.0, 1e308, "terminal spread overflows"),
        (-1e200, 50.0, "error bound overflows"),
    ])
    def test_overflow_rejected(self, sim_params_eta200, jumps_negative,
                               spread, y, message):
        """A non-finite mean or bound is refused by the report types, for
        every bound that builds one, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bound in (
                    lambda: error_bounds.error_bound(
                        24 * HOUR, spread, y, sim_params_eta200),
                    lambda: error_bounds.error_bound_jump(
                        24 * HOUR, spread, y, sim_params_eta200,
                        jumps_negative),
                    lambda: delay.error_bound_delay(
                        MarketState(t=0.0, x=0.0, y=y, d=spread),
                        sim_params_eta200, 4 * HOUR)):
                with pytest.raises(ValueError, match=message):
                    bound()

    def test_tail_state_against_stratified_reference(self, sim_params_eta200,
                                                     jumps_negative):
        """The bound at a tail state of sim-jump-neg, against a reference
        that weights each count n of negative jumps by its exact Poisson
        probability and averages psi over draws of n jump times."""
        p, j = sim_params_eta200, jumps_negative
        tau, spread, y = 24 * HOUR, 20_000.0, 150.0
        rep = error_bounds.error_bound_jump(tau, spread, y, p, j,
                                            seed=cli.DEFAULT_SEED)
        r = reduced_cost_coefficient(p)
        m = error_bounds.mean_spread_jump(tau, spread, y, p, j)
        v = error_bounds.variance_spread(tau, p)
        scale = p.eta * r / (2.0 * p.beta) * v
        rate = j.lam * j.p_minus * tau
        rng = np.random.Generator(np.random.Philox(key=1))
        reference = variance = 0.0
        for n in range(60):
            to_go = rng.uniform(0.0, tau, size=(2000, n))
            terms = ((j.delta_minus * (p.nu * to_go + 2.0 * p.gamma)
                      + j.pi_minus * to_go)
                     / ((r + p.nu) * to_go + 2.0 * p.gamma))
            values = scale * error_bounds.psi(
                (m + terms.sum(axis=1)) / math.sqrt(v))
            weight = math.exp(n * math.log(rate) - rate - math.lgamma(n + 1))
            reference += weight * values.mean()
            variance += weight**2 * values.var(ddof=1) / values.size
        assert abs(rep.bound - reference) <= 4.0 * math.sqrt(
            rep.mc_stderr**2 + variance)

    def test_1e9_jumps_a_day_is_finite_and_quick(self, sim_params_eta200,
                                                 jumps_negative):
        """The bound draws nothing, so its cost does not grow with the jump
        rate: 1e9 jumps a day give a finite bound, without a warning, in at
        most 3 times the time of 1.5 a day (best of 5 calls each)."""
        def best_time(jumps):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                rep = error_bounds.error_bound_jump(
                    24 * HOUR, 50_000.0, 50.0, sim_params_eta200, jumps)
                times.append(time.perf_counter() - start)
            return min(times), rep

        frequent = replace(jumps_negative, lam=1e9 / DAY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slow, rep = best_time(frequent)
        fast, _ = best_time(jumps_negative)
        assert math.isfinite(rep.bound) and rep.bound > 0.0
        assert rep.shortfall_probability == 1.0
        assert slow <= 3.0 * fast, (slow, fast)

    def test_narrow_diffusion_against_large_jumps_is_refused(
            self, table_params, jumps_negative):
        """1 ms before delivery at table13's parameters the diffusion's sd
        is 0.26 MW against jumps of 5000 MW, and the contour integral would
        need more than 2**17 frequencies: refused, not left running."""
        tau = 1e-3
        y = _y_at(3.0, tau, 50_000.0, table_params, jumps_negative)
        with pytest.raises(ValueError, match="needs more than 131072 "
                                             "frequencies"):
            error_bounds.error_bound_jump(tau, 50_000.0, y, table_params,
                                          jumps_negative)


def _y_at(z, tau, spread, params, jumps):
    """The price y at which m_lambda / sqrt(V) = z; m_lambda is affine in y."""
    m0 = error_bounds.mean_spread_jump(tau, spread, 0.0, params, jumps)
    m1 = error_bounds.mean_spread_jump(tau, spread, 1.0, params, jumps)
    v = error_bounds.variance_spread(tau, params)
    return (z * math.sqrt(v) - m0) / (m1 - m0)


def _psi_mp(z):
    return ((z**2 + 1) * mpmath.erfc(z / mpmath.sqrt(2)) / 2
            - z * mpmath.npdf(z))


def _few_jumps_reference(tau, spread, y, params, jumps, n_max):
    """E[psi((m + S) / sqrt(V))] and P(m + S + sqrt(V) Z < 0) over at most
    ``n_max`` (1 or 2) negative jumps, by 30-digit ``mpmath.quad``
    (Gauss–Legendre: the integrands are entire in u), each with a bound on
    the jumps beyond ``n_max``.

    At time to go t a jump moves the spread by J(t), and with
    (r + nu) t + 2 gamma = 2 gamma e^u this is J_inf + (delta- - J_inf) e^-u,
    J_inf = (delta- nu + pi-) / (r + nu), with t uniform: u has density
    scale e^u / tau.  psi and Phi(-z) decrease and J >= min(delta-, J_inf),
    so n jumps add at most psi((m + n min J) / sqrt(V)).
    """
    r = reduced_cost_coefficient(params)
    m = error_bounds.mean_spread_jump(tau, spread, y, params, jumps)
    v = error_bounds.variance_spread(tau, params)
    with mpmath.workdps(30):
        nu, gamma, rr = map(mpmath.mpf, (params.nu, params.gamma, r))
        d_minus, pi_minus = map(mpmath.mpf,
                                (jumps.delta_minus, jumps.pi_minus))
        m, sqrt_v, tau = mpmath.mpf(m), mpmath.sqrt(v), mpmath.mpf(tau)
        scale = 2 * gamma / (rr + nu)
        j_inf = (d_minus * nu + pi_minus) / (rr + nu)
        u_max = mpmath.log1p(tau / scale)
        rate = jumps.lam * jumps.p_minus * tau

        def size(u):
            return j_inf + (d_minus - j_inf) * mpmath.exp(-u)

        def expect(f, n):
            if n == 0:
                return f(m / sqrt_v)
            if n == 1:
                return scale / tau * mpmath.quad(
                    lambda u: f((m + size(u)) / sqrt_v) * mpmath.exp(u),
                    [0, u_max], method="gauss-legendre")
            return (scale / tau) ** 2 * mpmath.quad(
                lambda u1, u2: f((m + size(u1) + size(u2)) / sqrt_v)
                * mpmath.exp(u1 + u2), [0, u_max], [0, u_max],
                method="gauss-legendre")

        def poisson(n):
            return mpmath.exp(-rate) * rate**n / mpmath.factorial(n)

        sf = lambda z: mpmath.ncdf(-z)  # noqa: E731
        smallest = min(d_minus, j_inf)
        out = []
        for f in (_psi_mp, sf):
            value = sum(poisson(n) * expect(f, n) for n in range(n_max + 1))
            rest = sum(poisson(n) * f((m + n * smallest) / sqrt_v)
                       for n in range(n_max + 1, n_max + 30))
            out += [float(value), float(rest)]
        return out


def _jump_moments(tau, params, jumps):
    """E[J] and E[J^2] of one negative jump's effect J at a time to go
    uniform on [0, tau], by 20-digit quadrature."""
    r = reduced_cost_coefficient(params)
    nu, gamma = params.nu, params.gamma

    def size(t):
        return ((jumps.delta_minus * (nu * t + 2 * gamma) + jumps.pi_minus * t)
                / ((r + nu) * t + 2 * gamma))

    with mpmath.workdps(20):
        cuts = [0, 2 * gamma / (r + nu), tau]
        return (float(mpmath.quad(size, cuts)) / tau,
                float(mpmath.quad(lambda t: size(t) ** 2, cuts)) / tau)


class TestJumpBoundAccuracy:
    """The saddle-point contour integrals against 30-digit references.

    With scale = prefactor V / 2 (the bound at m = 0 without jumps): the
    bound is within 1e-14 scale everywhere, and within 1e-9 relative where
    it is at least 1e-6 scale; the shortfall probability within 1e-14, and
    1e-9 relative from 1e-6 on.  Each tolerance adds the reference's bound
    on the jumps it leaves out.  Past z ~ 8 the error is far below the
    absolute tolerance but not small relative to the bound: the method's
    error follows the Chernoff scale, and one large jump at a small rate
    puts that far above the bound (README, "Error bounds").
    """

    def _check(self, params, jumps, tau, z, n_max):
        y = _y_at(z, tau, 50_000.0, params, jumps)
        rep = error_bounds.error_bound_jump(tau, 50_000.0, y, params, jumps)
        psi_ref, psi_rest, prob_ref, prob_rest = _few_jumps_reference(
            tau, 50_000.0, y, params, jumps, n_max)
        v = error_bounds.variance_spread(tau, params)
        factor = error_bounds._bound_prefactor(params) * v
        scale = factor / 2.0
        bound_err = abs(rep.bound - factor * psi_ref)
        assert bound_err <= 1e-14 * scale + factor * psi_rest, (rep, psi_ref)
        if factor * psi_ref >= 1e-6 * scale:
            assert bound_err <= 1e-9 * factor * psi_ref + factor * psi_rest
        prob_err = abs(rep.shortfall_probability - prob_ref)
        assert prob_err <= 1e-14 + prob_rest, (rep, prob_ref)
        if prob_ref >= 1e-6:
            assert prob_err <= 1e-9 * prob_ref + prob_rest

    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 1.0, 3.0, 6.0, 10.0,
                                   15.0, 20.0])
    @pytest.mark.parametrize("tau", [12 * HOUR, 24 * HOUR], ids=["12h", "24h"])
    def test_at_most_one_jump(self, sim_params_eta200, jumps_negative, tau, z):
        """1e-8 expected negative jumps: P(N >= 2) is 5e-17."""
        jumps = replace(jumps_negative,
                        lam=1e-8 / (jumps_negative.p_minus * tau))
        self._check(sim_params_eta200, jumps, tau, z, n_max=1)

    @pytest.mark.parametrize("z", [4.0, 5.0])
    def test_at_most_two_jumps(self, sim_params_eta200, jumps_negative, z):
        """1e-6 expected negative jumps: two jumps move the bound by 4e-8
        of its value at z = 4 and 2e-13 of the scale at z = 5, more than
        the tolerances, and P(N >= 3) is 1.7e-19."""
        tau = 24 * HOUR
        jumps = replace(jumps_negative,
                        lam=1e-6 / (jumps_negative.p_minus * tau))
        self._check(sim_params_eta200, jumps, tau, z, n_max=2)

    @pytest.mark.parametrize("z", [-2.0, 0.0, 0.5])
    def test_gaussian_limit(self, sim_params_eta200, jumps_negative, z):
        """At 1e4 jumps a day (7000 negative ones expected) S is nearly
        normal, and G nearly N(m + rate E[J], V + rate E[J^2]): within 1e-2
        at the limit's z = -2, 0, 0.5.  The skewness of S, about 0.012,
        moves the bound by 3.4e-3 at z = 0 and 3.4e-2 at z = 1.9."""
        p, tau = sim_params_eta200, 24 * HOUR
        jumps = replace(jumps_negative, lam=1e4 / DAY)
        rate = jumps.lam * jumps.p_minus * tau
        mean_j, second_j = _jump_moments(tau, p, jumps)
        v = error_bounds.variance_spread(tau, p)
        sd = math.sqrt(v + rate * second_j)
        # the limit's mean m_lambda + rate E[J] is z sd at this m_lambda
        y = _y_at((z * sd - rate * mean_j) / math.sqrt(v), tau, 50_000.0, p,
                  jumps)
        rep = error_bounds.error_bound_jump(tau, 50_000.0, y, p, jumps)
        mean = (error_bounds.mean_spread_jump(tau, 50_000.0, y, p, jumps)
                + rate * mean_j)
        assert mean / sd == pytest.approx(z, abs=1e-6)
        limit = (error_bounds._bound_prefactor(p) * sd**2
                 * error_bounds.psi(mean / sd))
        assert rep.bound == pytest.approx(limit, rel=1e-2)
        assert rep.shortfall_probability == pytest.approx(
            norm.sf(mean / sd), rel=1e-2)

    @pytest.mark.parametrize("y", [-1e4, -1e6])
    def test_far_left_is_the_second_moment(self, sim_params_eta200,
                                           jumps_negative, y):
        """Far below zero (mean -4.8e6 and -4.8e8 MW) G is negative for
        sure: the bound is prefactor E[G^2] and the shortfall probability
        is 1 to the last bit."""
        p, tau = sim_params_eta200, 24 * HOUR
        rate = jumps_negative.lam * jumps_negative.p_minus * tau
        mean_j, second_j = _jump_moments(tau, p, jumps_negative)
        rep = error_bounds.error_bound_jump(tau, 50_000.0, y, p,
                                            jumps_negative)
        mean = rep.moments.mean + rate * mean_j
        second = mean**2 + rep.moments.variance + rate * second_j
        assert rep.bound == pytest.approx(
            error_bounds._bound_prefactor(p) * second, rel=1e-12)
        assert rep.shortfall_probability == 1.0

    @settings(max_examples=60, deadline=None)
    @given(tau_frac=st.floats(0.01, 1.0), spread=st.floats(-2e4, 2e5),
           y=st.floats(-100.0, 300.0), log_rate=st.floats(-3.0, 4.0),
           p_plus=st.floats(0.0, 0.95), delta_minus=st.floats(-5000.0, 0.0),
           pi_minus=st.floats(-50.0, 0.0))
    def test_at_least_the_bound_without_negative_jumps(
            self, sim_params_eta200, tau_frac, spread, y, log_rate, p_plus,
            delta_minus, pi_minus):
        """Negative jumps only lower G = m_lambda + S + sqrt(V) Z, so the
        bound and the shortfall probability are at least prefactor V
        psi(z) and Phi(-z) at z = m_lambda / sqrt(V), to the tolerances
        above."""
        p = sim_params_eta200
        tau = tau_frac * p.horizon
        jumps = JumpParams(lam=10.0**log_rate / DAY, p_plus=p_plus,
                           delta_plus=1500.0, delta_minus=delta_minus,
                           pi_plus=10.0, pi_minus=pi_minus)
        rep = error_bounds.error_bound_jump(tau, spread, y, p, jumps)
        v = error_bounds.variance_spread(tau, p)
        z = error_bounds.mean_spread_jump(tau, spread, y, p, jumps) / math.sqrt(v)
        factor = error_bounds._bound_prefactor(p) * v
        plain = factor * float(error_bounds.psi(z))
        assert rep.bound >= plain - 1e-9 * plain - 1e-14 * factor / 2.0
        prob = float(norm.sf(z))
        assert rep.shortfall_probability >= prob - 1e-9 * prob - 1e-14


class TestJumpBoundPinned:
    """The jump bound at sim-jump-neg's parameters, against the values the
    cos/sin evaluation of the jump transform gave before the phase table.
    Both sum the same trapezoid rule in float64, so only rounding moves
    them."""

    @pytest.mark.parametrize("tau, spread, y, bound, shortfall, rel", [
        (24 * HOUR, 50_000.0, 50.0,
         844077.3082335283, 0.0007002337346829439, 1e-13),  # CLI default
        (24 * HOUR, 20_000.0, 150.0,
         3.540956247735868e-05, 6.146644337865272e-14, 1e-13),  # README tail
        (1.0, 20.0, 50.0, 2854.7995132615983, 0.030402744069152825, 1e-13),
        # 1 ms to go: the left saddle point is 0.011 against jumps of 1500 MW,
        # and the sum cancels; the two evaluations of E[(G^-)^2] are 4.5e-12
        # and 5.0e-12 from the same sum taken in long double, 4.7e-13 apart
        (1e-3, 1.0, 50.0, 2.933692950422903, 0.02750909524250912, 1e-11),
    ], ids=["cli-default", "tail", "1s", "1ms"])
    def test_values(self, sim_params_eta200, jumps_negative, tau, spread, y,
                    bound, shortfall, rel):
        rep = error_bounds.error_bound_jump(tau, spread, y, sim_params_eta200,
                                            jumps_negative)
        assert rep.bound == pytest.approx(bound, rel=rel, abs=0.0)
        assert rep.shortfall_probability == pytest.approx(shortfall,
                                                          rel=1e-13, abs=0.0)


class TestLogTimeNodes:
    """sha256 of the nodes, the weights and the panel width of the
    composite Gauss–Legendre rule: the jump bound's 8 panels over a day and
    the oracle's default 32 over an hour, both with a 0.04 s boundary
    layer."""

    @pytest.mark.parametrize("panels, tau, digest", [
        (8, 24 * HOUR,
         "a1d4ec179c55a4b3ba8dabedc88f200b411a8e88a957d505ccc6e19ccd4514c0"),
        (32, HOUR,
         "c703d47acda2f4dc2f93e78164dd333730e98b8749940684a048b19321b2892a"),
    ], ids=["8", "32"])
    def test_digest(self, panels, tau, digest):
        u, weights, width = error_bounds.log_time_nodes(tau, 0.04, panels)
        assert u.shape == (panels, 20) and weights.shape == (20,)
        sha = hashlib.sha256()
        for part in (u, weights, np.float64(width)):
            sha.update(part.tobytes())
        assert sha.hexdigest() == digest

    def test_weights_are_read_only(self):
        """The weights are shared by every call."""
        _, weights, _ = error_bounds.log_time_nodes(HOUR, 0.04)
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0


class TestJumpBoundLog:
    def test_one_record_per_contour(self, sim_params_eta200, jumps_negative,
                                    caplog):
        """At the CLI default the two left contours each log k, side,
        alpha, h, the frequencies summed and the saddle search's
        evaluations of K' and K''; at WARNING nothing is logged."""
        state = (24 * HOUR, 50_000.0, 50.0, sim_params_eta200, jumps_negative)
        with caplog.at_level(logging.WARNING, logger="intraday.error_bounds"):
            error_bounds.error_bound_jump(*state)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="intraday.error_bounds"):
            error_bounds.error_bound_jump(*state)
        pattern = re.compile(
            r"contour k = (\d), side ([+-]1): alpha (\S+), step h (\S+), "
            r"(\d+) frequencies, (\d+) evaluations of K' and K'' in the "
            r"saddle search")
        fields = []
        for record in caplog.records:
            assert (record.name, record.levelno) == ("intraday.error_bounds",
                                                     logging.DEBUG)
            fields.append(pattern.fullmatch(record.getMessage()).groups())
        assert [(k, side) for k, side, *_ in fields] == [("3", "-1"),
                                                         ("1", "-1")]
        for _, _, alpha, h, frequencies, evaluations in fields:
            assert 0.0 < float(h) < float(alpha)
            assert int(frequencies) % error_bounds._CONTOUR_BLOCK == 0
            assert int(frequencies) > 0 and int(evaluations) > 0
