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
        """The direct formulas just below the switch and the asymptotic
        series at it agree to their accuracy there, relative: psi is about
        3e-21 there, below pytest.approx's default absolute tolerance."""
        switch = error_bounds._TAIL_Z
        below = np.nextafter(switch, -math.inf)
        for f in (error_bounds.psi, error_bounds.psi_tilde):
            assert f(switch) == pytest.approx(f(below), rel=1e-10, abs=0.0)

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

    @pytest.mark.parametrize("z", [-1e200, -1e154, -1e10, -9.0])
    def test_log_psi_far_left(self, z):
        """log psi(z) = log(z^2 + 1 - psi(-z)) stays finite where z^2
        overflows (log psi(-1e200) = 921.03...), against 50-digit mpmath."""
        with mpmath.workdps(50):
            reference = mpmath.log(_psi_mp(mpmath.mpf(z)))
        assert error_bounds.log_psi(z) == pytest.approx(float(reference),
                                                        rel=1e-15)

    @pytest.mark.parametrize("name, limits", [
        ("psi", (0.0, math.inf)),
        ("psi_tilde", (0.0, math.inf)),
        ("log_psi", (-math.inf, math.inf)),
    ])
    def test_ints_beyond_the_float_range(self, name, limits):
        """+-10**400 give the limits at +-inf, as a number and inside an
        array, without an OverflowError."""
        f = getattr(error_bounds, name)
        assert (f(10**400), f(-10**400)) == limits
        got = f(np.array([10**400, -10**400, 1], dtype=object))
        assert got.dtype == float
        assert got.tolist() == [*limits, f(1.0)]

    def test_vectorised(self):
        out = error_bounds.psi(np.array([0.0, 1.0, 30.0]))
        assert out.shape == (3,)

    @pytest.mark.parametrize("name, digests", [
        ("psi", (
            "88b9d4a56d5571ac017f4fe2b81cffe45acff164a21246f061515aa2cafc2e75",
        ) * 2),
        ("psi_tilde", (
            "d96d9ce433e5da3a0a532f51ab1099c7be51eb41469a917f0732042fa41c2b62",
        ) * 2),
        ("log_psi", (
            "8ab6826382a47ec9ca067bfdb88bd938f7ebfe7512460a80de91a2773f3e20ab",
        ) * 2),
    ])
    def test_golden_bits(self, name, digests):
        """sha256 of an array call and of scalar calls on both sides of
        the tail switch and up to z = 1e305: one digest per kernel, since
        an array goes through the scalar kernel element by element."""
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


class TestAccuracy:
    """psi, psi_tilde, log_psi and Phi(-z) against 50-digit mpmath on 501
    points of each range of z: no range is less accurate than with the
    kernels these replaced (``scipy.special.ndtr``, the direct formulas
    below z = 26 and 6-term series from there)."""

    #: Maximum errors per range of the replaced kernels on 21 001 points
    #: of the range: relative for psi, psi_tilde and Phi(-z), absolute for
    #: log psi (that is, relative in psi).  On [20, 26] psi and log psi
    #: are held to 1e-10 instead of 2.63e-8: the series now covers it.
    MAXIMA = {
        (-8.0, 0.0): (3.92e-16, 2.59e-16, 6.78e-16, 2.04e-16),
        (0.0, 3.0): (1.62e-13, 2.61e-14, 1.61e-13, 2.26e-15),
        (3.0, 10.0): (7.79e-11, 1.51e-12, 7.79e-11, 1.60e-14),
        (10.0, 20.0): (4.66e-9, 2.31e-11, 4.66e-9, 6.46e-14),
        (20.0, 26.0): (1e-10, 7.74e-11, 1e-10, 1.33e-13),
        (26.0, 37.0): (9.77e-12, 1.42e-12, 9.77e-12, 2.35e-13),
    }

    @pytest.mark.parametrize("lo, hi", list(MAXIMA))
    def test_no_range_less_accurate(self, lo, hi):
        worst = np.zeros(4)
        with mpmath.workdps(50):
            for z in np.linspace(lo, hi, 501).tolist():
                x = mpmath.mpf(z)
                sf = mpmath.ncdf(-x)
                psi = (x * x + 1) * sf - x * mpmath.npdf(x)
                tilde = mpmath.npdf(x) - x * sf
                errors = (error_bounds.psi(z) / psi - 1,
                          error_bounds.psi_tilde(z) / tilde - 1,
                          error_bounds.log_psi(z) - mpmath.log(psi),
                          error_bounds._norm_sf(z) / sf - 1)
                worst = np.maximum(worst, [abs(float(e)) for e in errors])
        assert np.all(worst <= self.MAXIMA[lo, hi]), worst


def _within_scipy_tolerance(ours, theirs, z):
    """|ours - theirs| <= 2 eps (1 + z^2) |theirs| + 1e-310.  Phi(-z) from
    ``math.erfc`` and ``scipy.special.ndtr`` each round z / sqrt 2, and
    erfc's relative error grows like the argument times its rounding,
    about eps z^2 (phi's exp likewise through z * z).  1e-310 covers the
    subnormal range, where both keep fewer bits and ``ndtr`` returns 0
    below 5.9e-311 (z > 37.68), where ``math.erfc`` goes on to 5e-324.
    Measured: at most 1.4 eps (1 + z^2) above 2.2e-308.  mpmath, not
    scipy, is the reference for accuracy: see :class:`TestAccuracy`."""
    ours, theirs, z = map(np.asarray, (ours, theirs, z))
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf at +-inf
        tolerance = 2.0 * np.finfo(float).eps * (1.0 + z * z) * np.abs(theirs)
        close = np.abs(ours - theirs) <= tolerance + 1e-310
    return np.all(close | (ours == theirs)
                  | (np.isnan(ours) & np.isnan(theirs)))


class TestNormalFunctions:
    """Phi(-z) and phi(z) come from ``math.erfc`` and ``math.exp``, and
    agree with ``scipy.stats.norm.sf``/``.pdf`` within the tolerance of
    :func:`_within_scipy_tolerance`, without calling them."""

    Z = np.concatenate([np.linspace(-40.0, 60.0, 2001),
                        np.random.default_rng(0).uniform(-40.0, 60.0, 4000),
                        np.random.default_rng(1).uniform(26.0, 40.0, 1000),
                        [0.0, -0.0, math.inf, -math.inf, math.nan]])

    def test_arrays_equal_scipy_stats(self):
        for ours, theirs in ((error_bounds._norm_sf, norm.sf),
                             (error_bounds._norm_pdf, norm.pdf)):
            values = np.array([ours(float(v)) for v in self.Z])
            assert _within_scipy_tolerance(values, theirs(self.Z), self.Z)

    def test_scalars_equal_scipy_stats(self):
        """Python floats, numpy floats and 0-d arrays give the same bits,
        within tolerance of scipy."""
        for v in self.Z[~np.isnan(self.Z)]:
            for ours, theirs in ((error_bounds._norm_sf, norm.sf),
                                 (error_bounds._norm_pdf, norm.pdf)):
                bits = {ours(z) for z in (np.asarray(v), v, float(v))}
                assert len(bits) == 1, v
                assert _within_scipy_tolerance(bits.pop(), theirs(v), v), v

    @pytest.mark.parametrize("y", [20.0, 30.0, 35.0, 40.0, 50.0])
    def test_shortfall_probability_equals_scipy_stats(self, table_params, y):
        rep = error_bounds.error_bound(24 * HOUR, 50_000.0, y, table_params)
        z = rep.moments.mean / math.sqrt(rep.moments.variance)
        assert _within_scipy_tolerance(rep.shortfall_probability, norm.sf(z),
                                       z)

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


class TestFloatPath:
    """A Python float, an int, a numpy float64 and a 0-d array give the
    same bits, quietly: each goes through the same scalar kernel."""

    KERNELS = ("psi", "psi_tilde", "log_psi")
    EDGES = [0.0, -0.0, math.inf, math.nan, 5e-324, -5e-324, 1e-310,
             -2.2250738585072014e-308, 1.0, -1.0,
             np.nextafter(26.0, -math.inf), 26.0, np.nextafter(26.0, math.inf),
             np.nextafter(1e100, -math.inf), 1e100, np.nextafter(1e100, math.inf),
             np.nextafter(-1e100, -math.inf), -1e100,
             np.nextafter(-1e100, math.inf), -1e200, 1e305, -math.inf]

    @staticmethod
    def check_same_bits_quietly(name, z):
        f = getattr(error_bounds, name)
        kinds = [np.asarray(z), float(z), np.float64(z)]
        if math.isfinite(z) and float(z).is_integer():
            kinds.append(int(z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = [np.float64(f(k)).tobytes() for k in kinds]
        assert bits == [bits[0]] * len(bits), (name, z)

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("z", EDGES)
    def test_edges(self, name, z):
        self.check_same_bits_quietly(name, z)

    @pytest.mark.parametrize("name", KERNELS)
    @given(z=st.floats())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_a_0d_array(self, name, z):
        self.check_same_bits_quietly(name, z)

    def test_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert error_bounds.psi(-math.inf) == math.inf
            assert error_bounds.log_psi(-math.inf) == math.inf

    @pytest.mark.parametrize("name", KERNELS)
    def test_minus_inf_inside_an_array(self, name):
        """-inf inside an n-d array is +inf as well, quietly, and leaves
        the bits of the other elements alone."""
        f = getattr(error_bounds, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(np.array([[-math.inf, -1.0], [30.0, -math.inf]]))
            rest = f(np.array([-1.0, 30.0]))
        assert got[0, 0] == got[1, 1] == math.inf
        assert got[[0, 1], [1, 0]].tobytes() == rest.tobytes()

    def test_takes_no_error_state(self, monkeypatch):
        """No number or array enters ``np.errstate``: the kernels run on
        Python floats, also past 1e100 and inside arrays."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.errstate entered")

        rng = np.random.default_rng(2)
        z = np.concatenate([
            rng.uniform(-40.0, 60.0, 300),
            10.0 ** rng.uniform(-320.0, 100.0, 100),
            -(10.0 ** rng.uniform(-320.0, 100.0, 100)),
            [np.nextafter(26.0, -math.inf), 26.0,
             np.nextafter(1e100, -math.inf), 1e100, -1e200, 1e300]])
        values = [float(v) for v in z] + [-7, 0, 26, 40, 10**99]
        expected = {name: np.array([getattr(error_bounds, name)(np.asarray(v))
                                    for v in values]).tobytes()
                    for name in self.KERNELS}
        monkeypatch.setattr(np, "errstate", refuse)
        for name in self.KERNELS:
            f = getattr(error_bounds, name)
            got = np.array([f(v) for v in values]).tobytes()
            assert got == expected[name], name
            assert f(np.array(values)).tobytes() == expected[name], name


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
        # abs=0: the default absolute tolerance, 1e-12, would pass any bound
        # below it, 0 included
        assert rep.bound == pytest.approx(BOUND_SIM100, rel=1e-9, abs=0.0)

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

    @pytest.mark.parametrize("tau", [1e-300])
    def test_log_bound_refuses_an_overflow(self, sim_params_eta200, tau):
        """sim-jump-neg at spread -1e200 MW and y = 0, 1e-300 s before
        delivery: m / sqrt(V) is -inf.  The bound and its log overflow,
        and both bounds refuse them without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bound in (error_bounds.error_bound,
                          error_bounds.log_error_bound):
                with pytest.raises(ValueError, match="overflows float64"):
                    bound(tau, -1e200, 0.0, sim_params_eta200)

    def test_log_bound_where_the_bound_overflows(self, sim_params_eta200):
        """The same state a day before delivery: m / sqrt(V) is -1.6e195.
        The bound overflows and is refused; its log is finite and agrees
        with 50-digit mpmath."""
        params, tau, spread = sim_params_eta200, 24 * HOUR, -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                error_bounds.error_bound(tau, spread, 0.0, params)
            log_bound = error_bounds.log_error_bound(tau, spread, 0.0, params)
        m = error_bounds.mean_spread(tau, spread, 0.0, params)
        v = error_bounds.variance_spread(tau, params)
        prefactor = params.eta * reduced_cost_coefficient(params) / (
            2.0 * params.beta)
        with mpmath.workdps(50):
            z = mpmath.mpf(m) / mpmath.sqrt(v)
            reference = mpmath.log(prefactor * v * _psi_mp(z))
        assert log_bound == pytest.approx(float(reference), rel=1e-14)

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


class TestJumpBoundDigest:
    """sha256 of the jump bound's bits at sim-jump-neg's parameters over a
    seeded grid: 100 states with tau from 0.02 T to T, tau in {1 ms, 1 s,
    60 s, 1 h} x spread in {1, 20, 200} MW at y = 50, and one state whose
    mean E[G] is negative (its right contour).  The shortfall probabilities
    are held to the values taken with the digest."""

    DIGEST = ("42269d712b2e9a70c86d8c3377d7fa65"
              "919886ec2613c1819910b3d3cb4aa919")
    SHORTFALL = (
        5.813229098006305e-13, 7.144229971198072e-18, 1.2178043866709914e-19,
        2.249326084621632e-60, 2.8576888024917203e-40, 1.0,
        1.5607491906548093e-09, 6.900201746152517e-19, 5.984763083237611e-06,
        3.524859412244652e-21, 1.041586734168641e-27, 2.4571243265762947e-08,
        4.15552151660519e-05, 1.076161148252987e-49, 0.011100914018240255,
        3.761712479901974e-09, 2.422726992387096e-16, 1.0,
        6.550663311393332e-20, 1.2247786573263388e-15, 4.827152693506867e-12,
        2.092823047090046e-19, 0.05773287527875083, 5.578630284232587e-07,
        1.7160691226520364e-32, 2.6906114918567635e-09, 1.5317596593252382e-07,
        0.2463588669661738, 1.7548095751143563e-20, 1.0778845936492392e-14,
        0.5135051883374397, 2.297261907511901e-13, 2.706348979472265e-09,
        4.470388578549415e-16, 0.10144441473179065, 1.0176866551965455e-26,
        0.08961967470290354, 3.362297548156608e-05, 4.311860792420293e-19,
        1.0156448730703828e-08, 0.9984016726544699, 7.60739365951043e-05,
        2.0747214331683652e-22, 2.705426150101883e-25, 1.5996534014668078e-24,
        0.00023726047603128513, 5.008405434932263e-19, 6.281340291447548e-15,
        1.1625732037384588e-13, 0.4593068125702202, 5.2011303265427255e-20,
        1.2056602305411271e-15, 0.9999982942465139, 0.9999999994337226,
        0.06151088528515553, 1.3541597655463947e-21, 0.017707425341646623,
        3.455808052999271e-10, 3.457305646965357e-28, 1.1576171650432256e-28,
        5.046730225772648e-25, 1.4568875349952746e-06, 0.00014768862431500254,
        0.00019084757755120314, 0.040532886842423406, 0.002084839781228877,
        1.4528125790981493e-17, 0.9994901729022992, 2.653083950523236e-18,
        1.5616147522939285e-20, 3.598117705998935e-08, 0.08952609801373218,
        1.0, 2.337752434740574e-10, 0.0009227737282940609, 0.999266957473488,
        0.9961248688647993, 0.9999999999999409, 2.9271116675251022e-25,
        0.9999945960126759, 0.0001919479165950056, 0.00019529969277712312,
        2.5041888233256267e-25, 5.790326462561516e-24, 1.7819819241119742e-35,
        6.205139359390586e-19, 1.5750459610588498e-10, 4.056732751032641e-18,
        1.4688948936761794e-05, 3.9061704200938567e-20, 0.9999999999985261,
        1.5544292876493905e-08, 5.28925615303374e-13, 0.0013837193773285263,
        1.0596823816029146e-06, 0.22981783204358475, 1.8567873147824062e-23,
        0.9936183049844773, 7.311542925972791e-08, 6.406835168323043e-26,
        0.02750909524250927, 1.2152777546311968e-08, 1.215277771207588e-08,
        0.23104578404792284, 0.030402744069152825, 1.2152703933064589e-05,
        0.0007290368573137471, 0.0007289632722401321, 0.0007289008648299233,
        6.353256200260042e-10, 6.279757814523885e-10, 5.634629446842848e-10,
        0.7191954182221156,
    )

    @staticmethod
    def _states(params):
        rng = np.random.default_rng(28)
        states = list(zip(rng.uniform(0.02, 1.0, 100) * params.horizon,
                          rng.uniform(-1e4, 1e5, 100),
                          rng.uniform(-50.0, 200.0, 100)))
        states += [(tau, spread, 50.0) for tau in (1e-3, 1.0, 60.0, HOUR)
                   for spread in (1.0, 20.0, 200.0)]
        return states + [(24 * HOUR, 0.0, 0.0)]

    def test_digest(self, sim_params_eta200, jumps_negative):
        sha, shortfall = hashlib.sha256(), []
        for state in self._states(sim_params_eta200):
            rep = error_bounds.error_bound_jump(*state, sim_params_eta200,
                                                jumps_negative)
            sha.update(np.float64(rep.bound).tobytes())
            shortfall.append(rep.shortfall_probability)
        assert sha.hexdigest() == self.DIGEST
        expected = np.array(self.SHORTFALL)
        error = np.abs(np.array(shortfall) - expected)
        assert error.max() <= 1e-14
        large = expected >= 1e-6
        assert np.all(error[large] <= 1e-12 * expected[large])


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

    def test_rule_is_leggauss(self):
        """The rule is written out, with the bits of ``leggauss(20)``."""
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert error_bounds._GL_NODES.tobytes() == nodes.tobytes()
        assert error_bounds._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_weights_are_read_only(self):
        """The weights are shared by every call."""
        _, weights, _ = error_bounds.log_time_nodes(HOUR, 0.04)
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0


class TestJumpBoundLog:
    def test_one_record_per_contour(self, sim_params_eta200, jumps_negative,
                                    caplog):
        """One contour gives both the second moment and the probability,
        and logs one record: its side, alpha, h, the frequencies summed and
        the saddle search's evaluations of K' and K''.  The CLI default
        takes the left tail; E[G] < 0 at spread 0 and y = 0 takes the
        right.  At WARNING nothing is logged."""
        pattern = re.compile(
            r"contour side ([+-]1): alpha (\S+), step h (\S+), "
            r"(\d+) frequencies, (\d+) evaluations of K' and K'' in the "
            r"saddle search")
        for spread, y, side in [(50_000.0, 50.0, "-1"), (0.0, 0.0, "+1")]:
            state = (24 * HOUR, spread, y, sim_params_eta200, jumps_negative)
            caplog.clear()
            with caplog.at_level(logging.WARNING,
                                 logger="intraday.error_bounds"):
                error_bounds.error_bound_jump(*state)
            assert caplog.records == []
            with caplog.at_level(logging.DEBUG, logger="intraday.error_bounds"):
                error_bounds.error_bound_jump(*state)
            [record] = caplog.records
            assert (record.name, record.levelno) == ("intraday.error_bounds",
                                                     logging.DEBUG)
            logged_side, alpha, h, frequencies, evaluations = (
                pattern.fullmatch(record.getMessage()).groups())
            assert logged_side == side
            assert 0.0 < float(h) < float(alpha)
            assert int(frequencies) % error_bounds._CONTOUR_BLOCK == 0
            assert int(frequencies) > 0 and int(evaluations) > 0
