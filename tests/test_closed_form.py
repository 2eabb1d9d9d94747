"""Unit and property tests for the closed-form value functions and rates.

The heavy independent verification (RK4 integration of the Riccati
systems) lives in test_oracle.py; here the closed forms are checked
against their defining identities — terminal conditions, the HJB equation,
the martingale drift of the feedback rate, translation invariance and the
price / marginal-cost equilibrium — plus frozen regression values.
"""

import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intraday import cli, closed_form
from intraday.model import (
    DAY,
    HOUR,
    JumpParams,
    MarketState,
    ModelParams,
    cost_after_production,
    load_param_file,
    reduced_cost_coefficient,
)

# Frozen double-precision regression values at the benchmark state
# (t=0, X=0, Y=50, D=50000, T=24h); guard against silent formula drift.
VALUE_SIM100 = 1916697.5938471602
VALUE_SIM200 = 1916704.4729753085
VALUE_TABLE = 1888193.7217904367
VALUE_JUMP_POS = 2020945.3095519545
VALUE_JUMP_NEG = 1756334.5287202527
RATE_SIM100 = 0.2767020648116722
RATE_SIM200 = 0.2767049528012625


def taus():
    return st.floats(0.0, 24 * HOUR)


def spreads():
    return st.floats(-1e5, 1e6)


def prices():
    return st.floats(-200.0, 1000.0)


class TestRegressions:
    def test_value_aux_frozen(self, sim_params, sim_params_eta200,
                              table_params, state0):
        assert closed_form.value_aux(state0, sim_params) == pytest.approx(
            VALUE_SIM100, rel=1e-12)
        assert closed_form.value_aux(state0, sim_params_eta200) == \
            pytest.approx(VALUE_SIM200, rel=1e-12)
        assert closed_form.value_aux(state0, table_params) == pytest.approx(
            VALUE_TABLE, rel=1e-12)

    def test_value_jump_frozen(self, sim_params_eta200, jumps_positive,
                               jumps_negative, state0):
        assert closed_form.value_aux_jump(
            state0, sim_params_eta200, jumps_positive) == pytest.approx(
                VALUE_JUMP_POS, rel=1e-12)
        assert closed_form.value_aux_jump(
            state0, sim_params_eta200, jumps_negative) == pytest.approx(
                VALUE_JUMP_NEG, rel=1e-12)

    def test_feedback_rate_frozen(self, sim_params, sim_params_eta200):
        assert closed_form.feedback_rate(
            24 * HOUR, 50_000.0, 50.0, sim_params) == pytest.approx(
                RATE_SIM100, rel=1e-13)
        assert closed_form.feedback_rate(
            24 * HOUR, 50_000.0, 50.0, sim_params_eta200) == pytest.approx(
                RATE_SIM200, rel=1e-13)


class TestTerminalCondition:
    def test_coefficients_at_zero(self, sim_params):
        c = closed_form.riccati_coefficients(0.0, sim_params)
        r = reduced_cost_coefficient(sim_params)
        assert c.a == pytest.approx(0.5 * r, rel=1e-14)
        assert (c.b, c.f, c.g, c.h, c.k) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_value_at_delivery_is_post_production_cost(self, sim_params):
        for spread in (-3000.0, 0.0, 4000.0):
            state = MarketState(t=sim_params.horizon, x=0.0, y=75.0, d=spread)
            assert closed_form.value_aux(state, sim_params) == pytest.approx(
                cost_after_production(spread, sim_params, constrained=False),
                rel=1e-12, abs=1e-9)

    def test_negative_time_to_go_rejected(self, sim_params):
        with pytest.raises(ValueError):
            closed_form.riccati_coefficients(-1.0, sim_params)

    def test_array_with_a_negative_node_rejected(self, sim_params,
                                                  jumps_negative):
        tau = np.array([0.0, 3600.0, -1e-9, 7200.0])
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form.riccati_coefficients(tau, sim_params)
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form.jump_riccati_coefficients(tau, sim_params,
                                                  jumps_negative)

    @pytest.mark.parametrize("tau", [math.nan, np.array([0.0, math.nan, 1.0])],
                             ids=["float", "array"])
    def test_nan_time_to_go_rejected(self, sim_params, jumps_negative, tau):
        """nan fails ``tau < 0`` as well as ``tau >= 0``: it is refused,
        not turned into nan coefficients."""
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form.riccati_coefficients(tau, sim_params)
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form.jump_riccati_coefficients(tau, sim_params,
                                                  jumps_negative)


class TestInvariances:
    @given(tau=taus(), d=spreads(), y=prices(), shift=st.floats(-1e5, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, sim_params, tau, d, y, shift):
        """The value depends on inventory and demand only via the spread."""
        t = sim_params.horizon - tau
        base = closed_form.value_aux(
            MarketState(t=t, x=0.0, y=y, d=d), sim_params)
        moved = closed_form.value_aux(
            MarketState(t=t, x=shift, y=y, d=d + shift), sim_params)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-6)

    @given(tau=st.floats(1.0, 48 * HOUR), d=spreads(), y=prices())
    @settings(max_examples=100, deadline=None)
    def test_forecast_equilibrium_identity(self, sim_params, tau, d, y):
        lhs, rhs, xi_s = closed_form.forecast_equilibrium(tau, 0.0, y, d,
                                                          sim_params)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        eta, beta = sim_params.eta, sim_params.beta
        q = closed_form.feedback_rate(tau, d, y, sim_params)
        assert xi_s == pytest.approx(eta / (eta + beta) * (d - q * tau),
                                     rel=1e-12, abs=1e-9)

    def test_equilibrium_requires_production(self, sim_params):
        pure = ModelParams(sigma0=sim_params.sigma0, sigma_d=sim_params.sigma_d,
                           beta=None, eta=100.0, mu=0.0, nu=4e-5, gamma=2.22,
                           rho=0.8, horizon=24 * HOUR)
        with pytest.raises(ValueError):
            closed_form.forecast_equilibrium(3600.0, 0.0, 50.0, 1000.0, pure)

    def test_equilibrium_on_arrays_matches_scalar_calls(self, sim_params):
        """Elementwise: each entry has the bits of a scalar call."""
        rng = np.random.default_rng(3)
        tau, x, y, d = rng.uniform((0.0, -1e4, -100.0, -1e4),
                                   (sim_params.horizon, 1e4, 200.0, 1e5),
                                   (500, 4)).T
        arrays = closed_form.forecast_equilibrium(tau, x, y, d, sim_params)
        scalars = np.array([
            closed_form.forecast_equilibrium(*state, sim_params)
            for state in zip(tau.tolist(), x.tolist(), y.tolist(),
                             d.tolist())]).T
        assert np.array(arrays).tobytes() == scalars.tobytes()


def _coefficient_derivatives(tau, params, step):
    """5-point central finite differences of the Riccati coefficients."""
    stencil = [-2, -1, 1, 2]
    weights = [1.0, -8.0, 8.0, -1.0]
    total = np.zeros(6)
    for s, w in zip(stencil, weights):
        c = closed_form.riccati_coefficients(tau + s * step, params)
        total += w * np.array([c.a, c.b, c.f, c.g, c.h, c.k])
    return total / (12.0 * step)


class TestHjbEquation:
    @given(tau=st.floats(200.0, 24 * HOUR - 200.0), d=spreads(), y=prices())
    @settings(max_examples=60, deadline=None)
    def test_hjb_residual_vanishes(self, sim_params, tau, d, y):
        p = sim_params
        c = closed_form.riccati_coefficients(tau, p)
        da, db, df, dg, dh, dk = _coefficient_derivatives(
            tau, p, min(50.0, tau / 4.0))
        s = d  # spread with x = 0
        v_tau = (da * s**2 + db * y**2 + df * s * y + dg * s + dh * y + dk)
        v_d = 2.0 * c.a * s + c.f * y + c.g
        v_y = 2.0 * c.b * y + c.f * s + c.h
        hamil = -v_d + p.nu * v_y + y  # v_x = -v_d
        terms = [-v_tau, p.mu * v_d, 0.5 * p.sigma0**2 * 2.0 * c.b,
                 0.5 * p.sigma_d**2 * 2.0 * c.a, p.rho * p.sigma0 * p.sigma_d * c.f,
                 -hamil**2 / (4.0 * p.gamma)]
        residual = sum(terms)
        scale = max(max(abs(t) for t in terms), 1.0)
        assert abs(residual) <= 1e-6 * scale

    @given(tau=st.floats(1.0, 24 * HOUR), d=spreads(), y=prices())
    @settings(max_examples=100, deadline=None)
    def test_feedback_rate_is_hjb_minimiser(self, sim_params, tau, d, y):
        p = sim_params
        c = closed_form.riccati_coefficients(tau, p)
        v_d = 2.0 * c.a * d + c.f * y + c.g
        v_y = 2.0 * c.b * y + c.f * d + c.h
        q_from_value = -(-v_d + p.nu * v_y + y) / (2.0 * p.gamma)
        q = closed_form.feedback_rate(tau, d, y, p)
        assert q == pytest.approx(q_from_value, rel=1e-10, abs=1e-12)


class TestRateDrift:
    @given(tau=st.floats(1.0, 24 * HOUR), d=spreads(), y=prices())
    @settings(max_examples=100, deadline=None)
    def test_optimal_rate_is_driftless(self, sim_params, tau, d, y):
        """-dq/dtau + (mu - q) q_s + nu q q_y = 0 along the dynamics."""
        p = sim_params
        r = reduced_cost_coefficient(p)
        den = (r + p.nu) * tau + 2.0 * p.gamma
        q = closed_form.feedback_rate(tau, d, y, p)
        q_tau = (r * p.mu - (r + p.nu) * q) / den
        drift = -q_tau + (p.mu - q) * r / den + p.nu * q * (-1.0 / den)
        scale = max(abs(q_tau), abs(q) * r / den, 1e-12)
        assert abs(drift) <= 1e-10 * scale

    @given(tau=st.floats(1.0, 24 * HOUR), d=spreads(), y=prices(),
           p_plus=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_jump_rate_drift_is_compensator(self, sim_params_eta200, tau, d, y,
                                            p_plus):
        """The jump-model rate drifts at exactly -lam pi / (2 gamma)."""
        p = sim_params_eta200
        jumps = JumpParams(lam=1.5 / DAY, p_plus=p_plus, delta_plus=1500.0,
                           delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        r = reduced_cost_coefficient(p)
        lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
        den = (r + p.nu) * tau + 2.0 * p.gamma
        q0 = closed_form.feedback_rate(tau, d, y, p)
        q_l = closed_form.feedback_rate_jump(tau, d, y, p, jumps)
        q_tau = ((r * p.mu - (r + p.nu) * q0) / den
                 + lam * (r * delta - 0.5 * pi) * 2.0 * p.gamma / den**2
                 + lam * pi / (4.0 * p.gamma))
        drift = (-q_tau + (p.mu - q_l) * r / den - p.nu * q_l / den
                 + lam * (delta * r - pi) / den)
        expected = -lam * pi / (2.0 * p.gamma)
        scale = max(abs(q_tau), abs(expected), abs(q_l) * r / den, 1e-12)
        assert drift == pytest.approx(expected, abs=1e-10 * scale)


class TestJumpCollapse:
    @given(tau=taus(), d=spreads(), y=prices())
    @settings(max_examples=60, deadline=None)
    def test_lam_zero_collapses(self, sim_params_eta200, tau, d, y):
        p = sim_params_eta200
        none_jumps = None
        t = p.horizon - tau
        state = MarketState(t=t, x=0.0, y=y, d=d)
        assert closed_form.value_aux_jump(state, p, none_jumps) == \
            closed_form.value_aux(state, p)
        assert np.all(closed_form.feedback_rate_jump(tau, d, y, p, none_jumps)
                      == closed_form.feedback_rate(tau, d, y, p))

    def test_zero_size_jumps_collapse(self, sim_params_eta200, state0):
        p = sim_params_eta200
        trivial = JumpParams(lam=1.5 / DAY, p_plus=0.5, delta_plus=0.0,
                             delta_minus=0.0, pi_plus=0.0, pi_minus=0.0)
        assert closed_form.value_aux_jump(state0, p, trivial) == \
            pytest.approx(closed_form.value_aux(state0, p), rel=1e-14)

    def test_jump_coefficients_quadratic_part_unchanged(
            self, sim_params_eta200, jumps_negative):
        c = closed_form.jump_riccati_coefficients(
            12 * HOUR, sim_params_eta200, jumps_negative)
        base = closed_form.riccati_coefficients(12 * HOUR, sim_params_eta200)
        assert (c.a, c.b, c.f) == (base.a, base.b, base.f)

    def test_assemble_matches_components(self, sim_params_eta200,
                                         jumps_positive):
        c = closed_form.jump_riccati_coefficients(
            6 * HOUR, sim_params_eta200, jumps_positive)
        spread, y = 20_000.0, 60.0
        expected = (c.a * spread**2 + c.b * y**2 + c.f * spread * y
                    + c.g * spread + c.h * y + c.k)
        assert c.assemble(spread, y) == pytest.approx(expected, rel=1e-14)


class TestJumpRateForms:
    """The jump rate is the no-jump rate at jump-shifted arguments plus
    ``lam pi tau / (4 gamma)``; the evaluated additive form must agree."""

    @staticmethod
    def _check(p, jumps, tau, d, y):
        r = reduced_cost_coefficient(p)
        lam, delta, pi = jumps.lam, jumps.delta, jumps.pi
        den = (r + p.nu) * tau + 2.0 * p.gamma
        q = closed_form.feedback_rate_jump(tau, d, y, p, jumps)
        shifted = (closed_form.feedback_rate(tau, d + lam * delta * tau,
                                             y + 0.5 * lam * pi * tau, p)
                   + lam * pi * tau / (4.0 * p.gamma))
        # The forms cancel to near zero when the rate changes sign, so the
        # comparison is scaled by the size of the summands, not the result.
        scale = (np.abs(closed_form.feedback_rate(tau, d, y, p))
                 + abs(lam * tau * (r * delta - 0.5 * pi) / den)
                 + abs(lam * pi * tau / (4.0 * p.gamma)) + 1e-12)
        assert np.all(np.abs(q - shifted) <= 1e-9 * scale)

    @given(tau=taus(), d=spreads(), y=prices(), p_plus=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_shifted_form_scalar(self, sim_params_eta200, tau, d, y, p_plus):
        jumps = JumpParams(lam=1.5 / DAY, p_plus=p_plus, delta_plus=1500.0,
                           delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        self._check(sim_params_eta200, jumps, tau, d, y)

    @given(tau=taus(),
           points=st.lists(st.tuples(spreads(), prices()), min_size=1,
                           max_size=16),
           p_plus=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_shifted_form_arrays(self, table_params, tau, points, p_plus):
        jumps = JumpParams(lam=1.5 / DAY, p_plus=p_plus, delta_plus=1500.0,
                           delta_minus=-700.0, pi_plus=10.0, pi_minus=-4.0)
        d, y = (np.array(column) for column in zip(*points))
        self._check(table_params, jumps, tau, d, y)


class TestTauArrays:
    """One call on an array of times-to-go against one scalar call per
    node, the reference."""

    @pytest.mark.parametrize("drift", [False, True], ids=["mu0", "mu1000"])
    @pytest.mark.parametrize("pure_trader", [False, True],
                             ids=["beta", "pure-trader"])
    @pytest.mark.parametrize("preset", ["sim-nojump", "sim-jump-pos",
                                        "sim-jump-neg", "sim-delay",
                                        "table13"])
    def test_array_matches_scalar_calls(self, preset, pure_trader, drift):
        """Equal in A to H without jumps and in A, B, F and G with them.
        H and K with jumps, and K without, use ``np.log1p`` and numpy
        powers, which need not round as ``math.log1p`` and float ``**`` do:
        they stay within 8 ulp of the column's largest magnitude.  Measured
        at most 5.3e-16 of it on the presets as shipped (K, sim-jump-neg),
        and 1.1e-15 in H for a pure trader with jumps and drift, whose two
        terms of H cancel."""
        params, jumps, _ = load_param_file(cli.resolve_config(preset, preset))
        params = replace(params, mu=1000.0 / DAY if drift else params.mu,
                         beta=None if pure_trader else params.beta)
        # the log-time grid of the RK4 oracle, which resolves the boundary
        # layer of width ~scale at tau = 0
        scale = 2.0 * params.gamma / (reduced_cost_coefficient(params)
                                      + params.nu)
        tau = scale * np.expm1(np.linspace(
            0.0, math.log1p(params.horizon / scale), 10_001))

        c = closed_form.jump_riccati_coefficients(tau, params, jumps)
        array = np.column_stack((c.a, c.b, c.f, c.g, c.h, c.k))
        scalar = np.array([
            (c.a, c.b, c.f, c.g, c.h, c.k) for c in (
                closed_form.jump_riccati_coefficients(float(t), params, jumps)
                for t in tau)])
        exact = 5 if jumps is None else 4
        assert np.array_equal(array[:, :exact], scalar[:, :exact])
        bound = 8 * np.finfo(float).eps * np.abs(scalar[:, exact:]).max(axis=0)
        assert np.all(np.abs(array[:, exact:] - scalar[:, exact:]) <= bound)

    def test_float_gives_python_floats(self, sim_params_eta200,
                                       jumps_negative):
        for c in (closed_form.riccati_coefficients(3600.0, sim_params_eta200),
                  closed_form.jump_riccati_coefficients(
                      3600.0, sim_params_eta200, jumps_negative)):
            assert all(type(getattr(c, name)) is float for name in "abfghk")


def _nine_term_reference(tau, params, jumps):
    """G, H and K of the jump model as published, term by term, in mpmath
    at the working precision: the no-jump coefficients plus the hand
    expansion in the jump sizes, with its nine K terms."""
    r, s0, sd, mu, nu, gamma, rho, lam, pp, dp, dm, pip, pim = map(
        mpmath.mpf, (reduced_cost_coefficient(params), params.sigma0,
                     params.sigma_d, params.mu, params.nu, params.gamma,
                     params.rho, jumps.lam, jumps.p_plus, jumps.delta_plus,
                     jumps.delta_minus, jumps.pi_plus, jumps.pi_minus))
    tau = mpmath.mpf(tau)
    pm = 1 - pp
    delta, pi = pp * dp + pm * dm, pp * pip + pm * pim
    den = (r + nu) * tau + 2 * gamma
    log_term = mpmath.log1p((r + nu) * tau / (2 * gamma))
    a = r * (nu * tau / 2 + gamma) / den
    b = -tau / (2 * den)
    g = (2 * mu * tau * a
         + lam * r * tau * (pi * tau + 2 * delta * (nu * tau + 2 * gamma))
         / (2 * den))
    h = -2 * r * mu * tau * b - lam * tau**2 * (pi - 2 * r * delta) / (2 * den)
    k = (gamma * (s0**2 + sd**2 * r**2 - 2 * rho * s0 * sd * r) / (r + nu) ** 2
         * log_term
         + (sd**2 * r * nu + 2 * rho * s0 * sd * r - s0**2) / (2 * (r + nu))
         * tau
         + r * mu**2 * tau**2 * (nu * tau / 2 + gamma) / den)
    k += (lam * gamma * (pp * (pip - r * dp) ** 2 + pm * (pim - r * dm) ** 2)
          / (r + nu) ** 2 * log_term)
    k -= (lam * (pp * (pip**2 - r * dp * (2 * pip + nu * dp))
                 + pm * (pim**2 - r * dm * (2 * pim + nu * dm)))
          / (2 * (r + nu)) * tau)
    k += (lam * r * (2 * nu * mu * delta
                     + lam * (pp**2 * dp * (pip + nu * dp)
                              + pm**2 * dm * (pim + nu * dm)))
          / (2 * (r + nu)) * tau**2)
    k += (lam**2 * gamma * r * (r * delta**2 + 2 * nu * pp * pm * dp * dm
                                - (pp**2 * dp * pip + pm**2 * dm * pim))
          / ((r + nu) * den) * tau**2)
    k += 2 * lam * gamma * r**2 * mu * delta / ((r + nu) * den) * tau**2
    k -= lam**2 * pi**2 / (48 * gamma) * tau**3
    k += (lam**2 * pp * pm * r * (2 * nu * dp * dm + dm * pip + dp * pim)
          / (2 * den) * tau**3)
    k += (4 * r * mu * lam * pi - lam**2 * pi**2) / (8 * den) * tau**3
    return g, h, k


class TestJumpCoefficientAccuracy:
    """The jump coefficients, built as the no-jump closed form at the
    jump-shifted drift and noise plus the price drift, against 50-digit
    mpmath of the published term-by-term formula."""

    @pytest.mark.parametrize("lam_per_day, p_plus", [
        (1.5, 0.3), (1.5, 1.0), (1e4, 0.3), (1e4, 0.5),
    ], ids=["sim-jump-neg", "sim-jump-pos", "neg-1e4", "symmetric-1e4"])
    def test_against_50_digit_mpmath(self, lam_per_day, p_plus):
        """Within 2e-13 relative in G, H and K over both production
        regimes, stiff and regular impacts, drift, both correlation signs
        and 60 s to 50 h to go; a zero reference (G and H of symmetric
        jumps without drift) must be met exactly.  Measured at most 2.1e-15
        in G, 1.4e-15 in H and 4.2e-14 in K.  The nine-term K itself, in
        double precision, is 2.9e-12 off for the symmetric jumps, where its
        terms cancel."""
        jumps = JumpParams(lam=lam_per_day / DAY, p_plus=p_plus,
                           delta_plus=1500.0, delta_minus=-1500.0,
                           pi_plus=10.0, pi_minus=-10.0)
        worst = 0.0
        with mpmath.workdps(50):
            for beta, eta, nu, gamma, mu, rho, tau in itertools.product(
                    (0.002, None), (100.0, 200.0), (4e-5, 1e-10),
                    (2.22, 1e-10), (0.0, 1000.0 / DAY), (0.8, -0.3),
                    (60.0, HOUR, 24 * HOUR, 50 * HOUR)):
                params = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60,
                                     beta=beta, eta=eta, mu=mu, nu=nu,
                                     gamma=gamma, rho=rho,
                                     horizon=50 * HOUR)
                c = closed_form.jump_riccati_coefficients(tau, params, jumps)
                for value, exact in zip(
                        (c.g, c.h, c.k),
                        _nine_term_reference(tau, params, jumps)):
                    error = (abs(value - exact) / abs(exact) if exact
                             else abs(value))
                    worst = max(worst, float(error))
        assert worst <= 2e-13


class TestPureTrader:
    def test_pure_trader_value_uses_eta(self, sim_params):
        """``value_aux`` at ``beta=None`` is the quadratic form with the
        reduced cost coefficient r replaced by eta (mu = 0: no G, H)."""
        p = replace(sim_params, beta=None)
        state = MarketState(t=0.0, x=0.0, y=50.0, d=50_000.0)
        tau, r, s0, sd = p.horizon, p.eta, p.sigma0, p.sigma_d
        den = (r + p.nu) * tau + 2.0 * p.gamma
        k = (p.gamma * (s0**2 + sd**2 * r**2 - 2.0 * p.rho * s0 * sd * r)
             / (r + p.nu) ** 2 * math.log1p((r + p.nu) * tau / (2.0 * p.gamma))
             + (sd**2 * r * p.nu + 2.0 * p.rho * s0 * sd * r - s0**2)
             / (2.0 * (r + p.nu)) * tau)
        expected = (r * (0.5 * p.nu * tau + p.gamma) / den * state.spread**2
                    - 0.5 * tau / den * state.y**2
                    + r * tau / den * state.spread * state.y + k)
        assert closed_form.value_aux(state, p) == pytest.approx(expected,
                                                                rel=1e-13)

    @given(tau=st.floats(1.0, 24 * HOUR), d=spreads(), y=prices())
    @settings(max_examples=60, deadline=None)
    def test_pure_trader_rate_formula(self, sim_params, tau, d, y):
        p = sim_params
        expected = (p.eta * (p.mu * tau + d) - y) / (
            (p.eta + p.nu) * tau + 2.0 * p.gamma)
        assert closed_form.feedback_rate_pure_trader(tau, d, y, p) == \
            pytest.approx(expected, rel=1e-14, abs=1e-18)


class TestTurningTime:
    def test_crossing_formula(self, sim_params_eta200, jumps_positive, state0):
        p, j = sim_params_eta200, jumps_positive
        s_bar, _ = closed_form.expected_rate_turning_time(state0, p, j)
        q0 = closed_form.feedback_rate_jump(p.horizon, state0.spread,
                                            state0.y, p, j)
        assert s_bar == pytest.approx(2.0 * p.gamma * q0 / (j.lam * j.pi),
                                      rel=1e-12)

    def test_no_price_drift_refused(self, sim_params_eta200, state0):
        """With pi = 0 the expected rate does not drift and never turns."""
        jumps = JumpParams(lam=1.5 / DAY, p_plus=0.5, delta_plus=1500.0,
                           delta_minus=-1000.0, pi_plus=10.0, pi_minus=-10.0)
        with pytest.raises(ValueError, match="pi != 0"):
            closed_form.expected_rate_turning_time(state0, sim_params_eta200,
                                                   jumps)

    def test_labels(self, sim_params_eta200, jumps_positive, jumps_negative):
        p = sim_params_eta200
        state = MarketState(t=0.0, x=0.0, y=50.0, d=50_000.0)
        _, label = closed_form.expected_rate_turning_time(state, p,
                                                          jumps_positive)
        assert label == closed_form.CONCAVE
        _, label = closed_form.expected_rate_turning_time(state, p,
                                                          jumps_negative)
        assert label == closed_form.CONVEX
        big = MarketState(t=0.0, x=0.0, y=50.0, d=5e6)
        _, label = closed_form.expected_rate_turning_time(big, p,
                                                          jumps_positive)
        assert label == closed_form.INCREASING
        low = MarketState(t=0.0, x=0.0, y=50.0, d=-5e6)
        _, label = closed_form.expected_rate_turning_time(low, p,
                                                          jumps_positive)
        assert label == closed_form.DECREASING


class TestStiffRegime:
    def test_table_regime_coefficients_finite(self, table_params):
        for tau in (0.0, 1e-6, 1.0, 24 * HOUR):
            c = closed_form.riccati_coefficients(tau, table_params)
            assert all(math.isfinite(v) for v in
                       (c.a, c.b, c.f, c.g, c.h, c.k))

    def test_table_value_independent_of_tiny_impacts(self, table_params):
        """In the nu = gamma ~ 0 limit A -> r nu tau / 2 ... stays stable."""
        state = MarketState(t=0.0, x=0.0, y=50.0, d=50_000.0)
        value = closed_form.value_aux(state, table_params)
        assert value == pytest.approx(VALUE_TABLE, rel=1e-12)
