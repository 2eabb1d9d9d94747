"""Unit and property tests for the closed-form value functions and rates.

The heavy independent verification (RK4 integration of the Riccati
systems) lives in test_oracle.py; here the closed forms are checked
against their defining identities — terminal conditions, the HJB equation,
the martingale drift of the feedback rate, translation invariance and the
price / marginal-cost equilibrium — plus frozen regression values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intraday import closed_form
from intraday.model import (
    DAY,
    HOUR,
    JumpParams,
    MarketState,
    ModelParams,
    cost_after_production,
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
        state = MarketState(t=0.0, x=0.0, y=y, d=d)
        lhs, rhs, xi_s = closed_form.forecast_equilibrium(tau, state,
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
            closed_form.forecast_equilibrium(
                3600.0, MarketState(t=0.0, x=0.0, y=50.0, d=1000.0), pure)


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


class TestPureTrader:
    def test_pure_trader_value_uses_eta(self, sim_params):
        pure = ModelParams(sigma0=sim_params.sigma0, sigma_d=sim_params.sigma_d,
                           beta=None, eta=100.0, mu=0.0, nu=4e-5, gamma=2.22,
                           rho=0.8, horizon=24 * HOUR)
        state = MarketState(t=0.0, x=0.0, y=50.0, d=50_000.0)
        assert closed_form.value_pure_trader(state, sim_params) == \
            pytest.approx(closed_form.value_aux(state, pure), rel=1e-13)

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
