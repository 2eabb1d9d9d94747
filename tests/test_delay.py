"""Unit and property tests for the delayed-production machinery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intraday import closed_form, delay, error_bounds
from intraday.model import (
    HOUR,
    MarketState,
    ModelParams,
    optimal_production_unconstrained,
    reduced_cost_coefficient,
)

# Frozen regression values (eta = 200 simulation parameters, h = 4 h).
K_4H = 8755.750305140646
VALUE_DELAY_4H = 1925460.2232804492


class TestDelayConstant:
    def test_zero_delay_costs_nothing(self, sim_params_eta200):
        assert delay.delay_constant(0.0, sim_params_eta200) == 0.0

    def test_frozen_value(self, sim_params_eta200):
        assert delay.delay_constant(4 * HOUR, sim_params_eta200) == \
            pytest.approx(K_4H, rel=1e-12)

    def test_nonnegative_and_increasing(self, sim_params_eta200):
        grid = np.linspace(0.0, 24 * HOUR, 10)
        values = [delay.delay_constant(h, sim_params_eta200) for h in grid]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self, sim_params_eta200):
        with pytest.raises(ValueError):
            delay.delay_constant(-1.0, sim_params_eta200)
        with pytest.raises(ValueError):
            delay.delay_constant(25 * HOUR, sim_params_eta200)

    def test_pure_trader_rejected(self):
        pure = ModelParams(sigma0=1 / 60, sigma_d=1000 / 60, beta=None,
                           eta=100.0, mu=0.0, nu=4e-5, gamma=2.22, rho=0.8,
                           horizon=24 * HOUR)
        with pytest.raises(ValueError):
            delay.delay_constant(3600.0, pure)


class TestDelayedValue:
    def test_frozen_value(self, sim_params_eta200, state0):
        assert delay.value_aux_delay(state0, sim_params_eta200, 4 * HOUR) == \
            pytest.approx(VALUE_DELAY_4H, rel=1e-12)

    @given(x=st.floats(-1e4, 1e4), y=st.floats(-100.0, 500.0),
           d=st.floats(-1e4, 1e5), h=st.floats(0.0, 24 * HOUR))
    @settings(max_examples=100, deadline=None)
    @example(x=0.0, y=266.0, d=0.0, h=0.0625)
    def test_premium_is_state_independent(self, sim_params_eta200, x, y, d, h):
        state = MarketState(t=0.0, x=x, y=y, d=d)
        delayed = delay.value_aux_delay(state, sim_params_eta200, h)
        premium = delayed - closed_form.value_aux(state, sim_params_eta200)
        # When K_h is small next to v0 the subtraction is exact (Sterbenz),
        # so the only error is the rounding of v0 + K_h, up to half an ulp
        # of the sum: no tolerance below ulp(v0 + K_h) can be met.
        assert premium == pytest.approx(
            delay.delay_constant(h, sim_params_eta200), rel=1e-12,
            abs=math.ulp(delayed))


class TestDelayedProduction:
    def test_zero_delay_reduces_to_plain_rule(self, sim_params_eta200):
        for spread, y in ((-500.0, 50.0), (1000.0, 20.0), (5e4, 50.0)):
            assert delay.production_rule_delay(
                spread, y, sim_params_eta200, 0.0, constrained=False) == \
                pytest.approx(optimal_production_unconstrained(
                    spread, sim_params_eta200), rel=1e-14)

    def test_constrained_clips_to_zero(self, sim_params_eta200):
        xi = delay.production_rule_delay(-5e5, 50.0, sim_params_eta200,
                                         4 * HOUR)
        assert xi == 0.0

    def test_minimises_expected_terminal_cost(self, sim_params_eta200):
        """xi_h minimises (beta/2) xi^2 + (eta/2) E[(S - xi)^2] with S the
        Gaussian spread forecast h seconds ahead."""
        p = sim_params_eta200
        h, spread, y = 4 * HOUR, 5e4, 50.0
        m = error_bounds.mean_spread(h, spread, y, p)
        v = error_bounds.variance_spread(h, p)

        def expected_cost(xi):
            return 0.5 * p.beta * xi**2 + 0.5 * p.eta * (v + (m - xi) ** 2)

        xi_star = delay.production_rule_delay(spread, y, p, h,
                                              constrained=False)
        best = expected_cost(xi_star)
        for xi in np.linspace(xi_star - 2000.0, xi_star + 2000.0, 81):
            assert best <= expected_cost(xi) + 1e-9 * best

    def test_vectorised(self, sim_params_eta200):
        out = delay.production_rule_delay(np.array([-1e5, 0.0, 1e4]), 50.0,
                                          sim_params_eta200, 3600.0)
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestDelayedVariance:
    def test_boundaries(self, sim_params_eta200):
        p = sim_params_eta200
        full = error_bounds.variance_spread(p.horizon, p)
        assert delay.variance_spread_delay(0.0, p) == pytest.approx(full)
        assert delay.variance_spread_delay(p.horizon, p) == \
            pytest.approx(0.0, abs=1e-6 * full)

    def test_decreasing_in_h(self, sim_params_eta200):
        grid = np.linspace(0.0, 24 * HOUR, 20)
        values = [delay.variance_spread_delay(h, sim_params_eta200)
                  for h in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestDelayedBound:
    def test_zero_delay_recovers_plain_bound(self, sim_params_eta200, state0):
        rep = delay.error_bound_delay(state0, sim_params_eta200, 0.0)
        plain = error_bounds.error_bound(24 * HOUR, state0.spread, state0.y,
                                         sim_params_eta200)
        assert rep.bound == pytest.approx(plain.bound, rel=1e-12, abs=0)
        assert rep.shortfall_probability == pytest.approx(
            plain.shortfall_probability, rel=1e-12, abs=0)

    def test_decreasing_to_zero(self, sim_params_eta200):
        p = sim_params_eta200
        state = MarketState(t=0.0, x=0.0, y=20.0, d=50_000.0)
        grid = np.linspace(0.0, p.horizon, 12)
        values = [delay.error_bound_delay(state, p, h).bound for h in grid]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0

    def test_delay_beyond_time_to_go_rejected(self, sim_params_eta200):
        state = MarketState(t=23 * HOUR, x=0.0, y=50.0, d=50_000.0)
        with pytest.raises(ValueError):
            delay.error_bound_delay(state, sim_params_eta200, 4 * HOUR)


class TestPostDecisionRate:
    def test_zero_delay_is_plain_rate(self, sim_params_eta200, state0):
        q0 = closed_form.feedback_rate(24 * HOUR, state0.spread, state0.y,
                                       sim_params_eta200)
        assert delay.post_decision_mean_rate(state0, sim_params_eta200, 0.0) \
            == pytest.approx(q0, rel=1e-12)

    def test_decision_now_is_plain_rate(self, sim_params_eta200):
        """At h = tau the decision is taken now, V_h = 0, and the rate
        after it is the plain rate."""
        p, h = sim_params_eta200, 4 * HOUR
        state = MarketState(t=p.horizon - h, x=0.0, y=50.0, d=50_000.0)
        q0 = closed_form.feedback_rate(h, state.spread, state.y, p)
        assert delay.post_decision_mean_rate(state, p, h) == q0

    def test_never_exceeds_pre_decision_rate(self, sim_params_eta200):
        p = sim_params_eta200
        for y in (20.0, 35.0, 50.0):
            state = MarketState(t=0.0, x=0.0, y=y, d=50_000.0)
            q0 = closed_form.feedback_rate(p.horizon, state.spread, state.y, p)
            for h in (3600.0, 4 * HOUR, 12 * HOUR):
                assert delay.post_decision_mean_rate(state, p, h) <= q0

    def test_shift_formula(self, sim_params_eta200):
        p = sim_params_eta200
        state = MarketState(t=0.0, x=0.0, y=20.0, d=50_000.0)
        h = 4 * HOUR
        q0 = closed_form.feedback_rate(p.horizon, state.spread, state.y, p)
        v_h = delay.variance_spread_delay(h, p)
        m = error_bounds.mean_spread(p.horizon, state.spread, state.y, p)
        shift = (p.eta * reduced_cost_coefficient(p)
                 / (p.beta * ((p.eta + p.nu) * h + 2.0 * p.gamma))
                 * math.sqrt(v_h) * error_bounds.psi_tilde(m / math.sqrt(v_h)))
        assert delay.post_decision_mean_rate(state, p, h) == \
            pytest.approx(q0 - shift, rel=1e-12)


class TestAfterDelivery:
    @pytest.mark.parametrize("call", [
        lambda state, p, j: closed_form.expected_rate_turning_time(state, p, j),
        lambda state, p, j: delay.error_bound_delay(state, p, HOUR),
        lambda state, p, j: delay.post_decision_mean_rate(state, p, HOUR),
        lambda state, p, j: closed_form.value_aux(state, p),
        lambda state, p, j: closed_form.value_aux_jump(state, p, j),
        lambda state, p, j: error_bounds.error_bound_jump(
            p.horizon - state.t, state.spread, state.y, p, j),
        lambda state, p, j: closed_form.feedback_rate(
            p.horizon - state.t, state.spread, state.y, p),
        lambda state, p, j: closed_form.feedback_rate_jump(
            p.horizon - state.t, state.spread, state.y, p, j),
        lambda state, p, j: closed_form.feedback_rate_jump(
            p.horizon - state.t, state.spread, state.y, p, None),
        lambda state, p, j: error_bounds.mean_spread(
            p.horizon - state.t, state.spread, state.y, p),
        lambda state, p, j: error_bounds.mean_spread_jump(
            p.horizon - state.t, state.spread, state.y, p, j),
    ], ids=["turning-time", "error-bound-delay", "post-decision-rate",
            "value-aux", "value-aux-jump", "error-bound-jump", "feedback-rate",
            "feedback-rate-jump", "feedback-rate-no-jumps", "mean-spread",
            "mean-spread-jump"])
    def test_state_after_delivery_is_refused(self, sim_params_eta200,
                                             jumps_negative, call):
        """A day after delivery (t = 2 T) every state function refuses the
        negative time-to-go, and says so, instead of a value or a message
        about the delay."""
        p = sim_params_eta200
        state = MarketState(t=2.0 * p.horizon, x=0.0, y=50.0, d=50_000.0)
        with pytest.raises(ValueError, match="time-to-go must be nonnegative"):
            call(state, p, jumps_negative)

    @pytest.mark.parametrize("tau", [math.nan, np.array([0.0, 3600.0, -1e-9])],
                             ids=["nan", "array"])
    @pytest.mark.parametrize("call", [
        lambda tau, p, j: closed_form.feedback_rate(tau, 5e4, 50.0, p),
        lambda tau, p, j: closed_form.feedback_rate_jump(tau, 5e4, 50.0, p, j),
        lambda tau, p, j: error_bounds.mean_spread(tau, 5e4, 50.0, p),
    ], ids=["feedback-rate", "feedback-rate-jump", "mean-spread"])
    def test_nan_or_negative_node_is_refused(self, sim_params_eta200,
                                             jumps_negative, call, tau):
        """A nan time-to-go, or an array of them with one node after
        delivery, is refused as a whole, not turned into rates."""
        with pytest.raises(ValueError, match="time-to-go must be nonnegative"):
            call(tau, sim_params_eta200, jumps_negative)


class TestCompositePolicy:
    def test_rate_switches_at_decision_time(self, sim_params_eta200):
        p = sim_params_eta200
        policy = delay.composite_delay_policy(p, 4 * HOUR)
        assert policy.production_time == p.horizon - 4 * HOUR
        s_before, s_after = 10 * HOUR, 21 * HOUR
        q_before = policy.rate_rule(s_before, 0.0, 50.0, 50_000.0)
        assert q_before == pytest.approx(closed_form.feedback_rate(
            p.horizon - s_before, 50_000.0, 50.0, p), rel=1e-14)
        q_after = policy.rate_rule(s_after, 0.0, 50.0, 50_000.0)
        assert q_after == pytest.approx(closed_form.feedback_rate_pure_trader(
            p.horizon - s_after, 50_000.0, 50.0, p), rel=1e-14)

    def test_production_rule_is_delayed_rule(self, sim_params_eta200):
        policy = delay.composite_delay_policy(sim_params_eta200, 4 * HOUR)
        assert policy.production_rule(5e4, 50.0) == pytest.approx(
            delay.production_rule_delay(5e4, 50.0, sim_params_eta200,
                                        4 * HOUR), rel=1e-14)

    def test_zero_delay_produces_at_horizon(self, sim_params_eta200):
        policy = delay.composite_delay_policy(sim_params_eta200, 0.0)
        assert policy.production_time == sim_params_eta200.horizon
