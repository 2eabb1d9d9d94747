"""Unit tests for model primitives, production rules and parameter I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intraday.model import (
    DAY,
    HOUR,
    JumpParams,
    MarketState,
    ModelParams,
    cost_after_production,
    load_param_file,
    optimal_production_constrained,
    optimal_production_unconstrained,
    reduced_cost_coefficient,
    terminal_cost,
)


def make_params(**overrides):
    base = dict(sigma0=1 / 60, sigma_d=1000 / 60, beta=0.002, eta=100.0,
                mu=0.0, nu=4e-5, gamma=2.22, rho=0.8, horizon=24 * HOUR)
    base.update(overrides)
    return ModelParams(**base)


class TestReducedCoefficient:
    def test_harmonic_composition(self):
        params = make_params(eta=100.0, beta=0.002)
        assert reduced_cost_coefficient(params) == pytest.approx(
            100.0 * 0.002 / 100.002, rel=1e-15)

    def test_pure_trader_limit(self):
        params = make_params(beta=None)
        assert params.pure_trader
        assert reduced_cost_coefficient(params) == params.eta

    def test_infinite_beta_normalised_to_none(self):
        params = make_params(beta=math.inf)
        assert params.pure_trader
        assert params.beta is None

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    def test_r_below_both(self, eta, beta):
        params = make_params(eta=eta, beta=beta)
        r = reduced_cost_coefficient(params)
        assert 0 < r < min(eta, beta) + 1e-12


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        dict(gamma=0.0), dict(gamma=-1.0), dict(eta=0.0), dict(beta=-0.5),
        dict(sigma0=0.0), dict(sigma_d=-1.0), dict(nu=-1e-9),
        dict(rho=1.5), dict(rho=-1.01), dict(horizon=0.0),
    ])
    def test_bad_params_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_params(**overrides)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            MarketState(t=-1.0, x=0.0, y=0.0, d=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=-1e-6), dict(p_plus=1.5), dict(p_plus=-0.1),
        dict(delta_plus=-1.0), dict(pi_plus=-1.0),
        dict(delta_minus=1.0), dict(pi_minus=1.0),
    ])
    def test_bad_jumps_rejected(self, kwargs):
        base = dict(lam=1.5 / DAY, p_plus=0.5, delta_plus=1500.0,
                    delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            JumpParams(**base)

    @given(field=st.sampled_from(["sigma0", "sigma_d", "beta", "eta", "mu",
                                  "nu", "gamma", "rho", "horizon"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_params_rejected(self, field, value):
        if field == "beta" and value == math.inf:
            assert make_params(beta=value).pure_trader
            return
        with pytest.raises(ValueError):
            make_params(**{field: value})

    @given(field=st.sampled_from(["lam", "p_plus", "delta_plus",
                                  "delta_minus", "pi_plus", "pi_minus"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_jumps_rejected(self, field, value):
        base = dict(lam=1.5 / DAY, p_plus=0.5, delta_plus=1500.0,
                    delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        base[field] = value
        with pytest.raises(ValueError, match="finite"):
            JumpParams(**base)

    @given(field=st.sampled_from(["t", "x", "y", "d"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_state_rejected(self, field, value):
        base = dict(t=0.0, x=0.0, y=50.0, d=5e4)
        base[field] = value
        with pytest.raises(ValueError):
            MarketState(**base)

    def test_zero_size_jumps_allowed(self):
        jumps = JumpParams(lam=1.5 / DAY, p_plus=1.0, delta_plus=0.0,
                           delta_minus=0.0, pi_plus=0.0, pi_minus=0.0)
        assert jumps.delta == 0.0 and jumps.pi == 0.0

    def test_jump_means(self):
        jumps = JumpParams(lam=1.0 / DAY, p_plus=0.3, delta_plus=1500.0,
                           delta_minus=-1500.0, pi_plus=10.0, pi_minus=-10.0)
        assert jumps.p_minus == pytest.approx(0.7)
        assert jumps.delta == pytest.approx(0.3 * 1500 - 0.7 * 1500)
        assert jumps.pi == pytest.approx(0.3 * 10 - 0.7 * 10)

    def test_spread_property(self):
        state = MarketState(t=0.0, x=300.0, y=50.0, d=1000.0)
        assert state.spread == 700.0


class TestTerminalCost:
    def test_formula(self):
        params = make_params(beta=0.002, eta=100.0)
        assert terminal_cost(1000.0, 400.0, params) == pytest.approx(
            0.5 * 0.002 * 400.0**2 + 0.5 * 100.0 * 600.0**2)

    def test_pure_trader_cannot_produce(self):
        params = make_params(beta=None)
        with pytest.raises(ValueError):
            terminal_cost(1000.0, 1.0, params)
        assert terminal_cost(1000.0, 0.0, params) == pytest.approx(
            0.5 * params.eta * 1000.0**2)

    @given(st.floats(-1e5, 1e5))
    def test_unconstrained_production_minimises(self, spread):
        params = make_params()
        xi_star = optimal_production_unconstrained(spread, params)
        best = terminal_cost(spread, xi_star, params)
        for xi in np.linspace(xi_star - 500.0, xi_star + 500.0, 41):
            assert best <= terminal_cost(spread, xi, params) + 1e-9 * abs(best)

    def test_constrained_production_clips(self):
        params = make_params()
        assert optimal_production_constrained(-100.0, params) == 0.0
        assert optimal_production_constrained(100.0, params) == pytest.approx(
            optimal_production_unconstrained(100.0, params))

    def test_cost_after_production_branches(self):
        params = make_params()
        r = reduced_cost_coefficient(params)
        assert cost_after_production(100.0, params) == pytest.approx(
            0.5 * r * 100.0**2)
        assert cost_after_production(-100.0, params) == pytest.approx(
            0.5 * params.eta * 100.0**2)
        assert cost_after_production(-100.0, params, constrained=False) == \
            pytest.approx(0.5 * r * 100.0**2)

    def test_cost_after_production_consistent_with_rule(self):
        params = make_params()
        for spread in (-2000.0, -1.0, 0.0, 3.0, 5000.0):
            xi = optimal_production_constrained(spread, params)
            assert cost_after_production(spread, params) == pytest.approx(
                terminal_cost(spread, xi, params), rel=1e-12, abs=1e-12)

    def test_vectorised(self):
        params = make_params()
        spread = np.array([-100.0, 0.0, 100.0])
        out = cost_after_production(spread, params)
        assert out.shape == (3,)


def write_config(tmp_path, payload, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE_CONFIG = {
    "sigma0": 1 / 60, "sigma_d": 1000 / 60, "beta": 0.002, "eta": 100.0,
    "mu": 0.0, "nu": 4e-5, "gamma": 2.22, "rho": 0.8, "horizon_hours": 24,
}

#: The jump block of sim-jump-neg.
JUMP_BLOCK = {"lambda_per_day": 1.5, "p_plus": 0.3, "delta_plus": 1500,
              "delta_minus": -1500, "pi_plus": 10, "pi_minus": -10}


class TestLoadParamFile:
    def test_round_trip_units(self, tmp_path):
        params, jumps, _ = load_param_file(write_config(
            tmp_path, dict(BASE_CONFIG, jump=JUMP_BLOCK), "jump.json"))
        assert params.horizon == 24 * HOUR
        assert jumps.lam == pytest.approx(1.5 / DAY)
        _, _, delay = load_param_file(write_config(
            tmp_path, dict(BASE_CONFIG, delay_hours=4), "delay.json"))
        assert delay == 4 * HOUR

    def test_jumps_with_delay_rejected(self, tmp_path):
        """No command models delayed production under jumps, so a config
        that holds both is refused rather than half read."""
        payload = dict(BASE_CONFIG, jump=JUMP_BLOCK, delay_hours=4)
        with pytest.raises(ValueError, match="not both"):
            load_param_file(write_config(tmp_path, payload))

    def test_plain_config(self, tmp_path):
        params, jumps, delay = load_param_file(
            write_config(tmp_path, BASE_CONFIG))
        assert jumps is None and delay is None
        assert params.eta == 100.0

    def test_null_beta_is_pure_trader(self, tmp_path):
        payload = dict(BASE_CONFIG, beta=None)
        params, _, _ = load_param_file(write_config(tmp_path, payload))
        assert params.pure_trader

    def test_unknown_key_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG, bogus=1.0)
        with pytest.raises(ValueError, match="unknown parameter keys"):
            load_param_file(write_config(tmp_path, payload))

    def test_missing_key_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG)
        del payload["gamma"]
        with pytest.raises(ValueError, match="missing parameter keys"):
            load_param_file(write_config(tmp_path, payload))

    def test_unknown_jump_key_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG)
        payload["jump"] = {"lambda_per_day": 1.5, "p_plus": 1.0,
                           "delta_plus": 0, "delta_minus": 0,
                           "pi_plus": 0, "pi_minus": 0, "extra": 1}
        with pytest.raises(ValueError, match="unknown jump keys"):
            load_param_file(write_config(tmp_path, payload))

    def test_delay_out_of_range_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG, delay_hours=25)
        with pytest.raises(ValueError, match="delay_hours"):
            load_param_file(write_config(tmp_path, payload))

    def test_non_numeric_value_rejected(self, tmp_path):
        payload = dict(BASE_CONFIG, eta="high")
        with pytest.raises(ValueError, match="must be a number"):
            load_param_file(write_config(tmp_path, payload))

    @pytest.mark.parametrize("key", ["mu", "nu", "horizon_hours"])
    def test_non_finite_value_rejected(self, tmp_path, key):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, **{key: math.nan})))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="finite"):
            load_param_file(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_param_file(path)

    def test_corrupt_json_raises_decode_error(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_param_file(path)


#: Float hex of every field that load_param_file returns for the bundled
#: presets and the jump and delay files: sim-jump-neg's values and the
#: variations.
SIM_HEX = dict(sigma0="0x1.1111111111111p-6", sigma_d="0x1.0aaaaaaaaaaabp+4",
               beta="0x1.0624dd2f1a9fcp-9", eta="0x1.9000000000000p+7",
               mu="0x0.0p+0", nu="0x1.4f8b588e368f1p-15",
               gamma="0x1.1c28f5c28f5c3p+1", rho="0x1.999999999999ap-1",
               horizon="0x1.5180000000000p+16")
ETA100_HEX = dict(SIM_HEX, eta="0x1.9000000000000p+6")
JUMP_HEX = dict(lam="0x1.23456789abcdfp-16", p_plus="0x1.3333333333333p-2",
                delta_plus="0x1.7700000000000p+10",
                delta_minus="-0x1.7700000000000p+10",
                pi_plus="0x1.4000000000000p+3", pi_minus="-0x1.4000000000000p+3")
DELAY_HEX = "0x1.c200000000000p+13"
GOLDEN_PRESETS = {
    "table13": (dict(SIM_HEX, nu="0x1.b7cdfd9d7bdbbp-34",
                     gamma="0x1.b7cdfd9d7bdbbp-34"), None, None),
    "sim-nojump": (ETA100_HEX, None, None),
    "sim-jump-pos": (SIM_HEX, dict(JUMP_HEX, p_plus="0x1.0000000000000p+0"),
                     None),
    "sim-jump-neg": (SIM_HEX, JUMP_HEX, None),
    "sim-delay": (SIM_HEX, None, DELAY_HEX),
}


def float_hex(loaded):
    """``load_param_file``'s result with every float as its hex string."""
    def fields(record):
        return None if record is None else {
            key: float(value).hex() for key, value in vars(record).items()}

    params, jumps, delay = loaded
    return fields(params), fields(jumps), None if delay is None else delay.hex()


class TestGoldenLoad:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PRESETS))
    def test_presets(self, name):
        from intraday.cli import resolve_config
        loaded = load_param_file(resolve_config(name, name))
        assert float_hex(loaded) == GOLDEN_PRESETS[name]

    def test_round_trip_file(self, tmp_path):
        loaded = load_param_file(write_config(
            tmp_path, dict(BASE_CONFIG, jump=JUMP_BLOCK), "jump.json"))
        assert float_hex(loaded) == (ETA100_HEX, JUMP_HEX, None)
        loaded = load_param_file(write_config(
            tmp_path, dict(BASE_CONFIG, delay_hours=4), "delay.json"))
        assert float_hex(loaded) == (ETA100_HEX, None, DELAY_HEX)


class TestPresets:
    @pytest.mark.parametrize("name", ["table13", "sim-nojump", "sim-jump-pos",
                                      "sim-jump-neg", "sim-delay"])
    def test_bundled_presets_load(self, name):
        from intraday.cli import resolve_config
        params, jumps, delay = load_param_file(resolve_config(name, name))
        assert params.horizon == 24 * HOUR
        if name == "sim-delay":
            assert delay == 4 * HOUR
        if name.startswith("sim-jump"):
            assert jumps is not None
