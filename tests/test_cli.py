"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import hashlib
import json
import math
import os
import warnings

import pytest

from intraday import cli, closed_form, oracle, simulate


def run(argv):
    return cli.main(argv)


def edited_preset(config, name, edit):
    """Write preset ``name`` to ``config`` after ``edit(payload)``."""
    payload = json.loads(cli.resolve_config(name, name).read_text())
    edit(payload)
    config.write_text(json.dumps(payload))
    return str(config)


class TestTables:
    def test_writes_three_tables(self, tmp_path):
        assert run(["tables", "--out", str(tmp_path)]) == 0
        rows = {}
        for name, expected_rows in (("table1.csv", 4), ("table2.csv", 4),
                                    ("table3.csv", 5)):
            path = tmp_path / name
            assert path.exists()
            with path.open() as handle:
                content = list(csv.reader(handle))
            header = content[0]
            assert header[1:] == ["shortfall_probability", "value_eur",
                                  "error_bound_eur"]
            assert len(content) - 1 == expected_rows
            rows[name] = content[1:]
        assert [r[0] for r in rows["table1.csv"]] == ["1", "8", "24", "50"]
        assert [r[0] for r in rows["table3.csv"]] == ["500", "50", "40", "30",
                                                      "20"]

    def test_jump_config_exits_1(self, tmp_path, capsys):
        """The tables are the no-jump closed forms: a jump config used to
        write the same bytes as its no-jump parameters."""
        out = tmp_path / "tables"
        assert run(["tables", "--config", "sim-jump-neg",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: the config has a jump block: tables "
                                "and delay model no jumps\n")
        assert captured.out == "" and not out.exists()

    def test_delay_hours_is_not_read(self, tmp_path):
        delayed = edited_preset(tmp_path / "delayed.json", "table13",
                                lambda p: p.update(delay_hours=4))
        for config, out in ((delayed, "delayed"), ("table13", "plain")):
            assert run(["tables", "--config", config,
                        "--out", str(tmp_path / out)]) == 0
        for name in ("table1.csv", "table2.csv", "table3.csv"):
            assert ((tmp_path / "delayed" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


class TestSimulate:
    def test_scenario_writes_paths(self, tmp_path):
        assert run(["simulate", "--scenario", "nojump", "--paths", "2",
                    "--dt", "3600", "--out", str(tmp_path)]) == 0
        path = tmp_path / "paths.csv"
        with path.open() as handle:
            content = list(csv.DictReader(handle))
        assert len(content) == 2 * 25  # 24 hourly steps + initial node

    def test_last_node_past_the_horizon(self, tmp_path):
        """At dt = 86 400 / 147 s, n dt lies 1.5e-11 s past T: the run
        writes every node, the last at T, with the finite rates taken
        there."""
        assert run(["simulate", "--scenario", "nojump", "--paths", "3",
                    "--dt", "587.7551020408164", "--out", str(tmp_path)]) == 0
        with (tmp_path / "paths.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 * 148
        last = [row for row in rows if row["time_s"] == rows[-1]["time_s"]]
        assert last[0]["time_s"] == "86400.0"
        assert len(last) == 3
        assert all(math.isfinite(float(row["q"])) for row in last)

    def test_delay_scenario_runs(self, tmp_path):
        assert run(["simulate", "--scenario", "delay", "--paths", "1",
                    "--dt", "3600", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "paths.csv").exists()

    def test_off_grid_production_time_is_validation_error(self, tmp_path,
                                                          capsys):
        """A 0.3 h delay puts T - h between the nodes of the hourly grid."""
        config = edited_preset(tmp_path / "delay.json", "sim-delay",
                               lambda payload: payload.update(delay_hours=0.3))
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--paths", "2",
                    "--dt", "3600", "--out", str(out)]) == 1
        assert "dt must divide the production time" in capsys.readouterr().err
        assert not (out / "paths.csv").exists()

    def test_unknown_scenario_is_validation_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", "bogus",
                    "--out", str(tmp_path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_with_config_is_validation_error(self, tmp_path, capsys):
        """A scenario names a bundled preset, so a config beside it would
        be ignored: the pair is refused before anything is written."""
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", "delay", "--config",
                    "sim-jump-neg", "--paths", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not both" in err
        assert not out.exists()

    def test_coarse_dt_with_jumps_is_validation_error(self, tmp_path):
        assert run(["simulate", "--scenario", "jump-positive", "--paths", "1",
                    "--dt", "3600", "--out", str(tmp_path)]) == 1

    def test_jump_scenario_runs_at_fine_dt(self, tmp_path):
        assert run(["simulate", "--scenario", "jump-negative", "--paths", "1",
                    "--dt", "60", "--out", str(tmp_path)]) == 0

    def test_pure_trader_exits_1_before_simulating(self, tmp_path,
                                                   monkeypatch, capsys):
        """A pure trader has no production rule for the optimal policy:
        refused up front, not after every path has been simulated."""
        def not_called(*args, **kwargs):
            raise AssertionError("paths were simulated")

        monkeypatch.setattr(simulate, "sample_paths", not_called)
        config = edited_preset(tmp_path / "pure-trader.json", "sim-nojump",
                               lambda p: p.update(beta=None))
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite beta" in err
        assert not (out / "paths.csv").exists()

    def test_overflowing_cost_exits_1_without_csv(self, tmp_path, capsys):
        """D0 = 1e200 overflows the trading cost: refused before the CSV
        is written, without numpy's warnings (pytest is configured to turn
        an escaped warning into an error)."""
        out = tmp_path / "out"
        assert run(["simulate", "--paths", "2", "--dt", "60", "--d0", "1e200",
                    "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith("error:") and "not finite" in err
        assert out_text == ""
        assert not (out / "paths.csv").exists()

    def test_golden_csv_bytes(self, tmp_path):
        assert run(["simulate", "--scenario", "jump-negative", "--paths", "3",
                    "--dt", "60", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "paths.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "ef1354f4da948dd0be28600c742a37366c7b48582400cc2b65949cf004cfb5b7")


class TestVerify:
    def test_verify_passes_and_writes_report(self, tmp_path):
        assert run(["verify", "--paths", "400", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        text = (tmp_path / "report.txt").read_text()
        assert "overall: PASS" in text

    def test_verify_detects_tampered_closed_form(self, tmp_path, monkeypatch,
                                                 capsys):
        original = closed_form.riccati_coefficients

        def tampered(tau, params):
            c = original(tau, params)
            return closed_form.CoefficientSet(c.a * 1.01, c.b, c.f, c.g, c.h,
                                              c.k)

        monkeypatch.setattr(closed_form, "riccati_coefficients", tampered)
        assert run(["verify", "--paths", "400", "--out", str(tmp_path)]) == 2
        assert "verification checks failed" in capsys.readouterr().err

    def test_one_path_exits_1_before_the_oracle(self, tmp_path, monkeypatch,
                                                capsys):
        """One path has no standard error, so the Monte Carlo checks could
        only fail: refused before any work, with no report written."""
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the path count check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        out = tmp_path / "report"
        assert run(["verify", "--paths", "1", "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith("error:") and "at least 2" in err
        assert out_text == ""
        assert not out.exists()

    def test_too_coarse_dt_exits_1_before_the_oracle(self, tmp_path,
                                                     monkeypatch, capsys):
        """verify records every 60th node, and the drift slope needs 3 of
        them before the horizon: at dt = 720 s the 24 h horizon has 120
        steps and 2 such nodes.  It used to run the oracle and 2000 paths,
        then exit 1."""
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the dt check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        out = tmp_path / "report"
        assert run(["verify", "--dt", "720", "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert err.startswith("error: dt must be below horizon / 120 = 720 s")
        assert out_text == "" and not out.exists()

    @pytest.mark.parametrize("dt", ["60", "15"])
    def test_jump_config_passes(self, dt, tmp_path):
        """sim-jump-neg at the default step and at 15 s, with every warning
        an error; CI's "verify time" step times the same two runs."""
        assert run(["verify", "--config", "sim-jump-neg", "--dt", dt,
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True

    def test_coarsest_dt_passes(self, tmp_path):
        """dt = 600 s: 144 steps, 3 recorded nodes before the horizon."""
        assert run(["verify", "--dt", "600", "--paths", "400",
                    "--out", str(tmp_path)]) == 0

    def test_blown_up_integration_exits_2(self, tmp_path, capsys):
        """sigma0 = 1e20 makes the RK4 oracle blow up at its first step:
        the config is not verified, and no traceback is printed."""
        config = edited_preset(tmp_path / "loud.json", "sim-jump-neg",
                               lambda p: p.update(sigma0=1e20))
        assert run(["verify", "--config", config,
                    "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Riccati integration blew up")
        assert "Traceback" not in err

    @pytest.mark.parametrize("gamma", [0.05, 0.03, 0.0098])
    def test_moderately_stiff_config_passes(self, gamma, tmp_path):
        """Stiffness ratios 1.8e3 to 9.0e3: the RK4 oracle must meet 1e-8
        on a correct closed form (a linear-time grid missed it by up to
        7e-3)."""
        config = edited_preset(tmp_path / "stiff.json", "sim-nojump",
                               lambda p: p.update(gamma=gamma))
        out = tmp_path / "report"
        assert run(["verify", "--config", config, "--out", str(out)]) == 0
        ode = json.loads((out / "report.json").read_text())["checks"][
            "riccati_ode"]
        assert ode["tolerance"] == oracle.ODE_RTOL and ode["passed"]

    def test_pure_trader_passes(self, tmp_path, capsys):
        config = edited_preset(tmp_path / "pure-trader.json", "sim-nojump",
                               lambda p: p.update(beta=None))
        assert run(["verify", "--config", config,
                    "--out", str(tmp_path / "report")]) == 0
        captured = capsys.readouterr()
        assert "overall: PASS" in captured.out
        assert captured.err == ""


class TestErrorBound:
    def test_plain_config(self, capsys):
        assert run(["errorbound"]) == 0
        out = capsys.readouterr().out
        assert "model: no-jump" in out
        assert "error bound" in out and "shortfall probability" in out

    def test_jump_config_prints_no_stderr(self, capsys):
        """The jump bound is deterministic: no Monte Carlo error line."""
        assert run(["errorbound", "--config", "sim-jump-neg"]) == 0
        out = capsys.readouterr().out
        assert "model: jump" in out
        assert "mc stderr" not in out

    @pytest.mark.parametrize("state", [
        [], ["--d0", "20000", "--y0", "150"], ["--y0", "1e300"]],
        ids=["default", "tail", "underflow"])
    def test_jump_states_write_no_stderr(self, state, capsys):
        """The three states of CI's "jump error bound" step, with every
        warning an error."""
        assert run(["errorbound", "--config", "sim-jump-neg", *state]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["errorbound", "simulate", "verify"])
    def test_zero_jump_intensity_is_refused(self, command, tmp_path,
                                            monkeypatch, capsys):
        """No jumps has one encoding: a config without the jump block."""
        zero = edited_preset(tmp_path / "zero.json", "sim-jump-neg",
                             lambda p: p["jump"].update(lambda_per_day=0))
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        assert run([command, "--config", zero]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "omit the jump block" in err
        assert out == "" and not any((tmp_path / "run").iterdir())

    def test_1e9_jumps_a_day_exits_0(self, tmp_path, capsys):
        """The bound draws no jumps, so any jump rate is computed quietly."""
        config = edited_preset(
            tmp_path / "frequent-jumps.json", "sim-jump-neg",
            lambda p: p["jump"].update(lambda_per_day=1e9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["errorbound", "--config", config]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "shortfall probability: 1\n" in out
        bound = float(out.split("error bound: ")[1].split()[0])
        assert 0.0 < bound < float("inf")

    def test_delay_config(self, capsys):
        assert run(["errorbound", "--config", "sim-delay"]) == 0
        assert "delay (h = 4 h)" in capsys.readouterr().out


class TestDelayCommand:
    def test_prints_delay_quantities(self, capsys):
        assert run(["delay"]) == 0
        out = capsys.readouterr().out
        for needle in ("delay constant K_h", "value with delay", "error bound",
                       "production at decision state",
                       "post-decision mean rate"):
            assert needle in out

    def test_override_delay_hours(self, capsys):
        assert run(["delay", "--delay-hours", "2"]) == 0
        assert "delay h: 2 h" in capsys.readouterr().out

    def test_no_delay_configured_is_validation_error(self, capsys):
        assert run(["delay", "--config", "sim-nojump"]) == 1
        assert "no delay configured" in capsys.readouterr().err


class TestUsageErrors:
    """argparse's own exit code 2 would read as a verification failure."""

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["simulate", "--paths", "abc"],
        ["simulate", "--scenario", "nojump", "--workers", "2"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert run(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tables", "--paths", "7"],
        ["verify", "--x0", "1"],
        ["delay", "--seed", "5"],
    ])
    def test_option_the_command_does_not_read_exits_1(self, argv, capsys):
        assert run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run(["errorbound", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["errorbound", "--d0", "nan"],
        ["errorbound", "--config", "sim-jump-neg", "--y0", "inf"],
        ["delay", "--x0=-inf"],
        ["simulate", "--paths", "1", "--dt", "3600", "--d0", "nan"],
    ])
    def test_non_finite_state_is_validation_error(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the default --out is ./out
        assert run(argv) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_nan_in_config_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sigma0": 0.016, "sigma_d": 16.7, "beta": 0.002, '
                       '"eta": 100, "mu": NaN, "nu": 4e-5, "gamma": 2.22, '
                       '"rho": 0.8, "horizon_hours": 24}')
        assert run(["errorbound", "--config", str(bad)]) == 1
        assert "mu must be finite" in capsys.readouterr().err

    def test_infinite_beta_in_config_is_validation_error(self, tmp_path,
                                                         capsys):
        """A pure trader's beta is null; Infinity is not a second spelling."""
        config = edited_preset(tmp_path / "inf.json", "sim-nojump",
                               lambda p: p.update(beta=float("inf")))
        assert run(["errorbound", "--config", config]) == 1
        assert "beta must be positive and finite" in capsys.readouterr().err


class TestSeedRange:
    """Seeds key an unsigned 64-bit Philox generator."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", "1", "--seed", str(2**64)],
        ["errorbound", "--config", "sim-jump-neg", "--seed", "-1"],
        ["errorbound", "--seed", "-1"],
        ["errorbound", "--config", "sim-delay", "--seed", str(2**64)],
        ["verify", "--seed", "-1"],
    ])
    def test_out_of_range_seed_is_validation_error(self, argv, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the default --out is ./out
        assert run(argv) == 1
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestOversizedGrid:
    """A grid that cannot fit in memory, or a dt that is not a finite
    positive number, is rejected before anything is allocated."""

    @pytest.mark.parametrize("argv, message", [
        (["--dt", "1e-300"], "physical memory"),
        (["--dt", "nan"], "dt must be positive and finite"),
        (["--paths", str(10**12)], "physical memory"),
    ])
    def test_simulate_exits_1(self, argv, message, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)  # the default --out is ./out
        assert run(["simulate", "--paths", "1", *argv]) == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["--dt", "nan"], "dt must be positive and finite"),
        (["--dt", "7"], "dt must divide the horizon"),
        (["--paths", "0"], "n_paths must be at least 1"),
        (["--paths", str(10**12)], "physical memory"),
    ])
    def test_verify_exits_1_before_the_oracle(self, argv, message, tmp_path,
                                              monkeypatch, capsys):
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the grid check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        monkeypatch.chdir(tmp_path)
        assert run(["verify", *argv, "--out", "report"]) == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestOverflowingValue:
    """A state or parameter whose closed-form value overflows float64 is a
    validation error: exit 1 with an ``error:`` line, nothing written."""

    @pytest.mark.parametrize("argv", [
        ["errorbound"], ["tables", "--out", "tables"],
        ["verify", "--paths", "2", "--out", "report"], ["delay"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_parameter_exits_1(self, argv, tmp_path, monkeypatch,
                                           capsys):
        def edit(payload):
            payload.update(sigma0=1e200)
            if argv[0] == "delay":
                payload.update(delay_hours=4)

        config = edited_preset(tmp_path / "huge.json", "sim-nojump", edit)
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        assert run([*argv, "--config", config]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "overflows float64" in err
        assert "Traceback" not in err and out == ""
        assert not any((tmp_path / "run").iterdir())

    def test_verify_exits_1_before_the_oracle(self, tmp_path, monkeypatch,
                                              capsys):
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the value check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--paths", "2", "--d0", "1e200",
                    "--out", "report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows float64" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--d0", "--y0"])
    def test_delay_exits_1(self, option, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["delay", option, "1e200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows float64" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())


class TestOverflowingBound:
    """A terminal spread or error bound that overflows float64 is refused
    by the report types: exit 1 with an ``error:`` line and no numpy
    warning; a huge z in the tail of psi is 0, quietly."""

    @pytest.mark.parametrize("argv, message", [
        (["--y0", "1e308"], "terminal spread overflows"),
        (["--d0=-1e200"], "error bound overflows"),
        (["--config", "sim-jump-neg", "--d0=-1e200"], "error bound overflows"),
        (["--config", "sim-delay", "--y0", "1e308"],
         "terminal spread overflows"),
    ])
    def test_errorbound_exits_1(self, argv, message, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["errorbound", *argv]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err and out == ""
        assert caught == []

    @pytest.mark.parametrize("argv", [
        ["errorbound", "--config", "sim-jump-neg", "--y0", "1e300"],
        ["delay", "--d0", "1e150"],
    ])
    def test_tail_overflow_is_quiet(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 0
        assert "error bound: 0 EUR" in capsys.readouterr().out
        assert caught == []


class TestNegativeExponent:
    """argparse's private ``_negative_number_matcher`` reads only ``-123``
    and ``-1.5`` as numbers; the CLI's parser widens it to exponents."""

    @pytest.mark.parametrize("argv", [
        ["errorbound", "--d0", "-5e4"],
        ["errorbound", "--x0", "-1E3"],
        ["delay", "--y0", "-2.5e1"],
    ])
    def test_same_bytes_as_the_equals_form(self, argv, capsys):
        *head, option, value = argv
        assert run([*head, f"{option}={value}"]) == 0
        expected = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == expected


class TestOversizedJumpDraws:
    """1e12 jumps per day would be drawn path by path until the memory ran
    out; both commands that simulate refuse them before anything runs."""

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_exits_1_before_the_oracle(self, command, tmp_path, monkeypatch,
                                       capsys):
        def not_called(*args, **kwargs):
            raise AssertionError("the oracle ran before the grid check")

        monkeypatch.setattr(oracle, "integrate_jump_riccati", not_called)
        config = edited_preset(
            tmp_path / "frequent.json", "sim-jump-neg",
            lambda p: p["jump"].update(lambda_per_day=1e12))
        monkeypatch.chdir(tmp_path)
        assert run([command, "--config", config, "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jump draws per path" in err
        assert not (tmp_path / "out").exists()


#: (argv, sha256 of stdout).  The test id is the argv alone, so that
#: retaking a digest does not rename the test.
_STDOUT_DIGESTS = [
    (["errorbound", "--config", "sim-nojump"],
     "ff31b7a0b2d82e49ea976e207064dc6bcbdc1f11857c611408f2325ba97ffa07"),
    (["errorbound", "--config", "sim-jump-neg"],
     "9d36a2de5488f97ffa27d5266e9ac1d574d81d61c273783281b6a8547ba6ea26"),
    (["errorbound", "--config", "sim-delay"],
     "85b438e1684bec0d8bb632c18d6df4991e458bc6376bcc5931c5d1ad9dc31312"),
    (["errorbound", "--config", "table13"],
     "35b371e7ee1fc2e674a487db34bc65622b6c12fb0db607bf23c19c973d2df48e"),
    (["delay"],
     "0a875bceeef72db46c0ffb43eef610dd7f764d423df2157303c186e55bc76fff"),
    (["delay", "--delay-hours", "0"],
     "f5ad344e71184b3c36fd307466381f1771e6f598e3f5a55df18b157f7d55b20d"),
]


class TestGoldenOutputs:
    """sha256 of outputs that no other test pins byte for byte."""

    @pytest.mark.parametrize(
        "argv, digest", _STDOUT_DIGESTS,
        ids=["-".join(argv) for argv, _ in _STDOUT_DIGESTS])
    def test_stdout(self, argv, digest, capsys):
        assert run(argv) == 0
        assert hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest() == digest

    def test_delay_scenario_csv(self, tmp_path):
        assert run(["simulate", "--scenario", "delay", "--paths", "40",
                    "--dt", "60", "--out", str(tmp_path)]) == 0
        data = (tmp_path / "paths.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "1f29412f5357d0e09c656244cde15bfaaeb926150e740288b70a06a38bb039bd")


class TestConfigHandling:
    def test_unknown_config_name(self, capsys):
        assert run(["tables", "--config", "no-such-preset"]) == 1
        assert "neither a bundled preset" in capsys.readouterr().err

    def test_empty_or_directory_config_refused(self, tmp_path, capsys):
        """An empty name is not absent (it used to select the default
        preset), and a directory exited 3 with a raw OSError."""
        for config in ("", str(tmp_path)):
            assert run(["errorbound", "--config", config]) == 1
            assert "neither a bundled preset" in capsys.readouterr().err

    def test_pipe_config_accepted(self, capsys):
        """A pipe, as a shell's ``<(...)`` passes it, is not a regular file
        but is read like one."""
        preset = cli.resolve_config("sim-delay", "sim-delay").read_text()
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as writer:
            writer.write(preset)
        try:
            assert run(["errorbound", "--config",
                        f"/dev/fd/{read_end}"]) == 0
        finally:
            os.close(read_end)
        assert "error bound" in capsys.readouterr().out

    def test_config_with_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = {"sigma0": 0.016, "sigma_d": 16.7, "beta": 0.002,
                   "eta": 100, "mu": 0, "nu": 4e-5, "gamma": 2.22,
                   "rho": 0.8, "horizon_hours": 24, "extra": 1}
        bad.write_text(json.dumps(payload))
        assert run(["tables", "--config", str(bad),
                    "--out", str(tmp_path)]) == 1
        assert "unknown parameter keys" in capsys.readouterr().err

    def test_corrupt_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["tables", "--config", str(bad),
                    "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["simulate", "errorbound", "delay",
                                         "verify"])
    def test_jumps_with_delay_exit_1(self, command, tmp_path, monkeypatch,
                                     capsys):
        """No command models delayed production under jumps; each used to
        drop half of such a config silently."""
        config = edited_preset(tmp_path / "both.json", "sim-jump-neg",
                               lambda p: p.update(delay_hours=4))
        monkeypatch.chdir(tmp_path)  # the default --out is ./out
        assert run([command, "--config", config]) == 1
        assert "not both" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_delay_hours_with_jump_config_exit_1(self, capsys):
        """``--delay-hours`` used to get round the refusal above: delay
        printed the no-jump quantities of a jump config."""
        assert run(["delay", "--config", "sim-jump-neg",
                    "--delay-hours", "4"]) == 1
        captured = capsys.readouterr()
        assert "error: the config has a jump block" in captured.err
        assert captured.out == ""

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        out = blocker / "sub"
        assert run(["tables", "--out", str(out)]) == 3

    def test_resolve_config_accepts_paths(self, tmp_path):
        payload = {"sigma0": 0.016, "sigma_d": 16.7, "beta": 0.002,
                   "eta": 100, "mu": 0, "nu": 4e-5, "gamma": 2.22,
                   "rho": 0.8, "horizon_hours": 24}
        good = tmp_path / "good.json"
        good.write_text(json.dumps(payload))
        assert cli.resolve_config(str(good), "table13") == good
