"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import hashlib
import json

import pytest

from intraday import cli, closed_form, oracle


def run(argv):
    return cli.main(argv)


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


class TestSimulate:
    def test_scenario_writes_paths(self, tmp_path):
        assert run(["simulate", "--scenario", "nojump", "--paths", "2",
                    "--dt", "3600", "--out", str(tmp_path)]) == 0
        path = tmp_path / "paths.csv"
        with path.open() as handle:
            content = list(csv.DictReader(handle))
        assert len(content) == 2 * 25  # 24 hourly steps + initial node

    def test_delay_scenario_runs(self, tmp_path):
        assert run(["simulate", "--scenario", "delay", "--paths", "1",
                    "--dt", "3600", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "paths.csv").exists()

    def test_unknown_scenario_is_validation_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", "bogus",
                    "--out", str(tmp_path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_coarse_dt_with_jumps_is_validation_error(self, tmp_path):
        assert run(["simulate", "--scenario", "jump-positive", "--paths", "1",
                    "--dt", "3600", "--out", str(tmp_path)]) == 1

    def test_jump_scenario_runs_at_fine_dt(self, tmp_path):
        assert run(["simulate", "--scenario", "jump-negative", "--paths", "1",
                    "--dt", "60", "--out", str(tmp_path)]) == 0

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

    def test_pure_trader_passes(self, tmp_path, capsys):
        payload = json.loads(cli.resolve_config("sim-nojump", "sim-nojump")
                             .read_text())
        payload["beta"] = None
        config = tmp_path / "pure-trader.json"
        config.write_text(json.dumps(payload))
        assert run(["verify", "--config", str(config),
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

    def test_jump_config_reports_stderr(self, capsys):
        assert run(["errorbound", "--config", "sim-jump-neg"]) == 0
        out = capsys.readouterr().out
        assert "model: jump" in out
        assert "mc stderr" in out

    def test_oversized_jump_draw_exits_1(self, tmp_path, capsys):
        payload = json.loads(cli.resolve_config("sim-jump-neg", "sim-jump-neg")
                             .read_text())
        payload["jump"]["lambda_per_day"] = 1e9
        config = tmp_path / "frequent-jumps.json"
        config.write_text(json.dumps(payload))
        assert run(["errorbound", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "physical memory" in err

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

        monkeypatch.setattr(oracle, "integrate_riccati", not_called)
        monkeypatch.chdir(tmp_path)
        assert run(["verify", *argv, "--out", "report"]) == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestConfigHandling:
    def test_unknown_config_name(self, capsys):
        assert run(["tables", "--config", "no-such-preset"]) == 1
        assert "neither a bundled preset" in capsys.readouterr().err

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
