"""Command-line interface: tables, simulations, verification, bounds.

Subcommands, each with the only options it accepts
--------------------------------------------------
tables      Emit the three benchmark tables (varying horizon, demand,
            initial price) as CSV files.  A config with a jump block is
            refused, and delay_hours is not read.
            --config --out
simulate    Sample Euler trajectories under the optimal policy for a
            scenario (nojump | jump-positive | jump-negative | delay) and
            write them as CSV.  A scenario names a bundled preset, so
            --scenario and --config exclude each other.
            --config --scenario --seed --paths --dt --out --d0 --y0 --x0
verify      Run the independent verification suite (RK4 integration of the
            config's own Riccati system, jump-corrected when it has jumps;
            quadrature, martingale and cost checks); nonzero exit on any
            failure.  It checks the model without delay and does not read
            delay_hours.  The simulated paths start with no inventory,
            and --dt must be below horizon / 120.
            --config --seed --paths --dt --out --d0 --y0
errorbound  Print the approximation-error bound and shortfall probability
            for a configured initial state.
            --config --seed --d0 --y0 --x0
delay       Print the delay constant, delayed value and bound, production
            quantity and post-decision mean rate.  A config with a jump
            block is refused.
            --config --delay-hours --d0 --y0 --x0

``--config`` accepts either a bundled preset name (table13, sim-nojump,
sim-jump-pos, sim-jump-neg, sim-delay) or a path to a JSON parameter file.
Any other option is a usage error.  Exit codes: 0 success, 1 validation
or usage error, 2 verification failure (or an oracle integration that blew
up), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import closed_form, delay as delay_mod, error_bounds, oracle, simulate
from .model import HOUR, MarketState, check_seed, load_param_file

#: Fixed default seed so that every subcommand is reproducible by default.
DEFAULT_SEED = 20_240_817

#: Default initial state (demand forecast, quoted price, inventory) shared
#: by the benchmark tables and the simulation scenarios.
DEFAULT_D0 = 50_000.0
DEFAULT_Y0 = 50.0
DEFAULT_X0 = 0.0

PRESETS = ("table13", "sim-nojump", "sim-jump-pos", "sim-jump-neg", "sim-delay")
SCENARIO_PRESETS = {
    "nojump": "sim-nojump",
    "jump-positive": "sim-jump-pos",
    "jump-negative": "sim-jump-neg",
    "delay": "sim-delay",
}

#: Threshold below which probabilities and bounds are rendered as a
#: sub-threshold marker in table output.
_TINY = 1e-16

#: Refusal of a jump config by the commands that model no jumps.
_NO_JUMPS = "the config has a jump block: tables and delay model no jumps"


def resolve_config(name_or_path: str | None, default: str) -> Path:
    """Map a preset name or an existing non-directory path (a ``<(...)``
    pipe too) to a parameter file path; ``None`` selects ``default``."""
    name = default if name_or_path is None else name_or_path
    if name in PRESETS:
        return Path(str(resources.files("intraday").joinpath(
            f"presets/{name}.json")))
    path = Path(name)
    if not path.exists() or path.is_dir():
        raise ValueError(f"config {name!r} is neither a bundled preset "
                         f"({', '.join(PRESETS)}) nor an existing file")
    return path


def _format_tail(value: float) -> str:
    if value == 0.0:
        return "0"
    if value < _TINY:
        return "<1e-16"
    return f"{value:.3g}"


def _table_row(params, tau: float, d0: float, y0: float):
    state = MarketState(t=0.0, x=DEFAULT_X0, y=y0, d=d0)
    tabled = replace(params, horizon=tau)
    value = closed_form.value_aux(state, tabled)
    report = error_bounds.error_bound(tau, d0 - DEFAULT_X0, y0, tabled)
    return value, report.shortfall_probability, report.bound


def cmd_tables(args) -> int:
    params, jumps, _ = load_param_file(resolve_config(args.config, "table13"))
    if jumps is not None:
        raise ValueError(_NO_JUMPS)
    specs = [
        ("table1.csv", "T_hours",
         [(f"{t:g}",) + _table_row(params, t * HOUR, DEFAULT_D0, DEFAULT_Y0)
          for t in (1, 8, 24, 50)]),
        ("table2.csv", "D0_mw",
         [(f"{d0:g}",) + _table_row(params, 24 * HOUR, d0, DEFAULT_Y0)
          for d0 in (500.0, 5000.0, 50_000.0, 500_000.0)]),
        ("table3.csv", "Y0_eur_per_mw",
         [(f"{y0:g}",) + _table_row(params, 24 * HOUR, DEFAULT_D0, y0)
          for y0 in (500.0, 50.0, 40.0, 30.0, 20.0)]),
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, label, rows in specs:
        path = out / filename
        with path.open("w", newline="") as handle:
            handle.write(f"{label},shortfall_probability,value_eur,"
                         "error_bound_eur\n")
            for varied, value, prob, bound in rows:
                handle.write(f"{varied},{_format_tail(prob)},"
                             f"{value:.3g},{_format_tail(bound)}\n")
        print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    if args.scenario is not None and args.config is not None:
        raise ValueError("--scenario selects a bundled preset; pass "
                         "--scenario or --config, not both")
    default = SCENARIO_PRESETS.get(args.scenario)
    if args.scenario is not None and default is None:
        raise ValueError(f"unknown scenario {args.scenario!r}; expected one "
                         f"of {', '.join(SCENARIO_PRESETS)}")
    params, jumps, delay_seconds = load_param_file(
        resolve_config(args.config, default or "sim-nojump"))
    if delay_seconds is not None:
        policy = delay_mod.composite_delay_policy(params, delay_seconds)
    else:
        policy = simulate.optimal_policy(params, jumps)
    # paths that overflow float64 are refused by estimate_cost, before any
    # file is written, in place of numpy's warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        paths = simulate.sample_paths(
            params, jumps, policy, args.paths, args.dt, args.seed,
            d0=args.d0, y0=args.y0, x0=args.x0)
        cost = simulate.estimate_cost(paths, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    destination = simulate.export_csv(paths, out / "paths.csv")
    print(f"wrote {destination}")
    print(f"mean realized cost: {cost.mean:.6g} EUR"
          + (f" (stderr {cost.stderr:.3g})" if paths.n_paths > 1 else ""))
    return 0


def cmd_verify(args) -> int:
    params, jumps, _ = load_param_file(
        resolve_config(args.config, "sim-nojump"))
    report = oracle.verification_report(
        params, jumps, seed=args.seed, n_paths=args.paths, dt=args.dt,
        d0=args.d0, y0=args.y0)
    text = oracle.format_report(report)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(text)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out / 'report.txt'} and {out / 'report.json'}")
    if not report["passed"]:
        print("error: verification checks failed", file=sys.stderr)
        return 2
    return 0


def cmd_errorbound(args) -> int:
    check_seed(args.seed)  # checked, not read: the bound draws nothing
    params, jumps, delay_seconds = load_param_file(
        resolve_config(args.config, "sim-nojump"))
    tau = params.horizon
    state = MarketState(t=0.0, x=args.x0, y=args.y0, d=args.d0)
    if delay_seconds is not None:
        report = delay_mod.error_bound_delay(state, params, delay_seconds)
        kind = f"delay (h = {delay_seconds / HOUR:g} h)"
    else:  # without jumps this is the closed-form no-jump bound
        report = error_bounds.error_bound_jump(
            tau, state.spread, state.y, params, jumps)
        kind = "no-jump" if jumps is None else "jump"
    print(f"model: {kind}")
    print(f"error bound: {report.bound:.6g} EUR")
    print(f"shortfall probability: {report.shortfall_probability:.6g}")
    print(f"mean terminal spread: {report.moments.mean:.6g} MW")
    print(f"variance terminal spread: {report.moments.variance:.6g} MW^2")
    return 0


def cmd_delay(args) -> int:
    params, jumps, delay_seconds = load_param_file(
        resolve_config(args.config, "sim-delay"))
    if jumps is not None:  # --delay-hours must not get round the refusal
        raise ValueError(_NO_JUMPS)
    h = args.delay_hours * HOUR if args.delay_hours is not None else delay_seconds
    if h is None:
        raise ValueError("no delay configured; set delay_hours in the config "
                         "or pass --delay-hours")
    state = MarketState(t=0.0, x=args.x0, y=args.y0, d=args.d0)
    k_h = delay_mod.delay_constant(h, params)
    value = delay_mod.value_aux_delay(state, params, h)
    bound = delay_mod.error_bound_delay(state, params, h)
    xi = delay_mod.production_rule_delay(state.spread, state.y, params, h)
    rate = delay_mod.post_decision_mean_rate(state, params, h)
    print(f"delay h: {h / HOUR:g} h")
    print(f"delay constant K_h: {k_h:.6g} EUR")
    print(f"value with delay: {value:.6g} EUR")
    print(f"error bound: {bound.bound:.6g} EUR")
    print(f"shortfall probability: {bound.shortfall_probability:.6g}")
    print(f"production at decision state: {xi:.6g} MW")
    print(f"post-decision mean rate: {rate:.6g} MW/s")
    return 0


#: Shared options; each subcommand registers only the ones it reads.
_OPTIONS = {
    "--config": dict(default=None,
                     help="bundled preset name or parameter file path"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help="in [0, 2**64)"),
    "--paths": dict(type=int, default=1),
    "--dt": dict(type=float, default=60.0, help="simulation step, seconds"),
    "--out": dict(default="out", help="output directory"),
    "--d0": dict(type=float, default=DEFAULT_D0),
    "--y0": dict(type=float, default=DEFAULT_Y0),
    "--x0": dict(type=float, default=DEFAULT_X0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intraday",
        description="Closed-form optimal intraday trading: tables, "
                    "simulation, verification, error bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, options):
        p = sub.add_parser(name, help=summary)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
        return p

    add("tables", cmd_tables, "emit benchmark tables as CSV", "--config --out")
    p = add("simulate", cmd_simulate, "sample trajectories as CSV",
            "--config --seed --paths --dt --out --d0 --y0 --x0")
    p.add_argument("--scenario", default=None,
                   help="named scenario (selects a bundled preset): "
                        + " | ".join(sorted(SCENARIO_PRESETS)))
    p = add("verify", cmd_verify, "run the verification suite",
            "--config --seed --paths --dt --out --d0 --y0")
    p.set_defaults(paths=2000)
    add("errorbound", cmd_errorbound, "print the error bound",
        "--config --seed --d0 --y0 --x0")
    p = add("delay", cmd_delay, "print delay quantities",
            "--config --d0 --y0 --x0")
    p.add_argument("--delay-hours", type=float, default=None)
    # argparse's private matcher takes -5e4 for an option: add exponents
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; 2 is reserved for
        # verification failure, and a bad command line is a validation error.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValueError as exc:  # json.JSONDecodeError included
        error, code = exc, 1
    except OverflowError:  # a float power of a huge parameter
        error, code = "a value overflows float64", 1
    except RuntimeError as exc:  # the oracle could not integrate the config
        error, code = exc, 2
    except OSError as exc:
        error, code = exc, 3
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
