"""The benchmark workloads and their correctness checks.

Each workload turns the benchmark seed into inputs (``make_input``, not
timed), runs one iteration through the public API of ``intraday``
(``run``, timed) and checks the outputs (``check``, not timed), returning
one boolean per check made.  CLI commands run in-process through
``cli.main`` with stdout captured in memory, and write their files to the
workload's scratch directory.
"""

from __future__ import annotations

import io
import json
import math
import statistics
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import numpy as np

from intraday import cli, closed_form, delay, error_bounds, model, simulate
from intraday.model import MarketState

CSV_HEADER = "time_s,path_id,X,Y,D,P_hat,q,jump_flag,xi_at_decision\n"

#: |z| limit of the Monte Carlo cost against the closed form.  4 sigma, not
#: 3, so that a change re-keying the RNG streams is not failed by chance.
MC_Z_LIMIT = 4.0

#: Relative tolerance of error bounds against a 50-digit psi (absolute on
#: log-bounds).  The bound of bounds far in the tail underflows; below
#: BOUND_TINY only the log-bound is compared.
PSI_RTOL = 1e-6
BOUND_TINY = 1e-300


def iteration_seed(seed: int, iteration: int) -> int:
    """Seed of one iteration's Monte Carlo draws, derived from the run seed."""
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def load_preset(name: str):
    return model.load_param_file(cli.resolve_config(name, name))


def run_cli(argv) -> tuple[int, str]:
    """``intraday <argv>`` in-process; returns the exit code and stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main([str(arg) for arg in argv])
    return code, buffer.getvalue()


def csv_matches(path, ref: simulate.PathSet) -> bool:
    """True when the CSV at ``path`` parses back bit-identically to ``ref``,
    one block of ``len(ref.times)`` rows per path and nothing after."""
    n_rec = ref.times.size
    decision = ref.times == ref.production_index * ref.dt
    try:
        with open(path) as handle:
            if handle.readline() != CSV_HEADER:
                return False
            for path_id in range(ref.n_paths):
                lines = list(islice(handle, n_rec))
                if len(lines) != n_rec:
                    return False
                rows = np.loadtxt(lines, delimiter=",", ndmin=2)
                expected = np.column_stack([
                    ref.times, np.full(n_rec, path_id), ref.x[path_id],
                    ref.y[path_id], ref.d[path_id], ref.p_hat[path_id],
                    ref.q[path_id], ref.jump_flag[path_id],
                    np.where(decision, ref.xi[path_id], 0.0)])
                if (rows.shape != expected.shape
                        or rows.tobytes() != expected.tobytes()):
                    return False
            return handle.read() == ""
    except ValueError:
        return False


def mc_cost_ok(estimate: float, stderr: float, value: float) -> bool:
    """Monte Carlo cost within MC_Z_LIMIT standard errors of the closed form."""
    return stderr > 0.0 and abs(estimate - value) <= MC_Z_LIMIT * stderr


def psi_mp(z: float):
    """psi(z) = (z^2 + 1) Phi(-z) - z phi(z) in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        return ((z**2 + 1) * mpmath.erfc(z / mpmath.sqrt(2)) / 2
                - z * mpmath.npdf(z))


def bound_ok(bound: float, prefactor: float, variance: float, z: float) -> bool:
    """Bound ``prefactor * variance * psi(z)`` agrees with a 50-digit psi."""
    ref = float(prefactor * variance * psi_mp(z))
    return math.isfinite(bound) and abs(bound - ref) <= PSI_RTOL * ref + BOUND_TINY


def log_bound_ok(log_bound: float, prefactor: float, variance: float,
                 z: float) -> bool:
    """Log-bound agrees with the log of a 50-digit bound."""
    import mpmath

    with mpmath.workdps(50):
        ref = float(mpmath.log(prefactor * variance * psi_mp(z)))
    return abs(log_bound - ref) <= PSI_RTOL


class Verify:
    name = "verify"
    sizes = {"config": "sim-jump-neg", "paths": 2000, "rk4_steps": 10_000,
             "seed": "CLI default"}

    def __init__(self, seed: int, scratch: Path):
        # The CLI default seed keeps the verification's own 3-sigma Monte
        # Carlo checks deterministic; a random seed fails them by chance.
        self.out = scratch / "verify"

    def make_input(self, iteration: int):
        return ["verify", "--config", "sim-jump-neg", "--out", self.out]

    def run(self, argv):
        return run_cli(argv)

    def check(self, argv, output):
        code, _ = output
        report_file = self.out / "report.json"
        report = json.loads(report_file.read_text())
        report_file.unlink()
        return [code == 0, report["passed"] is True]


class SimulateCsv:
    name = "simulate-csv"
    paths, dt = 100, 60.0
    sizes = {"scenario": "jump-negative", "paths": paths, "dt": dt,
             "rows": paths * 1441}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "simulate"
        self.params, self.jumps, _ = load_preset("sim-jump-neg")
        self.policy = simulate.optimal_policy(self.params, self.jumps)

    def make_input(self, iteration: int):
        return iteration_seed(self.seed, iteration)

    def run(self, mc_seed):
        return run_cli(["simulate", "--scenario", "jump-negative",
                        "--paths", self.paths, "--dt", self.dt,
                        "--seed", mc_seed, "--out", self.out])

    def check(self, mc_seed, output):
        code, _ = output
        ref = simulate.sample_paths(
            self.params, self.jumps, self.policy, self.paths, self.dt, mc_seed,
            d0=cli.DEFAULT_D0, y0=cli.DEFAULT_Y0, x0=cli.DEFAULT_X0)
        csv = self.out / "paths.csv"
        ok = csv_matches(csv, ref)
        csv.unlink(missing_ok=True)
        return [code == 0, ok]


class McCost:
    name = "mc-cost"
    paths, dt = 4096, 60.0
    sizes = {"config": "sim-jump-neg", "paths": paths, "dt": dt,
             "record_every": None}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.params, self.jumps, _ = load_preset("sim-jump-neg")
        self.policy = simulate.optimal_policy(self.params, self.jumps,
                                              constrained=False)
        state = MarketState(t=0.0, x=cli.DEFAULT_X0, y=cli.DEFAULT_Y0,
                            d=cli.DEFAULT_D0)
        self.value = closed_form.value_aux_jump(state, self.params, self.jumps)
        self.rel_vars = []

    def make_input(self, iteration: int):
        return iteration_seed(self.seed, iteration)

    def run(self, mc_seed):
        paths = simulate.sample_paths(
            self.params, self.jumps, self.policy, self.paths, self.dt, mc_seed,
            d0=cli.DEFAULT_D0, y0=cli.DEFAULT_Y0, x0=cli.DEFAULT_X0,
            record_every=None)
        return simulate.estimate_cost(paths, self.params)

    def check(self, mc_seed, cost):
        self.rel_vars.append((cost.stderr / cost.mean) ** 2)
        return [mc_cost_ok(cost.mean, cost.stderr, self.value)]

    def derived(self, wall_s: float) -> dict:
        """Time to a cost estimate with a relative standard error of 0.1 %,
        at the pace of ``wall_s`` per iteration."""
        return {"time_to_0.1pct_s": {
            "value": wall_s * statistics.median(self.rel_vars) / 1e-6,
            "unit": "s"}}


class BoundSweep:
    name = "bound-sweep"
    presets = ("sim-delay", "table13", "sim-jump-neg")
    states_per_preset, jump_calls, checked_per_preset = 100, 20, 10
    sizes = {"presets": list(presets), "states": 3 * states_per_preset,
             "error_bound_jump_calls": jump_calls,
             "mpmath_checked_states": 3 * checked_per_preset}

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.out = scratch / "tables"
        self.loaded = {name: load_preset(name) for name in self.presets}

    def make_input(self, iteration: int):
        """Per preset: tau, spread, y and h / tau for each state."""
        rng = np.random.default_rng([self.seed, iteration])
        n = self.states_per_preset
        grids = {}
        for name in self.presets:
            params = self.loaded[name][0]
            grids[name] = np.column_stack([
                rng.uniform(0.02, 1.0, n) * params.horizon,
                rng.uniform(-1e4, 1e5, n), rng.uniform(-50.0, 200.0, n),
                rng.uniform(0.0, 0.9, n)])
        checked = {name: rng.choice(n, self.checked_per_preset, replace=False)
                   for name in self.presets}
        jump_seeds = rng.integers(0, 2**32, self.jump_calls + 1)
        return grids, checked, jump_seeds

    def run(self, inputs):
        grids, _, jump_seeds = inputs
        results = {}
        for name, grid in grids.items():
            params, jumps, _ = self.loaded[name]
            rows = []
            for tau, spread, y, h_frac in grid.tolist():
                state = MarketState(t=params.horizon - tau, x=0.0, y=y, d=spread)
                h = h_frac * tau
                rows.append((
                    error_bounds.error_bound(tau, spread, y, params).bound,
                    error_bounds.log_error_bound(tau, spread, y, params),
                    delay.error_bound_delay(state, params, h).bound,
                    delay.post_decision_mean_rate(state, params, h),
                    closed_form.value_aux(state, params),
                    closed_form.value_aux_jump(state, params, jumps)))
            results[name] = np.array(rows)
        params, jumps, _ = self.loaded["sim-jump-neg"]
        jump_reports = [
            error_bounds.error_bound_jump(tau, spread, y, params, jumps,
                                          seed=int(seed))
            for (tau, spread, y, _), seed in zip(
                grids["sim-jump-neg"][:self.jump_calls].tolist(), jump_seeds)]
        codes = [run_cli(["tables", "--out", self.out])[0],
                 run_cli(["errorbound", "--config", "sim-jump-neg",
                          "--seed", jump_seeds[-1]])[0],
                 run_cli(["delay"])[0]]
        return results, jump_reports, codes

    def check(self, inputs, outputs):
        grids, checked, _ = inputs
        results, jump_reports, codes = outputs
        oks = [code == 0 for code in codes]
        oks += [math.isfinite(r.bound) and r.bound >= 0.0
                and math.isfinite(r.mc_stderr) for r in jump_reports]
        for name, grid in grids.items():
            params = self.loaded[name][0]
            oks.append(bool(np.isfinite(results[name]).all()))
            r = model.reduced_cost_coefficient(params)
            prefactor = params.eta * r / (2.0 * params.beta)
            for index in checked[name]:
                tau, spread, y, h_frac = grid[index]
                h = h_frac * tau
                bound, log_bound, delay_bound = results[name][index, :3]
                m = float(error_bounds.mean_spread(tau, spread, y, params))
                v = error_bounds.variance_spread(tau, params)
                z = m / math.sqrt(v)
                oks.append(bound_ok(bound, prefactor, v, z))
                oks.append(log_bound_ok(log_bound, prefactor, v, z))
                v_h = v - error_bounds.variance_spread(h, params)
                prefactor_h = prefactor * (
                    ((r + params.nu) * h + 2.0 * params.gamma)
                    / ((params.eta + params.nu) * h + 2.0 * params.gamma))
                oks.append(bound_ok(delay_bound, prefactor_h, v_h,
                                    m / math.sqrt(v_h)))
        return oks


#: The timed workloads, by name.
WORKLOADS = {workload.name: workload
             for workload in (Verify, SimulateCsv, McCost, BoundSweep)}
