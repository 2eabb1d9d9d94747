"""Tests of the benchmark itself: self-time arithmetic, patch restoration,
and that each workload's correctness check rejects a corrupted output."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from intraday import cli, error_bounds, model, simulate  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and
    # [9, 12] (clipped to [9, 10]); [1, 4] has the child [2, 3].
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == pytest.approx(
        [10.0 - 5.0 - 1.0, 2.0, 3.0, 3.0, 1.0])


def test_per_iteration_sums_calls_and_self_time():
    tracer = spans.Tracer()
    tracer.names = ["a", "b", "b", "a"]
    tracer.parents = [-1, 0, 0, -1]
    tracer.iterations = [1, 1, 1, 2]
    tracer.starts = [0.0, 1.0, 2.0, 5.0]
    tracer.ends = [4.0, 1.5, 3.0, 6.0]
    table = spans.per_iteration(tracer)
    assert table[1]["a"] == [1, pytest.approx(2.5)]
    assert table[1]["b"] == [2, pytest.approx(1.5)]
    assert table[2]["a"] == [1, pytest.approx(1.0)]


def _bindings():
    import intraday

    modules = [m for n, m in sys.modules.items()
               if n == "intraday" or n.startswith("intraday.")]
    return {(m.__name__, attr): value for m in modules
            for attr, value in vars(m).items() if callable(value)}


def test_patches_are_restored_after_a_traced_run():
    before = _bindings()
    philox = np.random.Philox
    tracer = spans.Tracer()
    with tracer.patched(1):
        assert cli.load_param_file is not before[("intraday.cli",
                                                   "load_param_file")]
        assert workloads.run_cli(["delay"])[0] == 0
    assert _bindings() == before
    assert np.random.Philox is philox
    table = spans.per_iteration(tracer)
    assert table[1]["cli.main"][0] == 1
    assert table[1]["model.load_param_file"][0] == 1
    assert table[1]["delay.delay_constant"][0] >= 1


def test_patches_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().patched(1):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_rng_streams_are_counted_inside_sample_paths():
    params, jumps, _ = workloads.load_preset("sim-jump-neg")
    policy = simulate.optimal_policy(params, jumps)
    tracer = spans.Tracer()
    with tracer.patched(3):
        simulate.sample_paths(params, jumps, policy, 3, 60.0, 5)
    assert tracer.counters[(3, "simulate.rng_streams")] == 12
    assert tracer.counters[(3, "simulate.paths")] == 3


@pytest.fixture(scope="module")
def small_paths():
    params, jumps, _ = workloads.load_preset("sim-jump-neg")
    policy = simulate.optimal_policy(params, jumps)
    return simulate.sample_paths(params, jumps, policy, 3, 60.0, 11,
                                 d0=cli.DEFAULT_D0, y0=cli.DEFAULT_Y0)


def test_csv_check_rejects_one_flipped_byte(tmp_path, small_paths):
    csv = simulate.export_csv(small_paths, tmp_path / "paths.csv")
    assert workloads.csv_matches(csv, small_paths)
    data = bytearray(csv.read_bytes())
    row = data.index(b"\n", len(workloads.CSV_HEADER) + 1000) + 1
    column = data.index(b",", data.index(b",", row) + 1) + 1   # X of a row
    data[column + 1] ^= 0x01
    csv.write_bytes(bytes(data))
    assert not workloads.csv_matches(csv, small_paths)


def test_csv_check_rejects_unparsable_and_truncated_files(tmp_path,
                                                          small_paths):
    csv = simulate.export_csv(small_paths, tmp_path / "paths.csv")
    text = csv.read_text()
    csv.write_text(text.replace("50000.0", "5oooo.0", 1))
    assert not workloads.csv_matches(csv, small_paths)
    csv.write_text(text[:text.rindex("\n", 0, -1) + 1])
    assert not workloads.csv_matches(csv, small_paths)


def test_mc_check_rejects_z_of_10():
    assert workloads.mc_cost_ok(1.0e6 + 3.9e3, 1.0e3, 1.0e6)
    assert not workloads.mc_cost_ok(1.0e6 + 10.0e3, 1.0e3, 1.0e6)
    assert not workloads.mc_cost_ok(1.0e6 - 10.0e3, 1.0e3, 1.0e6)


@pytest.mark.parametrize("preset", ["sim-delay", "table13"])
@pytest.mark.parametrize("tau_frac,spread,y", [(0.5, 3e4, 50.0),
                                               (0.9, -2e3, 120.0),
                                               (0.1, 9e4, -20.0)])
def test_bound_check_rejects_psi_off_by_1e3(preset, tau_frac, spread, y):
    params, _, _ = workloads.load_preset(preset)
    tau = tau_frac * params.horizon
    r = model.reduced_cost_coefficient(params)
    prefactor = params.eta * r / (2.0 * params.beta)
    m = float(error_bounds.mean_spread(tau, spread, y, params))
    v = error_bounds.variance_spread(tau, params)
    z = m / math.sqrt(v)
    bound = error_bounds.error_bound(tau, spread, y, params).bound
    log_bound = error_bounds.log_error_bound(tau, spread, y, params)
    assert workloads.log_bound_ok(log_bound, prefactor, v, z)
    assert not workloads.log_bound_ok(log_bound + math.log1p(1e-3),
                                      prefactor, v, z)
    if bound > 1e-250:
        assert workloads.bound_ok(bound, prefactor, v, z)
        assert not workloads.bound_ok(bound * (1.0 + 1e-3), prefactor, v, z)


def test_times_are_scaled_by_the_reference_around_them():
    ref = run.REFERENCE_S
    # iterations of 2 s on average while the reference ran at half speed
    scaled = run.at_reference_speed([1.0, 3.0], [(ref, 2.0 * ref),
                                                 (2.0 * ref, 3.0 * ref)])
    assert scaled == pytest.approx(1.0)


def test_mc_cost_derives_time_to_a_tenth_of_a_percent(tmp_path):
    mc = workloads.McCost(0, tmp_path)
    mc.rel_vars = [4e-6, 1e-6, 9e-6]
    derived = mc.derived(2.0)["time_to_0.1pct_s"]
    assert derived == {"value": pytest.approx(8.0), "unit": "s"}


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.layer_units(spans.TRACED)
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
