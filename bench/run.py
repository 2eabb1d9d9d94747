"""Benchmark of the intraday package: end-to-end and per-layer metrics.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload mc-cost --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); ``--trace 1`` runs traced and untraced iterations in turn
and reports the per-layer metrics.  ``--workload all`` runs the four
workloads one after another, each in its own process so that each has its
own peak RSS.  The line before the last line of stdout holds the run's
metadata; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:   # no worker threads: set before numpy loads BLAS
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SPANS = ROOT / ".bench_spans"   # the spans of each traced run, as JSON lines

#: Fresh interpreters timed per run for setup_s, and per traced run for
#: the import times; each metric is the median.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

#: Timed iterations made even when they outlast --seconds (per kind, in a
#: traced run), after one untimed warm-up iteration.
MIN_TIMED = 2

#: Median time of Reference.seconds() on the 2-core Xeon VM (Python 3.11,
#: numpy 2.4) the benchmark was written on.  Timed end-to-end metrics are
#: reported at this host speed.
REFERENCE_S = 0.036

IMPORTED = ("intraday", "intraday.model", "intraday.closed_form",
            "intraday.error_bounds", "intraday.delay", "intraday.simulate",
            "intraday.oracle", "intraday.cli", "scipy.stats")

#: The workloads of workloads.WORKLOADS, named before intraday is importable.
WORKLOAD_NAMES = ("verify", "simulate-csv", "mc-cost", "bound-sweep")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Derived per-layer metrics beyond <module>.<function>.calls/.self_s,
#: <module>.self_s and <module>.import_s.
DERIVED_UNITS = {
    "oracle.rk4_steps_per_s": "1/s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.rng_streams_per_path": "count",
    "simulate.export_csv.bytes": "bytes",
    "simulate.export_csv.mb_per_s": "MB/s",
    "error_bounds.psi.elems": "count",
    "error_bounds.psi.elems_per_s": "1/s",
    "trace.overhead_s": "s",
}


def _import_metric(module: str) -> str:
    short = module.removeprefix("intraday.") if module != "intraday" else module
    return f"{short}.import_s"


def layer_units(traced: dict) -> dict:
    """Name and unit of every per-layer metric, in output order."""
    units = {}
    for module, functions in traced.items():
        for function in functions:
            units[f"{module}.{function}.calls"] = "count"
            units[f"{module}.{function}.self_s"] = "s"
        units[f"{module}.self_s"] = "s"
    units.update({_import_metric(module): "s" for module in IMPORTED})
    units.update(DERIVED_UNITS)
    return units


def _python_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_seconds() -> dict:
    """Cumulative import time of each IMPORTED module, from ``-X importtime``."""
    samples = {module: [] for module in IMPORTED}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import intraday.cli"],
            cwd=ROOT, env=_python_env(), check=True, capture_output=True,
            text=True)
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {_import_metric(module): statistics.median(values)
            for module, values in samples.items()}


class Reference:
    """A fixed mix of the kinds of work the workloads do, without
    ``intraday``: float arithmetic in the interpreter, numpy vector
    arithmetic and Philox draws, float formatting and dict updates.  It is
    timed before and after every timed iteration and every set-up, to
    measure how fast the host runs at that moment.  Its numpy part writes
    into preallocated buffers, so that it does not depend on the state of
    the allocator."""

    def __init__(self):
        self.array = np.random.default_rng(0).standard_normal(100_000)
        self.out = np.empty_like(self.array)
        self.tmp = np.empty_like(self.array)
        self.floats = self.array[:3000].tolist()

    def seconds(self) -> float:
        a, out, tmp = self.array, self.out, self.tmp
        start = perf_counter()
        total = 0.0
        for i in range(80_000):
            total += (i * 0.5) ** 0.5
        np.random.Generator(np.random.Philox(7)).standard_normal(out=out)
        for _ in range(25):
            np.multiply(a, 0.1, out=tmp)
            np.exp(tmp, out=tmp)
            np.multiply(tmp, a, out=out)
            np.sqrt(np.abs(a, out=tmp), out=tmp)
            np.add(out, tmp, out=out)
        "".join([f"{x!r},{i},{x * 2.0!r}\n" for i, x in enumerate(self.floats)])
        table = {}
        for i in range(30_000):
            table[i % 997] = (i, str(i))
        return perf_counter() - start


def at_reference_speed(times: list, brackets: list) -> float:
    """Mean of ``times`` on a host on which the reference takes REFERENCE_S.
    ``times[i]`` was measured between the two reference times of
    ``brackets[i]``.  The host speed is taken from the sum of the reference
    times, which averages out the noise of single reference timings better
    than a ratio per iteration."""
    return (2.0 * REFERENCE_S * sum(times)
            / sum(before + after for before, after in brackets))


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so that
    the reference and the work it scales run on the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_seconds(reference: Reference) -> tuple[list, list]:
    """Wall times of fresh interpreters running ``import intraday.cli``, and
    the reference times before and after each."""
    times, brackets = [], []
    before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import intraday.cli"],
                       cwd=ROOT, env=_python_env(), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        after = reference.seconds()
        brackets.append((before, after))
        before = after
    return times, brackets


def measure(workload, seconds: float, reference: Reference,
            tracer=None) -> dict:
    """Warm up once, then time iterations while the next one, at the pace
    so far, ends within ``seconds``; with a tracer, every second iteration
    is traced.  The reference is timed between iterations."""
    stats = {"walls": [], "traced": [], "iterations": [], "refs": [],
             "attempted": 0, "failed": 0}

    def iterate(iteration: int, traced: bool) -> float | None:
        inputs = workload.make_input(iteration)
        context = tracer.patched(iteration) if traced else nullcontext()
        wall = None
        try:
            with context:
                start = perf_counter()
                output = workload.run(inputs)
                wall = perf_counter() - start
            oks = workload.check(inputs, output)
        except Exception:   # a failing iteration is counted, not fatal
            traceback.print_exc()
            oks = [False]
        stats["attempted"] += len(oks)
        stats["failed"] += oks.count(False)
        return wall

    iterate(0, traced=False)   # warm-up, untimed
    before = reference.seconds()
    min_iterations = MIN_TIMED * (2 if tracer else 1)
    iteration, start = 1, perf_counter()
    while True:
        traced = tracer is not None and iteration % 2 == 0
        wall = iterate(iteration, traced)
        if wall is not None:
            after = reference.seconds()
            stats["walls"].append(wall)
            stats["traced"].append(traced)
            stats["iterations"].append(iteration)
            stats["refs"].append((before, after))
            before = after
        elapsed = perf_counter() - start
        if (iteration >= min_iterations
                and elapsed * (iteration + 1) / iteration > seconds):
            return stats
        iteration += 1


def wall_seconds(stats: dict, traced: bool) -> float:
    """Mean iteration time at reference speed, of the traced or the
    untraced iterations."""
    kept = [(wall, refs) for wall, refs, kind in
            zip(stats["walls"], stats["refs"], stats["traced"])
            if kind == traced]
    return at_reference_speed([wall for wall, _ in kept],
                              [refs for _, refs in kept])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, stats: dict, import_s: dict) -> dict:
    """Per-layer metrics: medians over the traced iterations."""
    import spans

    table = spans.per_iteration(tracer)
    iterations = [i for i, traced in zip(stats["iterations"], stats["traced"])
                  if traced]
    metrics = {}

    def per_iteration(name: str, column: int) -> list:
        return [table[i][name][column] if name in table[i] else 0.0
                for i in iterations]

    def counter(key: str) -> list:
        return [tracer.counters.get((i, key), 0.0) for i in iterations]

    def ratio(numerators: list, denominators: list) -> float:
        return _median([n / d if d > 0 else 0.0
                        for n, d in zip(numerators, denominators)])

    for module, functions in spans.TRACED.items():
        module_self = [0.0] * len(iterations)
        for function in functions:
            name = f"{module}.{function}"
            self_s = per_iteration(name, 1)
            metrics[f"{name}.calls"] = _median(per_iteration(name, 0))
            metrics[f"{name}.self_s"] = _median(self_s)
            module_self = [a + b for a, b in zip(module_self, self_s)]
        metrics[f"{module}.self_s"] = _median(module_self)
    metrics.update(import_s)

    rk4_self = [a + b for a, b in zip(
        per_iteration("oracle.integrate_riccati", 1),
        per_iteration("oracle.integrate_jump_riccati", 1))]
    metrics["oracle.rk4_steps_per_s"] = ratio(counter("oracle.rk4_steps"),
                                             rk4_self)
    metrics["simulate.path_steps_per_s"] = ratio(
        counter("simulate.path_steps"), per_iteration(spans.SAMPLE_PATHS, 1))
    metrics["simulate.rng_streams_per_path"] = ratio(
        counter("simulate.rng_streams"), counter("simulate.paths"))
    csv_bytes = counter("simulate.export_csv.bytes")
    metrics["simulate.export_csv.bytes"] = _median(csv_bytes)
    metrics["simulate.export_csv.mb_per_s"] = ratio(
        [b / 1e6 for b in csv_bytes], per_iteration("simulate.export_csv", 1))
    psi_elems = counter("error_bounds.psi.elems")
    metrics["error_bounds.psi.elems"] = _median(psi_elems)
    metrics["error_bounds.psi.elems_per_s"] = ratio(
        psi_elems, per_iteration("error_bounds.psi", 1))
    metrics["trace.overhead_s"] = (wall_seconds(stats, traced=True)
                                   - wall_seconds(stats, traced=False))
    return metrics


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def metadata(args, workload, stats: dict) -> dict:
    import scipy

    src_lines = sum(len(path.read_text().splitlines())
                    for path in (SRC / "intraday").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": workload.sizes,
        "wall_samples": stats["traced"].count(False),
        "walls_s": stats["walls"], "traced": stats["traced"],
        "reference_s": stats["refs"],
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(), "src_lines": src_lines,
    }


def run_workload(args) -> dict:
    import spans
    import workloads

    cpu = pin_to_one_cpu()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    reference = Reference()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        meta = {}
        if args.trace:
            import_s = import_seconds()
            tracer = spans.Tracer()
            stats = measure(workload, args.seconds, reference, tracer)
            values = layer_metrics(tracer, stats, import_s)
            units = layer_units(spans.TRACED)
            SPANS.mkdir(exist_ok=True)
            spans_file = SPANS / f"{args.workload}-{args.seed}.jsonl"
            with open(spans_file, "w") as out:
                for span in tracer.spans():
                    out.write(json.dumps(span) + "\n")
            meta["spans"] = str(spans_file.relative_to(ROOT))
        else:
            setup, setup_refs = setup_seconds(reference)
            stats = measure(workload, args.seconds, reference)
            values = {
                "setup_s": statistics.median(
                    at_reference_speed([t], [refs])
                    for t, refs in zip(setup, setup_refs)),
                "wall_s": wall_seconds(stats, traced=False),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            meta = {"setup_raw_s": setup, "setup_reference_s": setup_refs,
                    "wall_raw_median_s": statistics.median(stats["walls"])}
            if hasattr(workload, "derived"):
                meta["derived"] = workload.derived(values["wall_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:   # another run still uses it
            pass
    failed_frac = stats["failed"] / max(stats["attempted"], 1)
    meta["cpu"] = cpu
    meta.setdefault("derived", {})["failed_frac"] = {"value": failed_frac,
                                                     "unit": "1"}
    print(json.dumps({"metadata": metadata(args, workload, stats) | meta}))
    return {"correct": stats["failed"] == 0, "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, one after another.  The merged
    metrics are named ``<workload>.<metric>`` and include each workload's
    derived metrics (failed_frac, and time_to_0.1pct_s of mc-cost)."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=True, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        derived = json.loads(lines[-2])["metadata"]["derived"]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in (result["metrics"] | derived).items():
            combined["metrics"][f"{name}.{metric}"] = value
            print(f"{name:13s} {metric:40s} {value['value']:.6g} "
                  f"{value['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "intraday" / "__init__.py").is_file():
        print(f"error: no intraday sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import intraday

    if Path(intraday.__file__).resolve().parent != (SRC / "intraday").resolve():
        print(f"error: imported intraday from {intraday.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
