"""In-memory span tracing of the public functions of the intraday package.

A :class:`Tracer` replaces each traced function by a timing wrapper in
every ``intraday`` namespace that binds it (``cli.load_param_file`` as well
as ``model.load_param_file``), records one span per call and restores the
originals when the traced block ends, also on error.  Spans stay in memory;
:func:`self_times` turns them into per-function self time, the span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Traced public functions, by module of ``intraday``.
TRACED = {
    "cli": ("main", "cmd_tables", "cmd_simulate", "cmd_verify",
            "cmd_errorbound", "cmd_delay"),
    "model": ("load_param_file", "terminal_cost"),
    "closed_form": ("feedback_rate", "feedback_rate_jump",
                    "feedback_rate_pure_trader", "riccati_coefficients",
                    "jump_riccati_coefficients", "value_aux",
                    "value_aux_jump", "forecast_equilibrium"),
    "error_bounds": ("psi", "psi_tilde", "log_psi", "mean_spread",
                     "variance_spread", "error_bound", "log_error_bound",
                     "error_bound_jump"),
    "delay": ("error_bound_delay", "post_decision_mean_rate",
              "delay_constant", "production_rule_delay"),
    "simulate": ("sample_paths", "export_csv", "estimate_cost",
                 "martingale_diagnostics"),
    "oracle": ("verification_report", "integrate_riccati",
               "integrate_jump_riccati", "compare_with_closed_form",
               "variance_spread_quadrature"),
}

SAMPLE_PATHS = "simulate.sample_paths"


def _count_psi(tracer, function, args, kwargs, result):
    z = args[0] if args else kwargs["z"]
    tracer.count("error_bounds.psi.elems", np.size(z))


def _count_rk4(tracer, function, args, kwargs, result):
    tracer.count("oracle.rk4_steps", result.tau.size - 1)


def _count_paths(tracer, function, args, kwargs, result):
    arguments = inspect.signature(function).bind(*args, **kwargs).arguments
    n_steps = round(arguments["params"].horizon / arguments["dt"])
    tracer.count("simulate.paths", result.n_paths)
    tracer.count("simulate.path_steps", result.n_paths * n_steps)


def _count_csv(tracer, function, args, kwargs, result):
    tracer.count("simulate.export_csv.bytes", os.path.getsize(result))


#: Work counters taken from a traced call's arguments and result.
HOOKS = {
    "error_bounds.psi": _count_psi,
    "oracle.integrate_riccati": _count_rk4,
    "oracle.integrate_jump_riccati": _count_rk4,
    SAMPLE_PATHS: _count_paths,
    "simulate.export_csv": _count_csv,
}


def _intraday_namespaces():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "intraday" or name.startswith("intraday."))]


class Tracer:
    """Records spans and counters of traced calls, per iteration id."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.iterations: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters = defaultdict(float)   # (iteration, key) -> amount
        self._stack: list[int] = []
        self._iteration = -1

    def count(self, key: str, amount) -> None:
        self.counters[(self._iteration, key)] += float(amount)

    def _wrap(self, name: str, function):
        hook = HOOKS.get(name)
        names, parents, iterations = self.names, self.parents, self.iterations
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            iterations.append(self._iteration)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, function, args, kwargs, result)
            return result

        return traced

    def _counting_philox(self, philox):
        def counted(*args, **kwargs):
            if self._stack and self.names[self._stack[-1]] == SAMPLE_PATHS:
                self.count("simulate.rng_streams", 1)
            return philox(*args, **kwargs)
        return counted

    @contextmanager
    def patched(self, iteration: int):
        """Trace every listed function for the duration of the block."""
        modules = {name: importlib.import_module(f"intraday.{name}")
                   for name in TRACED}
        namespaces = _intraday_namespaces()
        undo = []
        try:
            for module_name, functions in TRACED.items():
                module = modules[module_name]
                for function_name in functions:
                    original = getattr(module, function_name)
                    wrapper = self._wrap(f"{module_name}.{function_name}",
                                         original)
                    for namespace in namespaces:
                        for attr, value in list(vars(namespace).items()):
                            if value is original:
                                undo.append((namespace, attr, original))
                                setattr(namespace, attr, wrapper)
            undo.append((np.random, "Philox", np.random.Philox))
            np.random.Philox = self._counting_philox(np.random.Philox)
            self._iteration = iteration
            yield self
        finally:
            self._iteration = -1
            for namespace, attr, original in reversed(undo):
                setattr(namespace, attr, original)

    def spans(self):
        """Recorded spans as dicts, in call order."""
        return [{"name": n, "start": s, "end": e, "parent": p, "iteration": i}
                for n, s, e, p, i in zip(self.names, self.starts, self.ends,
                                         self.parents, self.iterations)]


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        for child in sorted(children[index], key=starts.__getitem__):
            lo, hi = max(starts[child], start), min(ends[child], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def per_iteration(tracer: Tracer):
    """Per traced iteration: {function: (calls, self seconds)}."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for name, iteration, self_s in zip(tracer.names, tracer.iterations, selfs):
        entry = table[iteration][name]
        entry[0] += 1
        entry[1] += self_s
    return table
