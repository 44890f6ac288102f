"""Span tracer that wraps spedgp's public functions from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` context,
at every module attribute of the package that refers to it: the name its
caller looks up. ``cli`` imports ``fit`` by name, for example, and
``estimate.select_penalties`` calls the module-level ``fit``; both lookups
get the wrapper. Spans are kept in memory as (name, start, end, parent)
rows and summarised when the traced work ends. Nothing inside ``src/`` is
changed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

PACKAGE = "spedgp"

#: Modules of the package, in the order the per-layer table reports them.
MODULES = ("spectral", "cokrige", "estimate", "mimic", "metrics", "dataio",
           "cli", "design", "oracle")

#: Functions traced per module, with the span name each one is recorded as.
TRACED = {
    "spectral": {name: f"spectral.{name}" for name in (
        "dft_modulus", "design_feature_rows", "correlation_matrix",
        "cross_correlation", "correlation_cholesky",
        "correlation_from_features")},
    "cokrige": {name: f"cokrige.{name}" for name in (
        "predict", "predict_from_point", "hpd_interval", "load_model",
        "save_model")},
    "estimate": {name: f"estimate.{name}" for name in (
        "fit", "select_penalties", "make_fit_data", "sigma_step", "beta_step",
        "theta_step", "theta_objective", "neg_log_posterior",
        "glasso_kkt_residual")} | {"_run_restart": "estimate.restart"},
    "mimic": {name: f"mimic.{name}" for name in (
        "build_problem", "optimize", "mse_objective")},
    "metrics": {name: f"metrics.{name}" for name in (
        "evaluate", "mare", "moduli_and_kappa")},
    "dataio": {name: f"dataio.{name}" for name in (
        "load_dataset", "save_dataset", "read_designs", "read_target",
        "write_designs", "write_prediction_csv", "write_json")},
    "cli": {f"_cmd_{name}": f"cli.{name}" for name in (
        "gen", "fit", "predict", "eval", "mimic")},
    "design": {name: f"design.{name}" for name in (
        "sample_designs", "gen_sinusoid")},
    "oracle": {name: f"oracle.{name}" for name in ("synthetic_oracle",)},
}


class Tracer:
    """Context manager that records nested spans of the traced functions.

    ``spans`` holds one ``[name, start, end, parent_index]`` row per call,
    in call order; ``parent_index`` is -1 for a span opened by the client.
    ``on_return`` maps a span name to a callback that receives the call's
    arguments and result, for counters that need them (bytes written, fit
    traces). The wrappers only run between ``__enter__`` and ``__exit__``.
    """

    def __init__(self, on_return=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._on_return = dict(on_return or {})

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        hook = self._on_return.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self):
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}")
                               for m in MODULES]
        wrappers = {}
        for module_name, functions in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr, span_name in functions.items():
                func = getattr(home, attr)
                wrappers[id(func)] = (func, self._wrap(func, span_name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, summed seconds and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap because the traced code
        runs in one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return dict(table)

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        total = 0
        for row in self.spans:
            if row[0] != name:
                continue
            parent = row[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            total += parent >= 0
        return total
