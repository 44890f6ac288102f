"""The benchmark's four workloads and the checks on their outputs.

Each workload is driven by one client in one process, as a closed loop:
a job starts only after the previous one has finished. A workload has a
set-up step (input generation, plus the emulator fit where the timed jobs
need a model) and a job, the unit of work whose latency is measured.

- ``pipeline``: one job is the acceptance pipeline through
  ``spedgp.cli.main`` in-process: gen (58 LHS training and 18 Sobol test
  designs, p=81, m=41), fit (lambda_i=1, lambda_o=0.5, restarts=5),
  predict at level 0.9, eval, and mimic with 32 starts on a target written
  in set-up.
- ``predict``: set-up fits the same model; one job is ``cokrige.predict``
  plus ``hpd_interval(0.9)`` on one fresh Sobol design.
- ``mimic``: set-up fits the same model; one job is ``mimic.build_problem``
  plus ``optimize(starts=32)`` on the oracle curve of a held-out design.
- ``cv``: one job is ``select_penalties`` on the same 58 training designs
  with 3 folds, lambda_I in {1, 10, 100}, lambda_o = 0.5 and restarts = 2.

Every fit uses the acceptance training set (``gen --seed 0``, as in
criteria c05-c09) and the c08 fold seed. The fit's work depends strongly
on its data: across training sets and fold splits the glasso pass count
of a fit or of a cross-validation varies by about 20%, so a seeded
training set would make one run's time say more about the seed than
about the code. The workload seed instead draws what a user sends to a
fitted model: the predict designs, the mimic targets and the mimic start
seeds. Every job checks its outputs; a failed check, a CLI exit that is
not 0, a raised spedgp error and a restart the fit records as failed
each count as one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spedgp
from spedgp import cli, cokrige, dataio, design, estimate, metrics, mimic, oracle
from spedgp.exceptions import (ConvergenceError, FitError, InvalidInputError,
                               NumericalError, SingularMatrixError)

TYPED_ERRORS = (InvalidInputError, SingularMatrixError, ConvergenceError,
                NumericalError, FitError)

P = 81
N_TRAIN = 58
N_TEST = 18
LEVEL = 0.9
MIMIC_STARTS = 32
FIT_CONFIG = estimate.FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=5, seed=0)
CV_CONFIG = estimate.FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=2, seed=0)
CV_FOLDS = 3
CV_LAMBDA_I = (1.0, 10.0, 100.0)
CV_LAMBDA_O = (0.5,)
#: strain levels of mimic targets, wider than the model grid as in c09
TARGET_STRAIN = np.linspace(0.003, 0.155, 80)
#: seed of the acceptance training set (test designs use TRAIN_SEED + 1)
TRAIN_SEED = 0

# Fixed quality bounds. c07 requires a median test MARE below 0.10 and c09
# a mimic MARE below 0.10; the bounds here are tighter so that a change in
# model quality fails the run well before it fails the acceptance gate.
# The largest values seen over 40 runs were 0.0078 (median MARE of the
# predict requests) and 0.021 (one mimic target of 240).
MAX_TEST_MEDIAN_MARE = 0.03
MAX_MIMIC_MARE = 0.05
#: the c05 rule: no sweep may raise the objective by more than this share
MAX_OBJECTIVE_RISE = 1e-9


@dataclass
class Tally:
    """Operations and checks attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return bool(ok)

    def run(self, what: str, func, *args, **kwargs):
        """Call one operation; a raised spedgp error counts as a failure."""
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except TYPED_ERRORS as exc:
            self.failed += 1
            self.notes.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def record(self, name: str, value: float) -> None:
        self.quality.setdefault(name, []).append(float(value))


def check_restarts(tally: Tally, restarts: list, what: str) -> None:
    """Each restart ran (not ``failed``) and its objective path never rose."""
    for k, rec in enumerate(restarts):
        if not tally.check("failed" not in rec,
                           f"{what} restart {k} failed: {rec.get('failed')}"):
            continue
        obj = np.asarray(rec["objectives"], dtype=float)
        rises = np.diff(obj) / np.maximum(1.0, np.abs(obj[:-1]))
        worst = float(rises.max()) if rises.size else 0.0
        tally.check(obj.size >= 2 and worst <= MAX_OBJECTIVE_RISE,
                    f"{what} restart {k}: objective rose by {worst:.3e}")


def check_band(tally: Tally, mean, lower, upper, what: str) -> None:
    """Predictions are finite and lower <= mean <= upper everywhere."""
    mean, lower, upper = (np.asarray(a, dtype=float) for a in (mean, lower, upper))
    finite = all(np.all(np.isfinite(a)) for a in (mean, lower, upper))
    tally.check(finite and np.all(lower <= mean) and np.all(mean <= upper),
                f"{what}: prediction not finite or outside its band")


def oracle_dataset(seed: int, n: int, scheme: str) -> spedgp.Dataset:
    grid = cokrige.default_strain_grid()
    designs = [design.gen_sinusoid(s, P)
               for s in design.sample_designs(n, seed=seed, scheme=scheme)]
    responses = np.array([oracle.synthetic_oracle(d, grid) for d in designs])
    return spedgp.Dataset(designs=designs, responses=responses, grid=grid)


def mimic_target(seed: int, k: int):
    """Oracle stress curve of held-out design ``k`` for mimic requests."""
    spec = design.sample_designs(k + 1, seed=seed + 3, scheme="sobol")[k]
    curve = oracle.synthetic_oracle(design.gen_sinusoid(spec, P), TARGET_STRAIN)
    return TARGET_STRAIN, curve


def mimic_mare(problem, result) -> float:
    return metrics.mare(cokrige.unlog_stress(problem.target_log),
                        cokrige.unlog_stress(result.predicted.mean))


def cond_log10(model) -> float:
    return float(np.log10(np.linalg.cond(model.R)))


def fit_model(tally: Tally):
    """Fit the acceptance model on the acceptance training set."""
    train = oracle_dataset(TRAIN_SEED, N_TRAIN, "lhs")
    t0 = time.perf_counter()
    out = tally.run("fit", estimate.fit, train, FIT_CONFIG)
    interval = (t0, time.perf_counter())
    if out is None:
        raise RuntimeError("set-up fit failed: " + "; ".join(tally.notes))
    model, trace = out
    check_restarts(tally, trace.restarts, "set-up fit")
    return model, interval


@contextlib.contextmanager
def capture_fits():
    """Time each ``estimate.fit`` call made through the module attribute.

    ``select_penalties`` looks ``fit`` up in ``spedgp.estimate``; the
    captured (start, end, model, trace) rows feed the objective-path check
    and the per-fit times of the cv workload.
    """
    inner = estimate.fit
    rows = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        model, trace = inner(*args, **kwargs)
        rows.append((t0, time.perf_counter(), model, trace))
        return model, trace

    estimate.fit = timed
    try:
        yield rows
    finally:
        estimate.fit = inner


class Workload:
    """Set-up plus a job; subclasses fill in both.

    ``setup_repeats`` is how many times a run sets up (the median is
    reported); ``unit_jobs`` is how many jobs, from job 0, make up the
    fixed unit of work a traced run repeats.
    """

    name = ""
    setup_repeats = 1
    unit_jobs = 1

    def setup(self, seed: int, work: Path, tally: Tally):
        raise NotImplementedError

    def job(self, state, index: int, tally: Tally) -> dict:
        """Run job ``index``.

        Returns the job's ``perf_counter`` interval under ``"job"`` and the
        intervals of the fits it ran, if any, under ``"fits"``.
        """
        raise NotImplementedError

    def finish(self, state, tally: Tally) -> None:
        """Checks on the run as a whole, after the last job."""


class Pipeline(Workload):
    name = "pipeline"
    setup_repeats = 15

    def setup(self, seed, work, tally):
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps({
            "lambda_i": FIT_CONFIG.lambda_I, "lambda_o": FIT_CONFIG.lambda_o,
            "restarts": FIT_CONFIG.restarts, "seed": FIT_CONFIG.seed}))
        target = work / "target.csv"
        dataio.write_target(target, *mimic_target(seed, 0))
        return {"seed": seed, "work": work, "config": config, "target": target,
                "passes": 0}

    def _cli(self, tally, what, argv) -> tuple:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = tally.run(what, cli.main, argv)
        interval = (t0, time.perf_counter())
        if code != 0 and code is not None:
            tally.failed += 1
            tally.notes.append(f"{what}: exit status {code}")
        return interval

    def job(self, state, index, tally):
        state["passes"] += 1
        d = state["work"] / f"job{index}-{state['passes']}"
        data, model = d / "data", d / "model.json"
        t0 = time.perf_counter()
        self._cli(tally, "gen", ["gen", "--n", str(N_TRAIN), "--test-n",
                                 str(N_TEST), "--seed", str(TRAIN_SEED), "--p",
                                 str(P), "--out", str(data)])
        fit = self._cli(tally, "fit", ["fit", "--train", str(data), "--config",
                                         str(state["config"]), "--out", str(model)])
        self._cli(tally, "predict", ["predict", "--model", str(model), "--designs",
                                     str(data / "test_designs.csv"), "--level",
                                     str(LEVEL), "--out", str(d / "pred.csv")])
        self._cli(tally, "eval", ["eval", "--model", str(model), "--test", str(data),
                                  "--out", str(d / "report.json")])
        self._cli(tally, "mimic", ["mimic", "--model", str(model), "--target",
                                   str(state["target"]), "--starts",
                                   str(MIMIC_STARTS), "--seed", str(state["seed"]),
                                   "--out", str(d / "mimic.json")])
        job = (t0, time.perf_counter())
        self._check(state, d, tally)
        return {"job": job, "fits": [fit]}

    def _check(self, state, d, tally):
        try:
            trace = json.loads((d / "model.trace.json").read_text())
            check_restarts(tally, trace["trace"]["restarts"], "fit")
            table = np.genfromtxt(d / "pred.csv", delimiter=",", skip_header=1)
            check_band(tally, table[:, 2], table[:, 3], table[:, 4], "predict")
            report = json.loads((d / "report.json").read_text())
            test_mare = report["summary"]["median_mare"]
            tally.record("test_median_mare", test_mare)
            tally.check(test_mare <= MAX_TEST_MEDIAN_MARE,
                        f"eval: median MARE {test_mare:.4f} > {MAX_TEST_MEDIAN_MARE}")
            doc = json.loads((d / "mimic.json").read_text())
            grid = np.asarray(doc["strain_grid"])
            target = np.interp(grid, *dataio.read_target(state["target"]))
            err = metrics.mare(target, np.asarray(doc["predicted_stress"]))
            tally.record("mimic_mare", err)
            tally.check(err <= MAX_MIMIC_MARE,
                        f"mimic: MARE {err:.4f} > {MAX_MIMIC_MARE}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            tally.check(False, f"pipeline outputs unreadable: {exc!r}")


class Predict(Workload):
    name = "predict"
    unit_jobs = 16

    def setup(self, seed, work, tally):
        model, fit = fit_model(tally)
        # 2^12 scrambled Sobol designs: more than a run ever requests
        specs = design.sample_designs(4096, seed=seed + 2, scheme="sobol")
        return {"model": model, "fit": fit, "specs": specs}

    def finish(self, state, tally):
        med = float(np.median(tally.quality.get("request_mare", [np.inf])))
        tally.check(med <= MAX_TEST_MEDIAN_MARE,
                    f"predict: median MARE {med:.4f} > {MAX_TEST_MEDIAN_MARE}")

    def job(self, state, index, tally):
        model = state["model"]
        new = design.gen_sinusoid(state["specs"][index % len(state["specs"])], P)
        t0 = time.perf_counter()
        pred = tally.run("predict", cokrige.predict, model, new)
        band = None
        if pred is not None:
            band = tally.run("hpd", cokrige.hpd_interval, pred, LEVEL)
        job = (t0, time.perf_counter())
        if band is not None:
            check_band(tally, pred.mean, band[0], band[1], f"request {index}")
            truth = oracle.synthetic_oracle(new, model.grid)
            tally.record("request_mare",
                         metrics.mare(truth, cokrige.unlog_stress(pred.mean)))
        return {"job": job}


class Mimic(Workload):
    name = "mimic"
    unit_jobs = 1

    def setup(self, seed, work, tally):
        model, fit = fit_model(tally)
        return {"model": model, "fit": fit, "seed": seed}

    def job(self, state, index, tally):
        strain, stress = mimic_target(state["seed"], index)
        t0 = time.perf_counter()
        problem = tally.run("build_problem", mimic.build_problem, state["model"],
                            strain, stress)
        result = None
        if problem is not None:
            result = tally.run("optimize", mimic.optimize, problem,
                               starts=MIMIC_STARTS, seed=state["seed"] + index)
        job = (t0, time.perf_counter())
        if result is not None:
            err = mimic_mare(problem, result)
            tally.record("mimic_mare", err)
            tally.check(err <= MAX_MIMIC_MARE,
                        f"mimic request {index}: MARE {err:.4f} > {MAX_MIMIC_MARE}")
        return {"job": job}


class CrossValidation(Workload):
    name = "cv"
    setup_repeats = 15

    def setup(self, seed, work, tally):
        return {"data": oracle_dataset(TRAIN_SEED, N_TRAIN, "lhs")}

    def job(self, state, index, tally):
        with capture_fits() as fits:
            t0 = time.perf_counter()
            chosen = tally.run("select_penalties", estimate.select_penalties,
                               state["data"], CV_LAMBDA_I, CV_LAMBDA_O, CV_FOLDS,
                               CV_CONFIG)
            job = (t0, time.perf_counter())
        for k, (_, _, _, trace) in enumerate(fits):
            check_restarts(tally, trace.restarts, f"cv fit {k}")
        tally.check(len(fits) == CV_FOLDS * len(CV_LAMBDA_I) * len(CV_LAMBDA_O),
                    f"cv ran {len(fits)} fits")
        if chosen is not None:
            tally.check(chosen[0] in CV_LAMBDA_I and chosen[1] in CV_LAMBDA_O,
                        f"cv selected {chosen} outside the grid")
            tally.quality.setdefault("selected", []).append(list(chosen))
        return {"job": job, "fits": [row[:2] for row in fits]}


WORKLOADS = {w.name: w for w in (Pipeline(), Predict(), Mimic(), CrossValidation())}
