"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload (see ``workloads.py``) sets up from ``--seed``,
then runs jobs back to back, each after the previous one has finished,
until ``--seconds`` have passed (always at least one job).

With ``--trace 0`` the run reports the end-to-end metrics, as seconds at
the reference CPU speed of ``clock.py`` (the wall time the work would
take on the same machine without other tenants slowing it; the plain
wall times are printed too):

- ``setup_s``: median set-up time over the run's set-ups;
- ``job_ms_p50``: median job latency. The tail is printed (p90 and p99)
  but is not a metric: on a shared 2-vCPU virtual machine the p99 of a
  12-second ``predict`` run spread by 20% between runs, and the p90 by
  up to 60% in noisy periods, against 4-8% for the p50;
- ``fit_s``: median time of one emulator fit (the ``fit`` subcommand in
  ``pipeline``, the set-up fit in ``predict`` and ``mimic``, one fold fit
  inside ``select_penalties`` in ``cv``).

With ``--trace 1`` the run repeats a fixed unit of jobs, alternately
untraced and traced, until ``--seconds`` have passed, and reports the
per-layer metrics of a traced unit: calls, seconds and self seconds of
the package's functions, wrapped from outside (``tracer.py``), plus the
tracing overhead: the median over pairs of traced minus untraced unit
time, at reference speed. Counts must repeat exactly between traced
units.

Every line but the last is for people. The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit status is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

#: BLAS threads, pinned before numpy loads. The kernels are 58x58 and
#: 41x41, too small to gain from threads, and one thread keeps the
#: timings steadier on a shared machine.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics read off the span table: (metric, span, field, unit).
SPAN_METRICS = [
    ("estimate.sigma_step.calls", "estimate.sigma_step", "calls", "count"),
    ("estimate.sigma_step.s", "estimate.sigma_step", "s", "s"),
    ("estimate.glasso_passes", "estimate.glasso_kkt_residual", "calls", "count"),
    ("estimate.theta_step.calls", "estimate.theta_step", "calls", "count"),
    ("estimate.theta_step.s", "estimate.theta_step", "s", "s"),
    ("estimate.theta_objective.calls", "estimate.theta_objective", "calls", "count"),
    ("estimate.beta_step.s", "estimate.beta_step", "s", "s"),
    ("estimate.neg_log_posterior.calls", "estimate.neg_log_posterior", "calls", "count"),
    ("estimate.neg_log_posterior.s", "estimate.neg_log_posterior", "s", "s"),
    ("estimate.restarts_run", "estimate.restart", "calls", "count"),
    ("estimate.make_fit_data.calls", "estimate.make_fit_data", "calls", "count"),
    ("estimate.make_fit_data.s", "estimate.make_fit_data", "s", "s"),
    ("estimate.fit.calls", "estimate.fit", "calls", "count"),
    ("spectral.dft_modulus.calls", "spectral.dft_modulus", "calls", "count"),
    ("spectral.dft_modulus.s", "spectral.dft_modulus", "s", "s"),
    ("spectral.cross_correlation.s", "spectral.cross_correlation", "s", "s"),
    ("spectral.correlation_cholesky.calls", "spectral.correlation_cholesky", "calls", "count"),
    ("spectral.correlation_cholesky.s", "spectral.correlation_cholesky", "s", "s"),
    ("cokrige.predict.calls", "cokrige.predict", "calls", "count"),
    ("cokrige.predict.s", "cokrige.predict", "s", "s"),
    ("cokrige.hpd_interval.s", "cokrige.hpd_interval", "s", "s"),
    ("cokrige.load_model.s", "cokrige.load_model", "s", "s"),
    ("cokrige.save_model.s", "cokrige.save_model", "s", "s"),
    ("mimic.optimize.s", "mimic.optimize", "s", "s"),
    ("metrics.evaluate.self_s", "metrics.evaluate", "self_s", "s"),
    ("dataio.load_dataset.s", "dataio.load_dataset", "s", "s"),
] + [(f"cli.{cmd}.s", f"cli.{cmd}", "s", "s")
     for cmd in ("gen", "fit", "predict", "eval", "mimic")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "predict", "mimic", "cv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, as numpy's default computes it."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(durations: dict) -> dict:
    """End-to-end metrics from the set-up, job and fit durations (seconds)."""
    return {
        "setup_s": (statistics.median(durations["setup"]), "s"),
        "job_ms_p50": (1e3 * statistics.median(durations["job"]), "ms"),
        "fit_s": (statistics.median(durations["fit"]), "s"),
    }


def tail(jobs) -> str:
    return ", ".join(f"job_ms_p{q} {1e3 * percentile(jobs, q):.6g}" for q in (90, 99))


def per_layer(tracer, fits, saved_bytes, models, cond_log10) -> dict:
    """Per-layer metrics of one traced unit."""
    from tracer import MODULES

    table = tracer.summary()
    out = {}
    for metric, span, key, unit in SPAN_METRICS:
        out[metric] = (table.get(span, {}).get(key, 0), unit)
    out["estimate.sweeps"] = (sum(rec.get("sweeps", 0) for _, trace in fits
                                  for rec in trace.restarts), "count")
    conds = [cond_log10(model) for model in models]
    out["estimate.cond_R_log10"] = (statistics.median(conds) if conds else 0.0,
                                    "log10")
    out["mimic.objective_evals"] = (tracer.count_under(
        "spectral.correlation_from_features", "mimic.optimize"), "count")
    out["cokrige.save_model.bytes"] = (sum(saved_bytes), "bytes")
    for module in MODULES:
        out[f"{module}.self_s"] = (sum(row["self_s"] for name, row in table.items()
                                       if name.split(".")[0] == module), "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def setup(workload, args, work: Path, tally):
    """Set up ``setup_repeats`` times; return the last state and the intervals."""
    intervals = []
    for repeat in range(workload.setup_repeats):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, work / f"setup{repeat}", tally)
        intervals.append((t0, time.perf_counter()))
    return state, intervals


def measure(workload, args, work: Path, tally) -> dict:
    """Untraced run: end-to-end metrics at reference CPU speed."""
    from clock import SpeedClock

    with SpeedClock() as clock:
        state, setups = setup(workload, args, work, tally)
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            records.append(workload.job(state, len(records), tally))
    workload.finish(state, tally)
    intervals = {
        "setup": setups,
        "job": [rec["job"] for rec in records],
        "fit": [f for rec in records for f in rec.get("fits", [])] or [state["fit"]],
    }
    wall = {k: [t1 - t0 for t0, t1 in v] for k, v in intervals.items()}
    normalized = {k: [clock.seconds(*iv) for iv in v] for k, v in intervals.items()}
    print(f"jobs {len(records)}; tail {tail(normalized['job'])}")
    print("wall time before the speed correction: "
          + ", ".join(f"{name} {value:.6g} {unit}"
                      for name, (value, unit) in summarize(wall).items())
          + f"; tail {tail(wall['job'])}")
    return summarize(normalized)


def trace(workload, args, work: Path, tally) -> dict:
    """Traced run: per-layer metrics of a fixed unit of jobs.

    The unit runs untraced and then traced, pair after pair, until the
    window has passed. The tracing overhead is the median over pairs of
    the traced minus the untraced time, both at reference CPU speed. Span
    times are plain wall time and include the clock's reference task
    (about 1.5%).
    """
    from clock import SpeedClock
    from tracer import Tracer
    from workloads import cond_log10

    state, _ = setup(workload, args, work, tally)

    def unit():
        t0 = time.perf_counter()
        for index in range(workload.unit_jobs):
            workload.job(state, index, tally)
        return t0, time.perf_counter()

    pairs, layers = [], []
    with SpeedClock() as clock:
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < args.seconds:
            untraced = unit()
            fits, saved = [], []
            hooks = {
                "estimate.fit": lambda a, kw, result: fits.append(result),
                "cokrige.save_model": lambda a, kw, result: saved.append(
                    Path(a[1] if len(a) > 1 else kw["path"]).stat().st_size),
            }
            with Tracer(hooks) as tracer:
                traced = unit()
            pairs.append((untraced, traced))
            models = [model for model, _ in fits] or [state["model"]]
            layers.append(per_layer(tracer, fits, saved, models, cond_log10))
    workload.finish(state, tally)
    counted = [name for name, (_, u) in layers[0].items()
               if u in ("count", "bytes")]
    tally.check(all(layer[name] == layers[0][name]
                    for layer in layers for name in counted),
                "per-layer counts differ between traced units")
    metrics = {name: (value if name in counted else
                      statistics.median(layer[name][0] for layer in layers), unit)
               for name, (value, unit) in layers[0].items()}
    base = [clock.seconds(*u) for u, _ in pairs]
    extra = [clock.seconds(*t) - clock.seconds(*u) for u, t in pairs]
    overhead = statistics.median(extra)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(base), "ratio")
    print(f"traced units {len(pairs)}; unit untraced {statistics.median(base):.4f} s "
          f"at reference speed, tracing adds {overhead:.4f} s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import spedgp
    except ImportError as exc:
        print(f"perfbench: cannot import spedgp from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(spedgp.__file__).resolve().parents:
        print(f"perfbench: spedgp was imported from {spedgp.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    from workloads import WORKLOADS, Tally

    print("env " + json.dumps(environment(), sort_keys=True))
    tally = Tally()
    try:
        metrics = (trace if args.trace else measure)(
            WORKLOADS[args.workload], args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, values in sorted(tally.quality.items()):
        if name == "selected":
            print(f"quality cv_selected {values}")
        else:
            print(f"quality {name} median {statistics.median(values):.6g} "
                  f"max {max(values):.6g} over {len(values)}")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {tally.attempted} failed {tally.failed} "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
