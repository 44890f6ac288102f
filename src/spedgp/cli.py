"""Command-line pipeline: gen, fit, predict, eval, mimic.

Every command is deterministic given its flags and config: identical
seeds produce byte-identical output files. Train/test generation,
fitting (optionally with cross-validated penalties), prediction tables,
evaluation reports and inverse design all run in one process, except the
fit's restarts, which split over the cores that BLAS leaves free (see
:mod:`spedgp.estimate`); the output does not depend on that split.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from .cokrige import (default_strain_grid, hpd_interval, load_model, predict,
                      save_model, unlog_stress)
from .dataio import (TEST_PREFIX, Dataset, load_dataset, load_eval_dataset,
                     read_designs, read_json, read_target, save_dataset,
                     write_designs, write_json, write_prediction_csv)
from .design import gen_sinusoid, sample_designs
from .estimate import FitConfig, fit, select_penalties
from .exceptions import (ConvergenceError, FitError, InvalidInputError,
                         NumericalError, SingularMatrixError)
from .metrics import evaluate
from .mimic import build_problem, optimize
from .oracle import synthetic_oracle
from .spectral import StructureDesign

_ERRORS = (InvalidInputError, SingularMatrixError, ConvergenceError,
           NumericalError, FitError)

CONFIG_KEY_MAP = {f.name.lower(): f.name for f in dataclasses.fields(FitConfig)}


def _cmd_gen(args) -> int:
    if args.test_n < 0:
        raise InvalidInputError(f"--test-n must be nonnegative, got {args.test_n}")
    grid = default_strain_grid()
    out = Path(args.out)
    for n, seed, scheme, prefix in ((args.n, args.seed, "lhs", ""),
                                    (args.test_n, args.seed + 1, "sobol", TEST_PREFIX)):
        if prefix and n == 0:
            continue  # --test-n 0 writes no test split; --n 0 fails in sample_designs
        designs = [gen_sinusoid(s, args.p)
                   for s in sample_designs(n, seed=seed, scheme=scheme)]
        responses = np.array([synthetic_oracle(d, grid) for d in designs])
        save_dataset(out, Dataset(designs=designs, responses=responses, grid=grid),
                     prefix=prefix)
    print(f"wrote {args.n} training and {args.test_n} test runs to {out}")
    return 0


def _load_fit_config(path) -> tuple[FitConfig, dict | None]:
    raw = read_json(path)
    cv = raw.pop("cv", None)
    for key in raw:
        if key not in CONFIG_KEY_MAP:
            raise InvalidInputError(f"unknown config key {key!r}")
    try:
        config = FitConfig(**{CONFIG_KEY_MAP[key]: value for key, value in raw.items()})
    except TypeError as exc:  # a comparison in __post_init__ met a wrong type
        raise InvalidInputError(f"config value of the wrong type: {exc}") from exc
    if cv is not None:
        if not isinstance(cv, dict):
            raise InvalidInputError("cv block must be a JSON object")
        missing = {"folds", "lambda_i_grid", "lambda_o_grid"} - set(cv)
        if missing:
            raise InvalidInputError(f"cv block is missing keys: {sorted(missing)}")
    return config, cv


def _cmd_fit(args) -> int:
    config, cv = _load_fit_config(args.config)
    data = load_dataset(args.train)
    cv_record = None
    if cv is not None:
        li, lo = select_penalties(data, cv["lambda_i_grid"], cv["lambda_o_grid"],
                                  cv["folds"], config)
        config = dataclasses.replace(config, lambda_I=li, lambda_o=lo)
        cv_record = {"lambda_I": li, "lambda_o": lo, "folds": cv["folds"]}
        print(f"cross-validation selected lambda_I={li} lambda_o={lo}")
    model, trace = fit(data, config)
    out = Path(args.out)
    save_model(model, out)
    trace_doc = {"config": dataclasses.asdict(config), "trace": trace.to_dict()}
    if cv_record is not None:
        trace_doc["cv"] = cv_record
    write_json(out.with_suffix(".trace.json"), trace_doc)
    meta = model.fit_metadata
    print(f"fit objective {meta['objective']:.6f} after {meta['iterations']} "
          f"sweeps; model written to {out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    designs = read_designs(args.designs)
    rows = []
    for design in designs:
        pred = predict(model, design)
        lo, hi = hpd_interval(pred, args.level)
        rows.append((unlog_stress(pred.mean), unlog_stress(lo), unlog_stress(hi)))
    write_prediction_csv(args.out, model.grid, rows)
    print(f"wrote predictions for {len(designs)} designs to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    test = load_eval_dataset(args.test)
    report = evaluate(model, test)
    write_json(args.out, report.to_dict())
    s = report.summary
    print(f"median MARE {s['median_mare']:.4f}; classification "
          f"{s['classification_correct']}/{s['n_cases']}; coverage "
          f"{s['coverage_fraction']:.3f}; report written to {args.out}")
    return 0


def _cmd_mimic(args) -> int:
    model = load_model(args.model)
    strain, stress = read_target(args.target)
    problem = build_problem(model, strain, stress)
    result = optimize(problem, starts=args.starts, seed=args.seed)
    out = Path(args.out)
    doc = result.to_dict()
    doc["active_set"] = problem.active_set.tolist()
    doc["predicted_stress"] = unlog_stress(result.predicted.mean).tolist()
    doc["strain_grid"] = model.grid.tolist()
    write_json(out, doc)
    curve_path = out.with_name(out.stem + "_structure.csv")
    write_designs(curve_path, [StructureDesign(diameter=result.diameter,
                                               curve=result.reconstructed_curve)])
    print(f"mimic objective {result.objective:.6f}; result written to {out}, "
          f"structure to {curve_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spedgp",
        description="Spectral-distance co-kriging emulator for fibrous "
                    "metamaterial stress-strain curves")
    parser.add_argument("--verbose", action="store_true",
                        help="log fitting progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic train/test datasets")
    p.add_argument("--n", type=int, default=58, help="training runs")
    p.add_argument("--test-n", type=int, default=18, help="test runs (0 to skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=int, default=81, help="curve discretization length")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fit", help="estimate the emulator from a training directory")
    p.add_argument("--train", required=True, help="directory with designs.csv "
                                                  "and responses.csv")
    p.add_argument("--config", required=True, help="JSON fit configuration")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict response curves with HPD bands")
    p.add_argument("--model", required=True)
    p.add_argument("--designs", required=True, help="designs.csv to predict at")
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score a model against a test directory")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("mimic", help="inverse-design a structure for a target curve")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True, help="CSV with strain,stress columns")
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="result JSON path")
    p.set_defaults(func=_cmd_mimic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
