"""Release gate: ten end-to-end criteria, one test and one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every
``[criterion NN] name: PASS/FAIL (...)`` line; measurements are included
so a failing bound is readable without re-running. The synthetic
benchmark (58 latin-hypercube training runs, 18 Sobol test runs, curves
discretized at p = 81 on the default strain grid) is shared by the
slower criteria through module-scoped fixtures, and by one more check
that the nugget does not carry the benchmark fit. A second training set
(training seed 1) must pass criterion 7's bounds and that check too, so
that no fit is judged on one draw of designs. Both training sets are
also scored on a 512-design held-out yardstick, large enough to show the
tail of the error distribution that 18 designs hide.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from spedgp import (
    Dataset,
    FitConfig,
    SinusoidSpec,
    StructureDesign,
    beta_step,
    fit,
    gen_sinusoid,
    graphical_lasso,
    mimic,
    neg_log_posterior,
    predict,
    sample_designs,
    select_penalties,
    synthetic_oracle,
)
from spedgp.cli import main
from spedgp.cokrige import (TrainedEmulator, default_strain_grid, hpd_interval,
                            mean_basis, unlog_stress)
from spedgp.estimate import (CARRIED_RATIO, glasso_kkt_residual,
                             make_fit_data, theta_objective)
from spedgp.metrics import evaluate, mare
from spedgp.mimic import build_problem, optimize
from spedgp.oracle import ACTIVE_BAND
from spedgp.spectral import correlation_from_features, design_feature_row, half_size

from .oracles import (central_diff_gradient, dense_conditional, dense_gls_beta,
                      penalized_objective)
from .test_spectral import correlation_of, pair_correlation

GRID = default_strain_grid()
BENCH_CONFIG = FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=5, seed=0)
#: Sobol seed of the 512-design yardstick; no other check draws it
YARDSTICK_SEED = 20


def report(num, name, checks, detail=""):
    ok = all(good for _, good in checks)
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line + (f" ({detail})" if detail else ""))
    for label, good in checks:
        assert good, f"criterion {num} ({name}): {label}"


def oracle_dataset(specs, p=81):
    designs = [gen_sinusoid(s, p) for s in specs]
    Y = np.array([synthetic_oracle(d, GRID) for d in designs])
    return Dataset(designs=designs, responses=Y, grid=GRID)


@pytest.fixture(scope="module")
def bench():
    return SimpleNamespace(
        train=oracle_dataset(sample_designs(58, seed=0, scheme="lhs")),
        test=oracle_dataset(sample_designs(18, seed=1, scheme="sobol")))


@pytest.fixture(scope="module")
def sped_fit(bench):
    t0 = time.perf_counter()
    model, trace = fit(bench.train, BENCH_CONFIG)
    return SimpleNamespace(model=model, trace=trace,
                           seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def feature_fit(bench):
    config = dataclasses.replace(BENCH_CONFIG, family="feature_based")
    model, _ = fit(bench.train, config)
    return model


@pytest.fixture(scope="module")
def second_fit():
    """The benchmark fit on training seed 1."""
    train = oracle_dataset(sample_designs(58, seed=1, scheme="lhs"))
    model, trace = fit(train, BENCH_CONFIG)
    return SimpleNamespace(train=train, model=model, trace=trace)


@pytest.fixture(scope="module")
def yardstick_set():
    return oracle_dataset(sample_designs(512, seed=YARDSTICK_SEED, scheme="sobol"))


@pytest.fixture(scope="module")
def randomized_phase_test():
    rng = np.random.default_rng(42)
    specs = [SinusoidSpec(s.d, s.A, s.omega, rng.uniform(0.0, 2.0 * np.pi))
             for s in sample_designs(18, seed=1, scheme="sobol")]
    return oracle_dataset(specs)


def chosen_restart(trace, label):
    """The chosen restart's record, after printing every restart's nugget
    share ratio (see :func:`spedgp.estimate.nugget_carry`)."""
    records = trace.restarts
    ratios = ", ".join("none" if rec["nugget_share_ratio"] is None
                       else f"{rec['nugget_share_ratio']:.3f}"
                       for rec in records)
    print(f"[nugget] {label} restart share ratios {ratios}; chosen "
          f"restart {trace.best_index}, limit {CARRIED_RATIO:.3f}")
    return records[trace.best_index]


def accuracy_checks(model, feature_model, test, randomized):
    """Criterion 7's four bounds on a fit and its feature_based baseline,
    and the measurements they read."""
    sped_report = evaluate(model, test)
    med = sped_report.summary["median_mare"]
    med_rand = evaluate(model, randomized).summary["median_mare"]
    med_feat = evaluate(feature_model, randomized).summary["median_mare"]
    correct = sped_report.summary["classification_correct"]
    checks = [
        ("median relative error < 0.10", med < 0.10),
        ("median relative error < 0.10 under randomized phases",
         med_rand < 0.10),
        ("beats the scalar-feature kernel under randomized phases",
         med_rand < med_feat),
        ("classification >= 16/18", correct >= 16),
    ]
    return checks, (f"median {med:.4f}, randomized {med_rand:.4f} vs feature "
                    f"{med_feat:.4f}, classified {correct}/18")


def yardstick_checks(model, test, most, least):
    """Bounds on a fit's MARE distribution over the yardstick (at most
    ``most``) and on its 90% band coverage (at least ``least``), and the
    measurements they read."""
    scored = evaluate(model, test)
    mares = np.array([case["mare"] for case in scored.per_case])
    values = {
        "median MARE": float(np.median(mares)),
        "90th percentile MARE": float(np.percentile(mares, 90)),
        "share above 0.10": float(np.mean(mares > 0.10)),
        "worst MARE": float(mares.max()),
        "curve coverage": scored.summary["coverage_fraction"],
        "pointwise coverage": scored.summary["pointwise_coverage"],
    }
    checks = ([(f"{key} <= {bound}", values[key] <= bound) for key, bound in most.items()]
              + [(f"{key} >= {bound}", values[key] >= bound) for key, bound in least.items()])
    return checks, ", ".join(f"{key} {value:.4f}" for key, value in values.items())


def random_designs(rng, n, p):
    return [StructureDesign(rng.uniform(0.3, 1.8), rng.standard_normal(p))
            for _ in range(n)]


def test_c01_kernel_admissibility():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    min_eig = np.inf
    worst_shift = 0.0
    for _ in range(200):
        p = int(rng.choice([5, 21, 81]))
        n = int(rng.integers(2, 16))
        z = np.append(rng.uniform(0.0, 0.6, half_size(p)), rng.uniform(0.0, 1.0))
        designs = random_designs(rng, n, p)
        R = correlation_of(designs, z, 0.0)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(R).min()))
        base = designs[0]
        shifted = StructureDesign(base.diameter,
                                  np.roll(base.curve, int(rng.integers(1, p))))
        rho = pair_correlation(shifted, base, z, "sped")
        worst_shift = max(worst_shift, abs(rho - 1.0))
    seconds = time.perf_counter() - t0
    report(1, "kernel admissibility", [
        ("nugget-free min eigenvalue >= -1e-8", min_eig >= -1e-8),
        ("cyclic shift correlation = 1 within 1e-10", worst_shift <= 1e-10),
        ("runtime < 30 s", seconds < 30.0),
    ], f"min eig {min_eig:.2e}, shift dev {worst_shift:.2e}, {seconds:.1f}s")


def test_c02_factorized_algebra_matches_dense():
    rng = np.random.default_rng(123)
    shapes = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
              (4, 2), (4, 3)]
    t0 = time.perf_counter()
    worst_mean = worst_cov = worst_obj = worst_beta = 0.0
    for trial in range(100):
        n, m = shapes[trial % len(shapes)]
        p = int(rng.choice([5, 9]))
        designs = random_designs(rng, n, p)
        grid = np.linspace(0.01, 0.15, m)
        b0, b1 = rng.standard_normal(), rng.uniform(0.5, 2.0)
        Y = b0 + b1 * np.log(grid) + 0.3 * rng.standard_normal((n, m))
        theta = rng.uniform(0.05, 0.4, half_size(p))
        theta_d = rng.uniform(0.1, 1.0)
        A = rng.standard_normal((m, m))
        Sigma = A @ A.T + m * np.eye(m)
        beta = np.array([b0, b1])
        P = mean_basis(grid)

        data = make_fit_data(designs, Y, grid)
        z = np.concatenate([theta, [theta_d]])
        model = TrainedEmulator(data=data, z=z, beta=beta, Sigma=Sigma)
        new = random_designs(rng, 1, p)[0]
        pred = predict(model, new)
        r = correlation_from_features(data.F, design_feature_row(new, "sped"), z)
        R = data.correlation(z)
        mean_d, cov_d = dense_conditional(Y, R, r, 1.0, Sigma, beta, P)
        worst_mean = max(worst_mean, float(
            np.linalg.norm(pred.mean - mean_d) / np.linalg.norm(mean_d)))
        worst_cov = max(worst_cov, float(
            np.linalg.norm(pred.covariance() - cov_d) / np.linalg.norm(cov_d)))

        got = neg_log_posterior(beta, z, Sigma, data, lambda_I=0.7, lambda_o=0.3)
        want = penalized_objective(Y, R, Sigma, beta, P, 0.7, 0.3, theta)
        worst_obj = max(worst_obj, abs(got - want) / abs(want))

        _, choR = data.chol(z)
        got_beta = beta_step(data, choR, np.linalg.inv(Sigma))
        want_beta = dense_gls_beta(Y, R, Sigma, grid)
        assert want_beta[1] > 1e-3  # instances built with positive slope
        worst_beta = max(worst_beta, float(
            np.linalg.norm(got_beta - want_beta) / np.linalg.norm(want_beta)))
    seconds = time.perf_counter() - t0
    worst = max(worst_mean, worst_cov, worst_obj, worst_beta)
    report(2, "factorized algebra vs dense joint", [
        ("predictive mean within 1e-9", worst_mean <= 1e-9),
        ("predictive covariance within 1e-9", worst_cov <= 1e-9),
        ("objective within 1e-9", worst_obj <= 1e-9),
        ("mean coefficients within 1e-9", worst_beta <= 1e-9),
        ("runtime < 60 s", seconds < 60.0),
    ], f"worst rel err {worst:.2e}, {seconds:.1f}s")


def test_c03_weight_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n, m, p = int(rng.integers(4, 7)), 3, int(rng.choice([5, 9]))
        designs = random_designs(rng, n, p)
        grid = np.linspace(0.01, 0.15, m)
        Y = rng.standard_normal((n, m))
        data = make_fit_data(designs, Y, grid)
        beta = np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)])
        A = rng.standard_normal((m, m))
        W = np.linalg.inv(A @ A.T + m * np.eye(m))
        E = Y - np.outer(np.ones(n), data.P @ beta)
        M = E @ W @ E.T
        z = rng.uniform(0.05, 1.0, data.nz)
        _, grad = theta_objective(z, data, M, lambda_I=0.3)
        fd = central_diff_gradient(
            lambda zz: theta_objective(zz, data, M, 0.3)[0], z, h=1e-5)
        worst = max(worst, float(
            np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))))
    report(3, "weight gradient vs central differences",
           [("relative error < 1e-5 at 20 states", worst < 1e-5)],
           f"worst rel err {worst:.2e}")


def test_c04_precision_estimator_optimality():
    rng = np.random.default_rng(5)
    inv_ok = True
    for _ in range(5):
        A = rng.standard_normal((10, 10))
        S = A @ A.T / 10.0 + np.eye(10)
        W = graphical_lasso(S, 0.0, tol=1e-10)
        inv_ok &= bool(np.allclose(W, np.linalg.inv(S), rtol=1e-6, atol=1e-6))
    S2 = np.array([[2.0, 0.45], [0.45, 1.5]])
    below = graphical_lasso(S2, 0.44, tol=1e-12)[0, 1]
    at = graphical_lasso(S2, 0.45, tol=1e-12)[0, 1]
    above = graphical_lasso(S2, 0.46, tol=1e-12)[0, 1]
    worst_kkt = 0.0
    for m in (2, 5, 8):
        for lam in (0.0, 0.05, 0.2, 0.6):
            B = rng.standard_normal((m, m))
            S = B @ B.T / m + np.eye(m)
            W = graphical_lasso(S, lam, tol=1e-8)
            worst_kkt = max(worst_kkt, glasso_kkt_residual(S, W, lam))
    report(4, "precision estimator optimality", [
        ("zero penalty recovers the matrix inverse", inv_ok),
        ("2x2 off-diagonal zero iff penalty >= |S_12|",
         below != 0.0 and at == 0.0 and above == 0.0),
        ("KKT residual <= tolerance at every return", worst_kkt <= 1e-8),
    ], f"threshold ({below:.2e}, {at:.1e}, {above:.1e}), KKT {worst_kkt:.2e}")


def test_c05_benchmark_fit_descends(sped_fit):
    worst_rise = -np.inf
    for rec in sped_fit.trace.restarts:
        obj = np.asarray(rec["objectives"], dtype=float)
        assert obj.size >= 2
        rises = np.diff(obj) / np.maximum(1.0, np.abs(obj[:-1]))
        worst_rise = max(worst_rise, float(rises.max()))
    report(5, "benchmark fit descends", [
        ("objective non-increasing in every restart", worst_rise <= 1e-9),
        ("fit under 30 minutes", sped_fit.seconds < 1800.0),
    ], f"worst relative rise {worst_rise:.2e}, fit {sped_fit.seconds:.1f}s")


def test_benchmark_fits_carry_the_glasso_dual(sped_fit, second_fit):
    # each restart's first Sigma step starts from the threshold and each
    # later one from the dual point the previous sweep's glasso returned;
    # without the carried point (each step started from its incoming
    # precision) the two fits took 283 and 314 glasso passes with 1 BLAS
    # thread and 218-282 unpinned on 2 cores
    for label, trace in (("training seed 0", sped_fit.trace),
                         ("training seed 1", second_fit.trace)):
        passes = sum(sum(rec["sigma_iterations"]) for rec in trace.restarts)
        starts = [rec["sigma_start"] for rec in trace.restarts]
        print(f"[glasso] {label}: {passes} passes, starts {starts}")
        assert passes <= 180, f"{label}: {passes} glasso passes"
        for k, rec in enumerate(starts):
            assert rec == ["threshold"] + ["dual"] * (len(rec) - 1), (
                f"{label}, restart {k}: starts {rec}")


def test_c06_interpolation_and_calibration(bench, sped_fit):
    model = sped_fit.model
    exact = TrainedEmulator(
        data=make_fit_data(model.data.designs, model.data.Y, model.grid, nugget=0.0),
        z=model.z, beta=model.beta, Sigma=model.Sigma)
    worst_v, worst_fit = 0.0, 0.0
    for j, design in enumerate(exact.data.designs):
        pred = predict(exact, design)
        worst_v = max(worst_v, pred.scale)
        worst_fit = max(worst_fit, float(np.abs(pred.mean - exact.data.Y[j]).max()))

    rng = np.random.default_rng(7)
    inside = total = 0
    for design in bench.test.designs:
        pred = predict(model, design)
        lo, hi = hpd_interval(pred, 0.9)
        L = np.linalg.cholesky(pred.covariance())
        draws = pred.mean + rng.standard_normal((2000, model.data.m)) @ L.T
        inside += int(np.count_nonzero((draws >= lo) & (draws <= hi)))
        total += draws.size
    coverage = inside / total
    report(6, "exact interpolation and band calibration", [
        ("training-point predictive scale <= 1e-8", worst_v <= 1e-8),
        ("training rows reproduced", worst_fit <= 1e-6),
        ("90% band Monte Carlo coverage within 0.90 +/- 0.02",
         abs(coverage - 0.90) <= 0.02),
    ], f"max scale {worst_v:.2e}, max resid {worst_fit:.2e}, "
       f"coverage {coverage:.4f}")


def test_benchmark_fit_not_carried_by_nugget(sped_fit):
    # the kernel, not the nugget, determines the benchmark fit: cutting the
    # nugget 100x shrinks what the chosen restart misses on its training rows
    best = chosen_restart(sped_fit.trace, "benchmark")
    assert best["nugget_carried"] is False
    assert best["nugget_share_ratio"] <= CARRIED_RATIO
    # no carried restart was passed over for a lower objective
    assert best["final_objective"] == min(rec["final_objective"]
                                          for rec in sped_fit.trace.restarts)


def test_model_r_is_the_fit_correlation(sped_fit, feature_fit):
    # the returned model's R is, bit for bit, the matrix the fit scored at
    # the fitted weights
    for model in (sped_fit.model, feature_fit):
        data = make_fit_data(model.data.designs, model.data.Y, model.grid,
                             family=model.data.family, nugget=model.data.nugget)
        np.testing.assert_array_equal(model.R, data.correlation(model.z))


def test_c07_benchmark_accuracy(bench, sped_fit, feature_fit,
                                randomized_phase_test):
    checks, detail = accuracy_checks(sped_fit.model, feature_fit, bench.test,
                                     randomized_phase_test)
    report(7, "benchmark accuracy and shift robustness", checks, detail)


def test_c07_second_training_set(randomized_phase_test, second_fit):
    # criterion 7 and the nugget check on training seed 1, which scores
    # lower than seed 0 (16/18 classified, one carried restart)
    test = oracle_dataset(sample_designs(18, seed=2, scheme="sobol"))
    feature_model, _ = fit(second_fit.train,
                           dataclasses.replace(BENCH_CONFIG, family="feature_based"))
    best = chosen_restart(second_fit.trace, "training seed 1")
    checks, detail = accuracy_checks(second_fit.model, feature_model, test,
                                     randomized_phase_test)
    report(7, "accuracy and shift robustness on training seed 1", checks + [
        ("chosen restart not carried by the nugget", best["nugget_carried"] is False),
        ("chosen restart's share ratio within the limit",
         best["nugget_share_ratio"] <= CARRIED_RATIO),
    ], detail)


def test_c07_yardstick_training_seed_0(sped_fit, yardstick_set):
    # the scores read the same with 1 BLAS thread and unpinned on 2 cores:
    # median 0.0073, 90th percentile 0.143, share above 0.10 0.168, worst
    # 2.71, coverage 0.762 / 0.803; the bounds leave about 10%
    checks, detail = yardstick_checks(
        sped_fit.model, yardstick_set,
        most={"median MARE": 0.008, "90th percentile MARE": 0.16,
              "share above 0.10": 0.19, "worst MARE": 3.0},
        least={"curve coverage": 0.72, "pointwise coverage": 0.77})
    report(7, "512-design yardstick on training seed 0", checks, detail)


def test_c07_yardstick_training_seed_1(second_fit, yardstick_set):
    # the fit depends on the BLAS thread count: with 1 thread median 0.0095,
    # 90th percentile 0.065, share above 0.10 0.070, worst 0.525, coverage
    # 0.609 / 0.730; unpinned on 2 cores 0.0034, 0.068, 0.061, 0.740 and
    # 0.711 / 0.810. Each bound holds both with about 10% to spare
    checks, detail = yardstick_checks(
        second_fit.model, yardstick_set,
        most={"median MARE": 0.0105, "90th percentile MARE": 0.075,
              "share above 0.10": 0.08, "worst MARE": 0.82},
        least={"curve coverage": 0.57, "pointwise coverage": 0.70})
    report(7, "512-design yardstick on training seed 1", checks, detail)


def test_c08_sparsity_recovery(bench):
    li, lo = select_penalties(bench.train, [0.1, 1.0, 10.0, 30.0, 100.0],
                              [0.5], k=5, config=BENCH_CONFIG)
    config = dataclasses.replace(BENCH_CONFIG, lambda_I=li, lambda_o=lo)
    model, _ = fit(bench.train, config)
    theta, _ = model.data.unpack(model.z)
    inert = np.setdiff1d(np.arange(theta.size), ACTIVE_BAND)
    zero_inert = int(np.count_nonzero(theta[inert] == 0.0))
    active_hit = int(np.count_nonzero(theta[ACTIVE_BAND] > 0.0))
    report(8, "frequency sparsity recovery", [
        ("cross-validation picks a usable penalty", li > 0.0),
        ("exact zeros on >= 80% of inert frequencies",
         zero_inert >= 0.8 * inert.size),
        ("nonzero on >= 5 of the 7 active frequencies", active_hit >= 5),
    ], f"selected lambda_I={li}, zeros {zero_inert}/{inert.size}, "
       f"active {active_hit}/{ACTIVE_BAND.size}")


def c09_problem(model):
    """c09's target: the oracle curve of one sinusoid design, tabulated on
    80 strain levels that span the model grid."""
    target_spec = SinusoidSpec(1.1, 0.62, 0.37, 2.2)
    strain = np.linspace(0.003, 0.155, 80)
    stress = synthetic_oracle(gen_sinusoid(target_spec, 81), strain)
    return build_problem(model, strain, stress)


def test_c09_inverse_design_closed_loop(sped_fit):
    t0 = time.perf_counter()
    problem = c09_problem(sped_fit.model)
    result = optimize(problem, starts=32, seed=0)
    seconds = time.perf_counter() - t0

    target = unlog_stress(problem.target_log)
    err = mare(target, unlog_stress(result.predicted.mean))
    # the design itself, through the oracle, not only the emulator's
    # prediction for it
    found = StructureDesign(result.diameter, result.reconstructed_curve)
    oracle_err = mare(target, synthetic_oracle(found, sped_fit.model.grid))

    pred = result.predicted
    assert pred.scale > 0.0
    rng = np.random.default_rng(11)
    L = np.linalg.cholesky(pred.covariance())
    draws = pred.mean + rng.standard_normal((100_000, pred.mean.size)) @ L.T
    sq = ((draws - problem.target_log) ** 2).sum(axis=1)
    se = float(sq.std(ddof=1) / np.sqrt(sq.size))
    gap = abs(result.objective - float(sq.mean()))
    report(9, "inverse design closed loop", [
        ("predicted curve within 10% of the target", err < 0.10),
        ("oracle curve of the found design within 10% of the target",
         oracle_err <= 0.10),
        ("objective matches Monte Carlo expectation within 3 SE",
         gap <= 3.0 * se),
        ("runtime < 5 minutes", seconds < 300.0),
    ], f"MARE predicted {err:.4f}, oracle {oracle_err:.4f}, "
       f"MC gap {gap:.3e} vs 3SE {3 * se:.3e}, {seconds:.1f}s")


def test_c09_stop_tolerance_keeps_the_design(sped_fit, monkeypatch):
    """c09's search at the shipped F_TOL, L-BFGS-B's default, finds a design
    as good as the search at F_TOL = 1e-12. Each bound is about 5x the gap
    measured on this problem with 1 BLAS thread and unpinned: objectives
    2.3e-9 and 1.1e-9 relative, predicted MARE 5.7e-8 and 1.5e-8, oracle
    MARE 2.9e-8 and 8.8e-8."""
    problem = c09_problem(sped_fit.model)
    target = unlog_stress(problem.target_log)

    def solve():
        result = optimize(problem, starts=32, seed=0)
        found = StructureDesign(result.diameter, result.reconstructed_curve)
        return (result.objective,
                mare(target, unlog_stress(result.predicted.mean)),
                mare(target, synthetic_oracle(found, sped_fit.model.grid)))

    shipped = solve()
    monkeypatch.setattr(mimic, "F_TOL", 1e-12)
    tight = solve()
    rel = abs(shipped[0] - tight[0]) / abs(tight[0])
    pred_gap, oracle_gap = abs(shipped[1] - tight[1]), abs(shipped[2] - tight[2])
    print(f"objective {shipped[0]:.9e} vs {tight[0]:.9e} (relative {rel:.2e}); "
          f"MARE gaps predicted {pred_gap:.2e}, oracle {oracle_gap:.2e}")
    assert rel <= 1e-8
    assert pred_gap <= 5e-7
    assert oracle_gap <= 5e-7


def test_c10_byte_identical_reruns(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--n", "12", "--test-n", "4", "--seed", "7",
                 "--p", "21", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda_i": 0.5, "lambda_o": 0.5,
                                  "restarts": 2, "seed": 0}))
    pairs = []
    for tag in ("a", "b"):
        model = tmp_path / f"model_{tag}.json"
        preds = tmp_path / f"preds_{tag}.csv"
        rep = tmp_path / f"report_{tag}.json"
        assert main(["fit", "--train", str(data), "--config", str(config),
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model),
                     "--designs", str(data / "test_designs.csv"),
                     "--out", str(preds)]) == 0
        assert main(["eval", "--model", str(model), "--test", str(data),
                     "--out", str(rep)]) == 0
        pairs.append([model.read_bytes(), model.with_suffix(".trace.json")
                      .read_bytes(), preds.read_bytes(), rep.read_bytes()])
    same = [a == b for a, b in zip(*pairs)]
    report(10, "byte-identical reruns", [
        ("model files identical", same[0]),
        ("fit traces identical", same[1]),
        ("prediction tables identical", same[2]),
        ("evaluation reports identical", same[3]),
    ], "model, trace, predictions, report")
