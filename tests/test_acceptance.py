"""Release gate: ten end-to-end criteria, one test and one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every
``[criterion NN] name: PASS/FAIL (...)`` line; measurements are included
so a failing bound is readable without re-running. The synthetic
benchmark (58 latin-hypercube training runs, 18 Sobol test runs, curves
discretized at p = 81 on the default strain grid) is shared by the
slower criteria through module-scoped fixtures, and by one more check
that the nugget does not carry the benchmark fit.
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
from spedgp.spectral import correlation_matrix, cross_correlation, half_size

from .oracles import (central_diff_gradient, dense_conditional, dense_gls_beta,
                      penalized_objective)

GRID = default_strain_grid()
BENCH_CONFIG = FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=5, seed=0)


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
def randomized_phase_test():
    rng = np.random.default_rng(42)
    specs = [SinusoidSpec(s.d, s.A, s.omega, rng.uniform(0.0, 2.0 * np.pi))
             for s in sample_designs(18, seed=1, scheme="sobol")]
    return oracle_dataset(specs)


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
        R = correlation_matrix(designs, z, "sped", 0.0)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(R).min()))
        base = designs[0]
        shifted = StructureDesign(base.diameter,
                                  np.roll(base.curve, int(rng.integers(1, p))))
        rho = cross_correlation(shifted, [base], z, "sped")[0]
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
        r = cross_correlation(new, designs, z, "sped")
        R = correlation_matrix(designs, z, "sped", data.nugget)
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
    records = sped_fit.trace.restarts
    best_index = sped_fit.trace.best_index
    best = records[best_index]
    ratios = ", ".join("none" if rec["nugget_share_ratio"] is None
                       else f"{rec['nugget_share_ratio']:.3f}"
                       for rec in records)
    print(f"[nugget] benchmark restart share ratios {ratios}; chosen "
          f"restart {best_index}, limit {CARRIED_RATIO:.3f}")
    assert best["nugget_carried"] is False
    assert best["nugget_share_ratio"] <= CARRIED_RATIO
    # no carried restart was passed over for a lower objective
    assert best["final_objective"] == min(rec["final_objective"]
                                          for rec in records)


def test_model_r_is_the_fit_correlation(sped_fit, feature_fit):
    # the returned model's R is, bit for bit, the matrix the fit scored at
    # the fitted weights
    for model in (sped_fit.model, feature_fit):
        data = make_fit_data(model.data.designs, model.data.Y, model.grid,
                             family=model.data.family, nugget=model.data.nugget)
        np.testing.assert_array_equal(model.R, data.correlation(model.z))


def test_c07_benchmark_accuracy(bench, sped_fit, feature_fit,
                                randomized_phase_test):
    sped_report = evaluate(sped_fit.model, bench.test)
    sped_rand = evaluate(sped_fit.model, randomized_phase_test)
    feat_rand = evaluate(feature_fit, randomized_phase_test)
    med = sped_report.summary["median_mare"]
    med_rand = sped_rand.summary["median_mare"]
    med_feat = feat_rand.summary["median_mare"]
    correct = sped_report.summary["classification_correct"]
    report(7, "benchmark accuracy and shift robustness", [
        ("median relative error < 0.10", med < 0.10),
        ("median relative error < 0.10 under randomized phases",
         med_rand < 0.10),
        ("beats the scalar-feature kernel under randomized phases",
         med_rand < med_feat),
        ("classification >= 16/18", correct >= 16),
    ], f"median {med:.4f}, randomized {med_rand:.4f} vs feature "
       f"{med_feat:.4f}, classified {correct}/18")


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


def test_c09_inverse_design_closed_loop(sped_fit):
    t0 = time.perf_counter()
    target_spec = SinusoidSpec(1.1, 0.62, 0.37, 2.2)
    strain = np.linspace(0.003, 0.155, 80)
    stress = synthetic_oracle(gen_sinusoid(target_spec, 81), strain)
    problem = build_problem(sped_fit.model, strain, stress)
    result = optimize(problem, starts=32, seed=0)
    seconds = time.perf_counter() - t0

    target = unlog_stress(problem.target_log)
    err = mare(target, unlog_stress(result.predicted.mean))

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
        ("objective matches Monte Carlo expectation within 3 SE",
         gap <= 3.0 * se),
        ("runtime < 5 minutes", seconds < 300.0),
    ], f"MARE {err:.4f}, MC gap {gap:.3e} vs 3SE {3 * se:.3e}, {seconds:.1f}s")


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
