import logging
import multiprocessing
import os
import re
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import spedgp.estimate as est

from spedgp import (
    Dataset,
    FitConfig,
    FitError,
    InvalidInputError,
    SingularMatrixError,
    StructureDesign,
    fit,
    select_penalties,
    spectral,
)
from spedgp.cokrige import default_strain_grid, log_stress, mean_basis, predict
from spedgp.design import gen_sinusoid, sample_designs
from spedgp.estimate import (
    EPSILON_BETA,
    _theta_value,
    beta_step,
    glasso_kkt_residual,
    make_fit_data,
    neg_log_posterior,
    sigma_step,
    theta_objective,
    theta_step,
)
from spedgp.oracle import synthetic_oracle

from .oracles import central_diff_gradient, dense_gls_beta, penalized_objective


def random_fit_data(rng, n=4, m=3, p=5, nugget=1e-8):
    designs = [StructureDesign(rng.uniform(0.3, 1.8), rng.standard_normal(p))
               for _ in range(n)]
    grid = np.linspace(0.01, 0.15, m)
    Y = rng.standard_normal((n, m))
    return make_fit_data(designs, Y, grid, nugget=nugget), designs, Y, grid


def random_state(rng, data):
    z = rng.uniform(0.05, 0.4, data.nz)
    beta = np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)])
    A = rng.standard_normal((data.m, data.m))
    Sigma = A @ A.T + data.m * np.eye(data.m)
    return beta, z, Sigma


class Odd(Exception):
    """An exception that pickle cannot rebuild from its args."""

    def __init__(self, a, b):
        super().__init__(f"odd {a} {b}")


def fit_with_workers(data, cfg, monkeypatch, workers):
    monkeypatch.setattr(est, "_restart_workers", lambda restarts: workers)
    return fit(data, cfg)


def mark_carried(monkeypatch, pick):
    """Make `fit` see as carried by the nugget exactly the restarts that
    pick(final objectives) names, whatever the nugget does to them.

    Which restarts the nugget really carries turns on line searches that
    fail at rounding level, so tests of fit's choice build that outcome
    instead. A marked record gets share ratio 1, every other one
    1 / NUGGET_CUT: the two regimes nugget_carry tells apart.
    """
    inner = est._run_restarts

    def run(fd, config, children):
        outcomes = inner(fd, config, children)
        carried = pick([rec["final_objective"] for *_, rec in outcomes])
        for r, *_, rec in outcomes:
            ratio = 1.0 if r in carried else 1.0 / est.NUGGET_CUT
            rec.update(nugget_share_ratio=ratio,
                       nugget_carried=ratio > est.CARRIED_RATIO)
        return outcomes

    monkeypatch.setattr(est, "_run_restarts", run)


class TestNegLogPosterior:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data, designs, Y, grid = random_fit_data(rng)
            beta, z, Sigma = random_state(rng, data)
            theta, _ = data.unpack(z)
            got = neg_log_posterior(beta, z, Sigma, data,
                                    lambda_I=0.7, lambda_o=0.3)
            R = data.correlation(z)
            want = penalized_objective(Y, R, Sigma, beta, mean_basis(grid),
                                       0.7, 0.3, theta)
            assert got == pytest.approx(want, rel=1e-9)

    def test_negative_theta_rejected(self):
        rng = np.random.default_rng(1)
        data, *_ = random_fit_data(rng)
        beta, z, Sigma = random_state(rng, data)
        z[0] = -0.1
        with pytest.raises(InvalidInputError):
            neg_log_posterior(beta, z, Sigma, data, 0.0, 0.0)

    def test_wrong_weight_length_rejected(self):
        rng = np.random.default_rng(1)
        data, *_ = random_fit_data(rng)
        beta, z, Sigma = random_state(rng, data)
        with pytest.raises(InvalidInputError, match="kernel weights: shape"):
            neg_log_posterior(beta, z[:-1], Sigma, data, 0.0, 0.0)

    def test_nan_sigma_raises(self):
        # dpotrf factors a NaN Sigma without complaint; the objective would be NaN
        rng = np.random.default_rng(1)
        data, *_ = random_fit_data(rng)
        beta, z, Sigma = random_state(rng, data)
        Sigma[1, 0] = Sigma[0, 1] = np.nan
        with pytest.raises(InvalidInputError, match="Sigma must be finite"):
            neg_log_posterior(beta, z, Sigma, data, 0.0, 0.0)

    def test_inf_sigma_is_not_reported_as_indefinite(self):
        # dpotrf fails on an inf next to the diagonal instead of factoring it
        rng = np.random.default_rng(1)
        data, *_ = random_fit_data(rng)
        beta, z, Sigma = random_state(rng, data)
        Sigma[1, 0] = Sigma[0, 1] = np.inf
        with pytest.raises(InvalidInputError, match="Sigma must be finite"):
            neg_log_posterior(beta, z, Sigma, data, 0.0, 0.0)


class TestSigmaStep:
    def test_unpenalized_block_is_generalized_sample_covariance(self):
        # With lambda_o = 0 the block minimizer is E'R^-1E / n exactly.
        rng = np.random.default_rng(2)
        data, designs, Y, grid = random_fit_data(rng, n=6, m=3)
        z = rng.uniform(0.05, 0.3, data.nz)
        R, choR = data.chol(z)
        beta = np.array([0.5, 1.0])
        Sigma, W, _ = sigma_step(data, choR, beta, lambda_o=0.0, W=np.eye(data.m))
        E = Y - np.outer(np.ones(data.n), data.P @ beta)
        S0 = np.linalg.solve(R, E).T @ E / data.n
        np.testing.assert_allclose(Sigma, (S0 + S0.T) / 2, rtol=1e-8, atol=1e-10)

    def test_penalized_block_is_glasso_with_scaled_penalty(self):
        # Hand-assembled n=3, m=2 case: the Sigma block of the objective is
        # n * (-logdet W + tr((S0 + rho I) W) + rho ||W||_offdiag,1) with
        # rho = lambda_o / n, so the KKT certificate must hold there.
        rng = np.random.default_rng(3)
        data, designs, Y, grid = random_fit_data(rng, n=3, m=2)
        z = rng.uniform(0.05, 0.2, data.nz)
        R, choR = data.chol(z)
        beta = np.array([0.1, 0.8])
        lam_o = 0.9
        Sigma, W, stats = sigma_step(data, choR, beta, lambda_o=lam_o, W=np.eye(data.m))
        assert stats["kkt"] <= 1.0
        E = Y - np.outer(np.ones(3), data.P @ beta)
        S0 = np.linalg.solve(R, E).T @ E / 3.0
        S0 = (S0 + S0.T) / 2
        rho = lam_o / 3.0
        assert glasso_kkt_residual(S0 + rho * np.eye(2), W, rho) <= 1e-8
        np.testing.assert_allclose(Sigma, np.linalg.inv(W), rtol=1e-8)

    def test_step_does_not_increase_objective(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            data, designs, Y, grid = random_fit_data(rng, n=5, m=4)
            beta, z, Sigma0 = random_state(rng, data)
            R, choR = data.chol(z)
            f0 = neg_log_posterior(beta, z, Sigma0, data, 0.0, 0.4)
            Sigma1, W1, _ = sigma_step(data, choR, beta, lambda_o=0.4,
                                       W=np.linalg.inv(Sigma0))
            f1 = neg_log_posterior(beta, z, Sigma1, data, 0.0, 0.4)
            assert f1 <= f0 + 1e-8 * max(1.0, abs(f0))

    @staticmethod
    def block_optimum():
        """A Sigma block with its optimum W, reached from the identity."""
        rng = np.random.default_rng(5)
        data, *_ = random_fit_data(rng, n=5, m=4)
        beta, z, _ = random_state(rng, data)
        _, choR = data.chol(z)
        _, W_opt, stats = sigma_step(data, choR, beta, 0.4, np.eye(data.m))
        assert stats["kkt"] <= 1.0
        return data, choR, beta, W_opt

    @pytest.mark.parametrize("iterate", ["worse", "indefinite"])
    def test_never_ascend_keeps_the_incoming_precision(self, monkeypatch, iterate):
        # the glasso returns a worse or an indefinite iterate from the optimum
        data, choR, beta, W_opt = self.block_optimum()
        calls = []

        def glasso(S, lam, tol, precision_init):
            calls.append((S, lam, tol))
            return (2.0 * W_opt if iterate == "worse" else -np.eye(data.m)), 7, 0.0

        monkeypatch.setattr(est, "glasso_newton", glasso)
        Sigma, W, stats = sigma_step(data, choR, beta, 0.4, W_opt)
        [(S, lam, tol)] = calls
        np.testing.assert_array_equal(W, W_opt)
        assert stats == {"iterations": 7, "kkt": glasso_kkt_residual(S, W_opt, lam) / tol}
        want = spectral.solve_factored(spectral.cholesky(W_opt.copy()), np.eye(data.m))
        np.testing.assert_array_equal(Sigma, 0.5 * (want + want.T))

    def test_neither_precision_definite_raises(self, monkeypatch):
        data, choR, beta, _ = self.block_optimum()
        monkeypatch.setattr(est, "glasso_newton",
                            lambda S, lam, tol, precision_init: (-np.eye(data.m), 7, 0.0))
        with pytest.raises(SingularMatrixError, match="indefinite precision"):
            sigma_step(data, choR, beta, 0.4, -np.eye(data.m))

    def test_ill_conditioned_fit_certifies_within_iteration_bound(self, monkeypatch):
        # 20 designs against 41 strain levels: by sweep 4 cond(W) ~ 9e5.
        # The solver took 5, 9, 12 and 25 iterations (x86-64, OpenBLAS
        # 0.3.31); the bound is the largest plus a margin for rounding
        # differences between BLAS builds.
        grid = default_strain_grid()
        designs = [gen_sinusoid(s, 21) for s in sample_designs(20, seed=41)]
        Y = np.array([synthetic_oracle(d, grid) for d in designs])
        monkeypatch.setattr(est, "MAX_SWEEPS", 4)
        cfg = FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=1)
        _, trace = fit(Dataset(designs=designs, responses=Y, grid=grid), cfg)
        record = trace.restarts[0]
        assert len(record["sigma_iterations"]) == record["sweeps"] == 4
        assert max(record["sigma_iterations"]) <= 40
        assert max(record["sigma_kkt"]) <= 1.0


class TestBetaStep:
    def test_grand_mean_regression_under_generic_correlation(self):
        # With W = I, beta is the OLS fit of the R^-1-weighted average row.
        rng = np.random.default_rng(5)
        data, designs, Y, grid = random_fit_data(rng, n=6, m=4)
        Y = Y + 3.0 * np.log(grid)  # keep the optimal slope positive
        data = make_fit_data(designs, Y, grid)
        z = rng.uniform(0.1, 0.4, data.nz)
        R, choR = data.chol(z)
        beta = beta_step(data, choR, np.eye(4))
        u = np.linalg.solve(R, np.ones(6))
        ybar = Y.T @ u / u.sum()
        want = np.linalg.lstsq(data.P, ybar, rcond=None)[0]
        assert want[1] > 0
        np.testing.assert_allclose(beta, want, rtol=1e-9)

    def test_matches_dense_gls(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            data, designs, Y, grid = random_fit_data(rng, n=4, m=3)
            _, z, Sigma = random_state(rng, data)
            R, choR = data.chol(z)
            want = dense_gls_beta(Y, R, Sigma, grid)
            if want[1] <= 0:
                continue
            got = beta_step(data, choR, np.linalg.inv(Sigma))
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_slope_pinned_when_optimum_is_nonpositive(self):
        # Decreasing log response in log strain drives the GLS slope
        # negative; the step must pin it just above zero and re-solve the
        # intercept at that slope.
        rng = np.random.default_rng(7)
        n, m = 5, 6
        designs = [StructureDesign(rng.uniform(0.5, 1.5), rng.standard_normal(7))
                   for _ in range(n)]
        grid = np.linspace(0.01, 0.15, m)
        Y = np.tile(-2.0 * np.log(grid), (n, 1))
        data = make_fit_data(designs, Y, grid)
        z = rng.uniform(0.1, 0.4, data.nz)
        R, choR = data.chol(z)
        eps = EPSILON_BETA
        beta = beta_step(data, choR, np.eye(m))
        assert beta[1] == eps
        P = data.P
        ybar = np.linalg.solve(R, Y).sum(axis=0) / np.linalg.solve(
            R, np.ones(n)).sum()
        target = ybar - eps * P[:, 1]
        assert beta[0] == pytest.approx(np.mean(target), rel=1e-9)


class TestThetaBlock:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data, designs, Y, grid = random_fit_data(rng, n=4, m=3)
            beta, z, Sigma = random_state(rng, data)
            W = np.linalg.inv(Sigma)
            E = Y - np.outer(np.ones(4), data.P @ beta)
            M = E @ W @ E.T
            _, grad = theta_objective(z, data, M, lambda_I=0.3)
            fd = central_diff_gradient(
                lambda zz: theta_objective(zz, data, M, 0.3)[0], z, h=1e-5)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_step_descends_and_respects_bounds(self):
        rng = np.random.default_rng(9)
        data, designs, Y, grid = random_fit_data(rng, n=5, m=3)
        beta, z0, Sigma = random_state(rng, data)
        W = np.linalg.inv(Sigma)
        E = Y - np.outer(np.ones(5), data.P @ beta)
        M = E @ W @ E.T
        f0, _ = theta_objective(z0, data, M, 0.5)
        z1, f1, warn = theta_step(data, beta, W, z0, 0.5)
        assert f1 <= f0
        assert np.all(z1 >= 0)

    def test_one_frequency_toy_matches_grid_search(self):
        # Single active coordinate: scan the scalar weight and check the
        # quasi-Newton step lands at (or below) the best grid value.
        rng = np.random.default_rng(10)
        n, p, m = 6, 5, 3
        designs = [StructureDesign(1.0, rng.standard_normal(p)) for _ in range(n)]
        grid = np.linspace(0.01, 0.15, m)
        Y = rng.standard_normal((n, m))
        data = make_fit_data(designs, Y, grid)
        beta = np.zeros(2) + [0.0, 1.0]
        W = np.eye(m)
        E = Y - np.outer(np.ones(n), data.P @ beta)
        M = E @ W @ E.T

        def f_scalar(t):
            z = np.zeros(data.nz)
            z[1] = t
            return theta_objective(z, data, M, 0.0)[0]

        ts = np.linspace(0.0, 10.0, 2001)
        best_t = ts[int(np.argmin([f_scalar(t) for t in ts]))]
        z0 = np.zeros(data.nz)
        z0[1] = 1.0
        z1, f1, _ = theta_step(data, beta, W, z0, 0.0)
        assert f1 <= f_scalar(best_t) + 1e-6

    def test_penalty_excludes_diameter_weight(self):
        rng = np.random.default_rng(11)
        data, designs, Y, grid = random_fit_data(rng, n=4, m=3)
        beta, z, Sigma = random_state(rng, data)
        W = np.linalg.inv(Sigma)
        E = Y - np.outer(np.ones(4), data.P @ beta)
        M = E @ W @ E.T
        f_lo, _ = theta_objective(z, data, M, 0.0)
        f_hi, _ = theta_objective(z, data, M, 5.0)
        # only the frequency block is penalized, never the diameter slice
        assert f_hi - f_lo == pytest.approx(5.0 * z[:-1].sum(), rel=1e-12)

    def test_unfactorable_correlation_is_a_wall(self):
        # z = 0 without a nugget makes R = 11', which does not factor
        rng = np.random.default_rng(12)
        data, _, _, _ = random_fit_data(rng, n=4, m=3, nugget=0.0)
        z = np.zeros(data.nz)
        f, grad = theta_objective(z, data, np.eye(4), 0.5)
        assert f == 1e300
        np.testing.assert_array_equal(grad, np.zeros(data.nz))


@pytest.fixture(scope="module")
def small_training_set():
    grid = np.linspace(0.005, 0.15, 9)
    specs = sample_designs(10, seed=21)
    designs = [gen_sinusoid(s, 21) for s in specs]
    Y = np.array([synthetic_oracle(d, grid) for d in designs])
    return Dataset(designs=designs, responses=Y, grid=grid)


class TestThetaValue:
    """The value-only evaluation behind theta_step's f0 and the truncation
    probes returns theta_objective's f bit for bit."""

    @pytest.mark.parametrize("source", ["small_training_set", "nine_designs"])
    def test_equals_the_objective_value(self, source, small_training_set):
        rng = np.random.default_rng(13)
        if source == "small_training_set":
            ds = small_training_set
            data = make_fit_data(ds.designs, log_stress(ds.responses), ds.grid)
        else:
            data, *_ = random_fit_data(rng, n=9, m=3, nugget=0.0)
        A = rng.standard_normal((data.m, data.m))
        W = np.linalg.inv(A @ A.T + data.m * np.eye(data.m))
        E = data.residuals(np.array([0.2, 1.0]))
        M = E @ W @ E.T
        scale = est._initial_z(data, np.ones(data.nz))
        zs = [t * scale for t in (0.01, 1.0, 30.0)] + [rng.exponential(1.0, data.nz) * scale]
        zs.append(np.where(rng.random(data.nz) < 0.5, 0.0, scale))
        if data.nugget == 0.0:
            zs.append(np.zeros(data.nz))  # R = 11' does not factor: the wall
        values = []
        for z in zs:
            for lambda_I in (0.0, 0.7):
                f = _theta_value(z, data, M, lambda_I)[0]
                assert f == theta_objective(z, data, M, lambda_I)[0]
                values.append(f)
        assert (1e300 in values) == (data.nugget == 0.0)


@pytest.fixture(scope="module")
def block_state():
    rng = np.random.default_rng(14)
    data, *_ = random_fit_data(rng, n=5, m=4)
    beta, z, Sigma = random_state(rng, data)
    _, choR = data.chol(z)
    return SimpleNamespace(data=data, beta=beta, z=z, W=np.linalg.inv(Sigma),
                           Sigma=Sigma, choR=choR)


#: a 4 x 4 nesting with one short row
RAGGED = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]


class TestBlockArguments:
    """Malformed arguments to the public block functions raise
    InvalidInputError before any work, with m = 4 strain levels; a
    well-formed but singular matrix raises SingularMatrixError."""

    @pytest.mark.parametrize("call,message", [
        (lambda s: theta_step(s.data, s.beta, s.W, s.z[:-1], 0.5),
         "kernel weights: shape"),
        (lambda s: theta_step(s.data, s.beta, s.W, -s.z, 0.5),
         "kernel weights must be finite and nonnegative"),
        (lambda s: theta_step(s.data, s.beta, s.W, s.z, -0.5),
         "lambda_I must be finite and nonnegative"),
        (lambda s: theta_step(s.data, s.beta, np.eye(3), s.z, 0.5),
         "W: shape"),
        (lambda s: sigma_step(s.data, s.choR, np.ones(3), 0.1, s.W), "beta: shape"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, -1.0, s.W),
         "lambda_o must be finite and nonnegative"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, 0.1, W=np.eye(3)),
         "W: shape"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, 0.1, W=RAGGED),
         "W: shape"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, 0.1, W=np.full((4, 4), np.nan)),
         "W must be finite"),
        (lambda s: beta_step(s.data, s.choR, np.eye(3)), "W: shape"),
        (lambda s: beta_step(s.data, s.choR[:-1, :-1], s.W),
         "choR: shape"),
        (lambda s: neg_log_posterior(np.ones(3), s.z, s.Sigma, s.data, 0.1, 0.1),
         "beta: shape"),
        (lambda s: neg_log_posterior(np.array([0.1, np.nan]), s.z, s.Sigma, s.data, 0.1, 0.1),
         "beta must be finite"),
        (lambda s: theta_step(s.data, s.beta, s.W, s.z, "0.5"),
         "lambda_I must be finite and nonnegative, got '0.5'"),
        (lambda s: theta_step(s.data, s.beta, s.W, s.z.astype(str), 0.5),
         "kernel weights must hold real numbers"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, np.True_, s.W),
         "lambda_o must be finite and nonnegative"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, True, s.W),
         "lambda_o must be finite and nonnegative, got True"),
        (lambda s: sigma_step(s.data, s.choR, s.beta, 0.1, W=s.W.astype(str)),
         "W must hold real numbers"),
        (lambda s: sigma_step(s.data, s.choR, s.beta.tolist()[:1] + [True], 0.1, s.W),
         "beta must hold real numbers"),
        (lambda s: beta_step(s.data, s.choR != 0, s.W), "choR must hold real numbers"),
        (lambda s: beta_step(s.data, s.choR, [row[:3] + [True] for row in s.W.tolist()]),
         "W must hold real numbers"),
        (lambda s: neg_log_posterior([str(b) for b in s.beta], s.z, s.Sigma, s.data, 0.1, 0.1),
         "beta must hold real numbers"),
        (lambda s: neg_log_posterior(s.beta, s.z, s.Sigma.astype(str), s.data, 0.1, 0.1),
         "Sigma must hold real numbers"),
        (lambda s: neg_log_posterior(s.beta, s.z, s.Sigma != 0, s.data, 0.1, 0.1),
         "Sigma must hold real numbers"),
        (lambda s: neg_log_posterior(s.beta, s.z, None, s.data, 0.1, 0.1), "Sigma: shape"),
        (lambda s: neg_log_posterior(s.beta, s.z, RAGGED, s.data, 0.1, 0.1), "Sigma: shape"),
        (lambda s: neg_log_posterior(s.beta, s.z, np.eye(3), s.data, 0.1, 0.1),
         "Sigma: shape"),
    ], ids=["theta z0 length", "theta z0 negative", "theta lambda_I", "theta W",
            "sigma beta", "sigma lambda_o", "sigma W", "sigma W ragged", "sigma W nan",
            "beta W", "beta choR", "nlp beta length", "nlp beta nan",
            "theta lambda_I string", "theta z0 strings", "sigma lambda_o numpy bool",
            "sigma lambda_o bool", "sigma W strings", "sigma beta bool",
            "beta choR bools", "beta W bool entry", "nlp beta strings",
            "nlp Sigma strings", "nlp Sigma bools", "nlp Sigma None", "nlp Sigma ragged",
            "nlp Sigma size"])
    def test_raises_typed_error(self, block_state, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call(block_state)

    @pytest.mark.parametrize("call,message", [
        (lambda s: neg_log_posterior(s.beta, s.z, -s.Sigma, s.data, 0.1, 0.1),
         "Sigma is not positive definite"),
        # P = [1, log s] has independent columns on an increasing grid
        (lambda s: beta_step(s.data, s.choR, np.zeros((4, 4))),
         "P'WP is singular; W is singular on the mean basis"),
    ], ids=["nlp indefinite Sigma", "beta singular W"])
    def test_singular_matrix_raises_typed_error(self, block_state, call, message):
        with pytest.raises(SingularMatrixError, match=re.escape(message)):
            call(block_state)


@pytest.fixture(scope="module")
def tiny_set():
    grid = np.linspace(0.005, 0.15, 7)
    specs = sample_designs(12, seed=31)
    designs = [gen_sinusoid(s, 21) for s in specs]
    Y = np.array([synthetic_oracle(d, grid) for d in designs])
    return Dataset(designs=designs, responses=Y, grid=grid)


class TestFit:
    def test_objective_non_increasing_every_restart(self, small_training_set):
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=3, seed=0)
        model, trace = fit(small_training_set, cfg)
        assert trace.best_index in range(3)
        for rec in trace.restarts:
            obj = rec["objectives"]
            assert len(obj) >= 2
            for a, b in zip(obj, obj[1:]):
                assert b <= a + 1e-6 * max(1.0, abs(a))

    def test_deterministic_across_runs(self, small_training_set):
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=3)
        m1, t1 = fit(small_training_set, cfg)
        m2, t2 = fit(small_training_set, cfg)
        np.testing.assert_array_equal(m1.z, m2.z)
        np.testing.assert_array_equal(m1.Sigma, m2.Sigma)
        np.testing.assert_array_equal(m1.beta, m2.beta)
        assert t1.to_dict() == t2.to_dict()

    def test_seed_changes_restart_draws(self, small_training_set):
        cfg_a = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=3)
        cfg_b = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=4)
        _, t1 = fit(small_training_set, cfg_a)
        _, t2 = fit(small_training_set, cfg_b)
        # restart 0 is the deterministic all-ones start; later ones differ
        assert (t1.restarts[1]["init_theta_scale"]
                != t2.restarts[1]["init_theta_scale"])

    def test_metadata_objective_is_reproducible(self, small_training_set):
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=0)
        model, trace = fit(small_training_set, cfg)
        data = make_fit_data(small_training_set.designs,
                             log_stress(small_training_set.responses),
                             small_training_set.grid)
        obj = neg_log_posterior(model.beta, model.z, model.Sigma, data,
                                cfg.lambda_I, cfg.lambda_o)
        assert obj == pytest.approx(model.fit_metadata["objective"],
                                    rel=1e-9, abs=1e-6)

    def test_every_restart_carried_keeps_lowest_objective(
            self, small_training_set, caplog, monkeypatch):
        # with no fit the kernel determines, the lowest objective wins and
        # fit warns that the chosen restart is carried
        mark_carried(monkeypatch, lambda objectives: set(range(len(objectives))))
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=0)
        with caplog.at_level(logging.WARNING, logger="spedgp.estimate"):
            _, trace = fit(small_training_set, cfg)
        assert all(rec["nugget_carried"] for rec in trace.restarts)
        objectives = [rec["final_objective"] for rec in trace.restarts]
        assert trace.best_index == int(np.argmin(objectives))
        messages = [rec.getMessage() for rec in caplog.records]
        assert len([m for m in messages if "as is every restart" in m]) == 1
        assert not any("only because the nugget carries them" in m for m in messages)

    @pytest.mark.parametrize("objectives,best", [([2.0, 1.0, 1.0], 1), ([1.0, 2.0, 1.0], 0)])
    def test_tie_goes_to_the_lowest_index(self, small_training_set, caplog, monkeypatch,
                                          objectives, best):
        # every restart is determined by the kernel, and two of them tie
        inner, seen = est._run_restarts, []

        def run(fd, config, children):
            outcomes = inner(fd, config, children)
            for (*_, rec), f in zip(outcomes, objectives):
                rec.update(final_objective=f, nugget_share_ratio=1.0 / est.NUGGET_CUT,
                           nugget_carried=False)
            seen.extend(outcomes)
            return outcomes

        monkeypatch.setattr(est, "_run_restarts", run)
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=3, seed=0)
        with caplog.at_level(logging.WARNING, logger="spedgp.estimate"):
            model, trace = fit(small_training_set, cfg)
        assert trace.best_index == best
        np.testing.assert_array_equal(model.z, seen[best][1])
        assert model.fit_metadata["objective"] == objectives[best]
        assert not any("nugget" in rec.getMessage() for rec in caplog.records)

    def test_one_info_line_per_sweep(self, small_training_set, caplog, monkeypatch):
        monkeypatch.setattr(est, "MAX_SWEEPS", 4)
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=2, seed=0)
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="spedgp.estimate"):
                _, trace = fit_with_workers(small_training_set, cfg, monkeypatch,
                                            workers)
            lines = [rec.getMessage() for rec in caplog.records
                     if rec.levelno == logging.INFO and " sweep=" in rec.getMessage()]
            assert len(lines) == sum(rec["sweeps"] for rec in trace.restarts)
            fields = re.findall(r"(?:^| )(\w+)=", lines[0])
            assert fields == ["restart", "sweep", "objective", "sigma_s", "beta_s",
                              "theta_s", "glasso_iterations", "sigma_kkt",
                              "theta_iterations", "theta_exit", "active",
                              "offdiag_nonzeros"]
            assert lines[0].startswith("restart=0 sweep=1 ")
            assert lines[-1].startswith("restart=1 ")

    def test_objective_rise_stops_the_restart(self, tiny_set, monkeypatch):
        # every sweep's objective reads above the start's, so sweep 1 rises
        nlp, values = est.neg_log_posterior, []

        def rising(*args):
            f = nlp(*args)
            if values:
                f = values[0] + 1.0 + abs(values[0])
            values.append(f)
            return f

        monkeypatch.setattr(est, "neg_log_posterior", rising)
        model, trace = fit(tiny_set, FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=1))
        record = trace.restarts[0]
        assert record["sweeps"] == 1 and not record["converged"]
        assert record["warnings"][-1].startswith("sweep 1: objective increased by ")
        assert record["objectives"] == values[:2]
        assert model.fit_metadata["iterations"] == 1

    def test_duplicate_designs_rejected(self):
        grid = np.linspace(0.01, 0.15, 5)
        rng = np.random.default_rng(1)
        base = rng.standard_normal(9)
        designs = [StructureDesign(1.0, base),
                   StructureDesign(1.0, np.roll(base, 2)),
                   StructureDesign(1.2, rng.standard_normal(9))]
        Y = np.exp(rng.standard_normal((3, 5)))
        ds = Dataset(designs=designs, responses=Y, grid=grid)
        with pytest.raises(InvalidInputError, match="0 and 1"):
            fit(ds, FitConfig(restarts=1))

    def test_first_duplicate_pair_is_named(self):
        # pairs (0, 4) and (1, 2) repeat; row-major order names (0, 4) first
        grid = np.linspace(0.01, 0.15, 5)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        designs = [StructureDesign(1.0, a),
                   StructureDesign(0.8, b),
                   StructureDesign(0.8, np.roll(b, 4)),
                   StructureDesign(1.3, rng.standard_normal(9)),
                   StructureDesign(1.0, np.roll(a, 1))]
        Y = np.exp(rng.standard_normal((5, 5)))
        with pytest.raises(InvalidInputError,
                           match=r"^designs 0 and 4 are identical up to cyclic shift; "
                                 r"the training set must be distinct modulo shifts$"):
            make_fit_data(designs, np.log(Y), grid)

    def test_all_restarts_failing_raises_fit_error(self, monkeypatch):
        grid = np.linspace(0.01, 0.15, 5)
        rng = np.random.default_rng(2)
        designs = [StructureDesign(rng.uniform(0.5, 1.5), rng.standard_normal(9))
                   for _ in range(4)]
        Y = np.exp(rng.standard_normal((4, 5)))
        ds = Dataset(designs=designs, responses=Y, grid=grid)

        def boom(*args, **kwargs):
            raise est.NumericalError("forced failure")

        monkeypatch.setattr(est, "sigma_step", boom)
        with pytest.raises(FitError) as exc_info:
            fit(ds, FitConfig(restarts=2))
        assert len(exc_info.value.traces) == 2

    @pytest.mark.parametrize("field,value", [
        ("lambda_I", "1"), ("lambda_o", "0.5"), ("lambda_I", np.True_), ("lambda_o", True),
        ("lambda_I", None), ("restarts", np.True_), ("restarts", "5"), ("seed", 0.0),
    ])
    def test_config_values_of_the_wrong_type(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^{field} must be"):
            FitConfig(**{field: value})

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            FitConfig(lambda_I=-1.0)
        with pytest.raises(InvalidInputError):
            FitConfig(restarts=0)
        with pytest.raises(InvalidInputError):
            FitConfig(family="fourier")
        # NaN passes a bare `x < 0` test and would reach the fit, which then
        # fails with an untyped error or returns all-NaN objectives
        for field in ("lambda_I", "lambda_o"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(InvalidInputError, match="finite"):
                    FitConfig(**{field: value})
        # numpy's seeding would reject it later, with an untyped ValueError
        with pytest.raises(InvalidInputError, match="seed must be nonnegative"):
            FitConfig(seed=-1)

    def test_features_each_training_design_once(self, small_training_set,
                                                monkeypatch):
        # the emulator is built on the fit's own feature rows
        calls = []
        inner = spectral.dft_modulus

        def counted(curve):
            calls.append(1)
            return inner(curve)

        monkeypatch.setattr(spectral, "dft_modulus", counted)
        fit(small_training_set, FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=1, seed=0))
        assert len(calls) == len(small_training_set.designs) == 10


class TestNuggetCarry:
    def test_unfactorizable_cut_is_carried(self, monkeypatch):
        # designs 0 and 1 share a curve and differ only in diameter, so at
        # theta_d = 0 their rows of R are identical: R factors only with the
        # nugget, and the second pivot of R with no nugget is exactly 0
        rng = np.random.default_rng(23)
        curve = rng.standard_normal(9)
        designs = [StructureDesign(0.8, curve), StructureDesign(1.4, curve)]
        designs += [StructureDesign(rng.uniform(0.5, 1.5), rng.standard_normal(9))
                    for _ in range(3)]
        data = make_fit_data(designs, rng.standard_normal((5, 4)),
                             np.linspace(0.01, 0.15, 4))
        z = rng.uniform(0.05, 0.4, data.nz)
        z[-1] = 0.0  # theta_d
        beta = np.array([0.1, 1.0])
        R = data.correlation(z)
        np.testing.assert_array_equal(R[0], R[1, [1, 0, 2, 3, 4]])
        assert est.nugget_carry(data, z, beta)["nugget_share_ratio"] is not None
        monkeypatch.setattr(est, "NUGGET_CUT", np.inf)  # the cut nugget is 0
        carry = est.nugget_carry(data, z, beta)
        assert carry["nugget_share_ratio"] is None
        assert carry["nugget_carried"] is True
        assert 0.0 < carry["nugget_share"] < 1.0


class TestParallelRestarts:
    """Restarts split over forked workers give what one process gives."""

    CFG = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=3, seed=0)

    def test_byte_identical_to_one_process(self, small_training_set, caplog,
                                           monkeypatch, tmp_path):
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=3, seed=0)
        runs = []
        for workers in (1, 2):
            caplog.clear()
            # a handler that writes to a file, as --verbose writes to stderr, is
            # inherited by the worker; only the calling process may write to it
            log = tmp_path / f"fit{workers}.log"
            handler = logging.FileHandler(log)
            logging.getLogger().addHandler(handler)
            try:
                with caplog.at_level(logging.INFO, logger="spedgp.estimate"):
                    model, trace = fit_with_workers(small_training_set, cfg,
                                                    monkeypatch, workers)
            finally:
                logging.getLogger().removeHandler(handler)
                handler.close()
            assert log.read_text().splitlines() == [rec.getMessage()
                                                    for rec in caplog.records]
            # the sweep lines carry block times, which differ between runs
            lines = [re.sub(r" (sigma|beta|theta)_s=\S+", "", rec.getMessage())
                     for rec in caplog.records
                     if rec.name == "spedgp.estimate" and rec.levelno == logging.INFO]
            runs.append((model, trace, lines))
        (m1, t1, lines1), (m2, t2, lines2) = runs
        assert t1.to_dict() == t2.to_dict()
        assert t1.best_index == t2.best_index
        for name in ("z", "beta", "Sigma"):
            assert getattr(m1, name).tobytes() == getattr(m2, name).tobytes(), name
        assert lines1 == lines2
        assert len(lines1) == sum(rec["sweeps"] + 1 for rec in t1.restarts)
        assert multiprocessing.active_children() == []

    def test_typed_failure_in_worker_is_a_failed_restart(
            self, small_training_set, caplog, monkeypatch):
        parent, inner = os.getpid(), est._run_restart

        def failing(data, config, z0, restart):
            if restart == 2 and os.getpid() != parent:
                raise SingularMatrixError("forced in the worker")
            return inner(data, config, z0, restart)

        monkeypatch.setattr(est, "_run_restart", failing)
        monkeypatch.setattr(est, "MAX_SWEEPS", 3)
        with caplog.at_level(logging.WARNING, logger="spedgp.estimate"):
            _, trace = fit_with_workers(small_training_set, self.CFG, monkeypatch, 2)
        assert trace.restarts[2] == {"failed": "forced in the worker"}
        assert all("failed" not in rec for rec in trace.restarts[:2])
        assert any(rec.getMessage() == "restart 2 failed: forced in the worker"
                   for rec in caplog.records)
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_its_restarts(self, small_training_set, caplog,
                                            monkeypatch):
        parent, inner = os.getpid(), est._run_restart

        def dying(data, config, z0, restart):
            if os.getpid() != parent:
                os._exit(3)
            return inner(data, config, z0, restart)

        monkeypatch.setattr(est, "_run_restart", dying)
        monkeypatch.setattr(est, "MAX_SWEEPS", 3)
        cfg = FitConfig(lambda_I=0.5, lambda_o=0.5, restarts=4, seed=0)
        with caplog.at_level(logging.WARNING, logger="spedgp.estimate"):
            model, trace = fit_with_workers(small_training_set, cfg, monkeypatch, 2)
        reason = "worker exited with code 3 before replying"
        assert trace.restarts[2:] == [{"failed": reason}] * 2
        objectives = [rec["final_objective"] for rec in trace.restarts[:2]]
        assert trace.best_index in (0, 1)
        assert model.fit_metadata["objective"] in objectives
        assert [rec.getMessage() for rec in caplog.records
                if "failed" in rec.getMessage()] == [
            f"restart 2 failed: {reason}", f"restart 3 failed: {reason}"]
        assert multiprocessing.active_children() == []

    def test_untyped_error_in_worker_is_raised(self, small_training_set,
                                               monkeypatch):
        parent, inner = os.getpid(), est._run_restart

        def broken(data, config, z0, restart):
            if os.getpid() != parent:
                raise RuntimeError("not a numerical failure")
            return inner(data, config, z0, restart)

        monkeypatch.setattr(est, "_run_restart", broken)
        monkeypatch.setattr(est, "MAX_SWEEPS", 3)
        with pytest.raises(RuntimeError, match="not a numerical failure") as info:
            fit_with_workers(small_training_set, self.CFG, monkeypatch, 2)
        # the worker's traceback is the cause
        assert "in the worker running restarts [2]" in str(info.value.__cause__)
        assert "in broken" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_unpicklable_error_in_worker_is_raised_by_name(self, small_training_set,
                                                           monkeypatch):
        parent, inner = os.getpid(), est._run_restart

        def odd(data, config, z0, restart):
            if restart == 2 and os.getpid() != parent:
                raise Odd(1, 2)
            return inner(data, config, z0, restart)

        monkeypatch.setattr(est, "_run_restart", odd)
        monkeypatch.setattr(est, "MAX_SWEEPS", 3)
        with pytest.raises(RuntimeError, match=r"^Odd: odd 1 2$") as info:
            fit_with_workers(small_training_set, self.CFG, monkeypatch, 2)
        assert "in odd" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_interrupt_in_calling_process_stops_workers(self, small_training_set,
                                                        monkeypatch):
        parent, inner = os.getpid(), est._run_restart

        def interrupted(data, config, z0, restart):
            if os.getpid() != parent:
                time.sleep(60)
            elif restart == 1:
                raise KeyboardInterrupt
            return inner(data, config, z0, restart)

        monkeypatch.setattr(est, "_run_restart", interrupted)
        monkeypatch.setattr(est, "MAX_SWEEPS", 3)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fit_with_workers(small_training_set, self.CFG, monkeypatch, 2)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - t0 < 30


class TestRestartWorkers:
    """min(restarts, cores // BLAS threads), on 2 cores."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for name in est.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)

    def test_unpinned_runs_alone(self):
        assert est._restart_workers(5) == 1

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS"])
    def test_one_blas_thread_uses_both_cores(self, monkeypatch, name):
        monkeypatch.setenv(name, "1")
        assert est._restart_workers(5) == 2
        assert est._restart_workers(2) == 2

    def test_first_set_variable_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert est._restart_workers(5) == 1

    @pytest.mark.parametrize("value", ["0", "abc", "", "-1"])
    def test_unparsable_counts_as_unset(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert est._restart_workers(5) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert est._restart_workers(5) == 2

    def test_never_more_than_restarts_or_cores(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert est._restart_workers(1) == 1
        assert est._restart_workers(10_000) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert est._restart_workers(3) == 3

    def test_one_process_without_fork(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert est._restart_workers(5) == 1

    def test_one_process_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert est._restart_workers(5) == 1

    def test_one_process_inside_a_daemon(self, monkeypatch):
        # a daemonic process may not start children
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert est._restart_workers(5) == 1


class TestSelectPenalties:
    def test_single_point_grid_returned(self, tiny_set, monkeypatch):
        monkeypatch.setattr(est, "MAX_SWEEPS", 10)
        cfg = FitConfig(restarts=1)
        li, lo = select_penalties(tiny_set, [0.7], [0.3], k=2, config=cfg)
        assert (li, lo) == (0.7, 0.3)

    def test_duplicates_equivalent_to_deduplicated(self, tiny_set, monkeypatch):
        monkeypatch.setattr(est, "MAX_SWEEPS", 10)
        cfg = FitConfig(restarts=1, seed=1)
        a = select_penalties(tiny_set, [0.5, 2.0], [0.3], k=2, config=cfg)
        b = select_penalties(tiny_set, [0.5, 2.0, 0.5, 2.0], [0.3, 0.3], k=2,
                             config=cfg)
        assert a == b

    def test_deterministic(self, tiny_set, monkeypatch):
        monkeypatch.setattr(est, "MAX_SWEEPS", 10)
        cfg = FitConfig(restarts=1, seed=5)
        a = select_penalties(tiny_set, [0.2, 1.0], [0.2, 0.8], k=2, config=cfg)
        b = select_penalties(tiny_set, [0.2, 1.0], [0.2, 0.8], k=2, config=cfg)
        assert a == b

    def test_fold_requirements(self, tiny_set):
        cfg = FitConfig(restarts=1)
        with pytest.raises(InvalidInputError, match="cv folds must be at least 2, got 1"):
            select_penalties(tiny_set, [0.1], [0.1], k=1, config=cfg)
        with pytest.raises(InvalidInputError, match="k >= 2"):
            select_penalties(tiny_set, [0.1], [0.1], k=7, config=cfg)

    @pytest.mark.parametrize("k,message", [
        (True, "cv folds must be an integer, got True"),
        (2.0, "cv folds must be an integer, got 2.0"),
        ("2", "cv folds must be an integer, got '2'"),
    ], ids=["bool", "float", "string"])
    def test_folds_must_be_an_integer(self, tiny_set, k, message):
        cfg = FitConfig(restarts=1)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            select_penalties(tiny_set, [0.1], [0.1], k=k, config=cfg)

    @pytest.mark.parametrize("li,lo", [(["a"], [0.1]), ([0.1], [None]),
                                       ([0.1], [[0.1, 0.2], [0.3]]), (["1"], [0.1]),
                                       ([True], [0.1]), (["1", "10"], [0.1]),
                                       ([0.1], [1.0, True]), (np.array([True]), [0.1])],
                             ids=["string", "null", "ragged", "numeric_string", "bool",
                                  "numeric_strings", "bool_among_floats", "bool_array"])
    def test_grids_must_be_numeric(self, tiny_set, li, lo):
        cfg = FitConfig(restarts=1)
        with pytest.raises(InvalidInputError, match="penalty grid value must be"):
            select_penalties(tiny_set, li, lo, k=2, config=cfg)

    def test_empty_grid_rejected(self, tiny_set):
        cfg = FitConfig(restarts=1)
        with pytest.raises(InvalidInputError, match="non-empty"):
            select_penalties(tiny_set, [], [0.1], k=2, config=cfg)
