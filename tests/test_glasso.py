import numpy as np
import pytest

from spedgp import ConvergenceError, InvalidInputError, SingularMatrixError
from spedgp.estimate import glasso_kkt_residual, glasso_newton, graphical_lasso

from .oracles import blockwise_glasso, glasso_objective


def random_spd(rng, m, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eig = np.geomspace(1.0, cond, m)
    return Q @ np.diag(eig) @ Q.T


def two_by_two_solution(S, lam):
    """Exact 2x2 covariance estimate: diagonal kept, S_12 soft-thresholded."""
    s12 = S[0, 1]
    v12 = np.sign(s12) * max(abs(s12) - lam, 0.0)
    V = np.array([[S[0, 0], v12], [v12, S[1, 1]]])
    return np.linalg.inv(V)


class TestZeroPenalty:
    def test_recovers_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            S = random_spd(rng, 10)
            W = graphical_lasso(S, 0.0)
            np.testing.assert_allclose(W, np.linalg.inv(S), rtol=1e-6, atol=1e-9)

    def test_singular_input_rejected(self):
        S = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            graphical_lasso(S, 0.0)


class TestTwoByTwoThreshold:
    @pytest.mark.parametrize("s12", [0.6, -0.6, 0.2])
    def test_matches_analytic_solution(self, s12):
        S = np.array([[1.5, s12], [s12, 0.8]])
        for lam in (0.1, 0.3, abs(s12), abs(s12) + 0.05):
            W = graphical_lasso(S, lam, tol=1e-10)
            np.testing.assert_allclose(W, two_by_two_solution(S, lam),
                                       rtol=1e-8, atol=1e-10)

    def test_offdiag_zero_iff_lambda_dominates(self):
        S = np.array([[1.0, 0.45], [0.45, 2.0]])
        assert graphical_lasso(S, 0.45, tol=1e-10)[0, 1] == 0.0
        assert graphical_lasso(S, 0.46, tol=1e-10)[0, 1] == 0.0
        assert graphical_lasso(S, 0.44, tol=1e-10)[0, 1] != 0.0


class TestKktCertificate:
    def test_residual_below_tol_at_every_return(self):
        rng = np.random.default_rng(1)
        for m in (3, 6, 10):
            for lam in (0.0, 0.05, 0.5, 2.0):
                S = random_spd(rng, m, cond=50.0)
                W = graphical_lasso(S, lam, tol=1e-7)
                assert glasso_kkt_residual(S, W, lam) <= 1e-7

    def test_residual_zero_at_exact_solution(self):
        S = np.diag([2.0, 5.0])
        W = graphical_lasso(S, 0.3, tol=1e-10)
        np.testing.assert_allclose(W, np.diag([0.5, 0.2]), rtol=1e-12)
        assert glasso_kkt_residual(S, W, 0.3) <= 1e-12

    def test_large_penalty_returns_diagonal(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 4)
        lam = np.abs(S - np.diag(np.diag(S))).max() + 0.1
        W = graphical_lasso(S, lam, tol=1e-9)
        np.testing.assert_allclose(W, np.diag(1.0 / np.diag(S)), rtol=1e-8)

    def test_returned_point_beats_naive_candidates(self):
        rng = np.random.default_rng(3)
        S = random_spd(rng, 6, cond=30.0)
        lam = 0.2
        W = graphical_lasso(S, lam, tol=1e-8)
        f = glasso_objective(S, W, lam)
        assert f <= glasso_objective(S, np.diag(1.0 / np.diag(S)), lam) + 1e-10
        assert f <= glasso_objective(S, np.linalg.inv(S), lam) + 1e-10


class TestWarmStart:
    def test_same_solution_from_warm_start(self):
        rng = np.random.default_rng(4)
        S = random_spd(rng, 8, cond=20.0)
        cold = graphical_lasso(S, 0.15, tol=1e-9)
        warm = graphical_lasso(S, 0.15, tol=1e-9, precision_init=cold)
        np.testing.assert_allclose(warm, cold, rtol=1e-6, atol=1e-9)

    def test_warm_start_from_other_penalty(self):
        rng = np.random.default_rng(5)
        S = random_spd(rng, 8, cond=20.0)
        w_old = graphical_lasso(S, 0.5, tol=1e-9)
        W = graphical_lasso(S, 0.1, tol=1e-9, precision_init=w_old)
        assert glasso_kkt_residual(S, W, 0.1) <= 1e-9


class TestFailureModes:
    def test_impossible_tolerance_raises_with_residual(self):
        rng = np.random.default_rng(6)
        S = random_spd(rng, 6, cond=100.0)
        with pytest.raises(ConvergenceError) as exc_info:
            graphical_lasso(S, 0.2, tol=1e-300, max_iter=3)
        assert exc_info.value.residual > 1e-300

    def test_scalar_case(self):
        W = graphical_lasso(np.array([[4.0]]), 0.7)
        np.testing.assert_allclose(W, [[0.25]])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.ones((2, 3)), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.array([[1.0, 0.5], [0.4, 1.0]]), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.array([[1.0, 0.0], [0.0, -1.0]]), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.eye(2), -0.1)


def low_rank_covariance(seed, rank, scale, m=41, lam=0.5 / 58):
    """Ridged covariance of 2*rank smooth random curves on m points.

    The shape of the fit's Sigma block S0 + rho I: a sample covariance of
    smooth residual curves plus the ridge rho = lambda_o / n, here at the
    benchmark's rho = 0.5 / 58. The curves span `rank` cosines of
    decaying amplitude, which makes it ill-conditioned.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, m)
    basis = np.array([np.cos(np.pi * j * t) / (1 + j) for j in range(rank)])
    A = rng.standard_normal((2 * rank, rank)) @ basis
    return scale * A.T @ A / (2 * rank) + lam * np.eye(m)


class TestAgainstBlockwiseReference:
    """The projected-Newton solver against Friedman's blockwise algorithm."""

    LAM = 0.5 / 58

    @pytest.mark.parametrize("seed,rank,scale", [
        (0, 41, 10.0), (2, 36, 30.0), (3, 30, 100.0), (5, 25, 100.0)])
    def test_same_support_no_worse_objective(self, seed, rank, scale):
        S = low_rank_covariance(seed, rank, scale)
        tol = 1e-8 * np.linalg.norm(S, 2)
        W, iterations, residual = glasso_newton(S, self.LAM, tol, 500)
        ref, _, ref_residual = blockwise_glasso(S, self.LAM, tol, 500)
        assert ref_residual <= tol
        assert 1e3 <= np.linalg.cond(W) <= 2e5
        assert residual == glasso_kkt_residual(S, W, self.LAM) <= tol
        off = ~np.eye(S.shape[0], dtype=bool)
        np.testing.assert_array_equal(W[off] != 0.0, ref[off] != 0.0)
        f, f_ref = glasso_objective(S, W, self.LAM), glasso_objective(S, ref, self.LAM)
        assert f <= f_ref + 1e-8 * abs(f_ref)
