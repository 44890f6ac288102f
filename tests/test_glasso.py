import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor

from spedgp import (ConvergenceError, InvalidInputError, NumericalError,
                    SingularMatrixError, estimate)
from spedgp.estimate import (PAIR_BLOCK, _dual_start, _pair_hessian,
                             glasso_kkt_residual, glasso_newton, graphical_lasso)
from spedgp.spectral import cholesky, solve_factored

from .oracles import blockwise_glasso, glasso_objective, pair_hessian_full


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

    @pytest.mark.parametrize("S,W,lam,message", [
        (np.eye(2), [["1", "0"], ["0", "1"]], 0.1, "W must hold real numbers"),
        (np.eye(2), np.eye(2, dtype=bool), 0.1, "W must hold real numbers"),
        (np.eye(2), np.eye(3), 0.1, r"W: shape \(3, 3\), expected \(2, 2\)"),
        (np.eye(2), [[1.0, np.nan], [np.nan, 1.0]], 0.1, "W must be finite"),
        ([["1", "0"], ["0", "1"]], np.eye(2), 0.1, "S must hold real numbers"),
        (np.ones((2, 3)), np.eye(2), 0.1, "S must be square"),
        (np.zeros((0, 0)), np.zeros((0, 0)), 0.1, "S must be square and nonempty"),
        (np.eye(2), np.eye(2), True, "penalty must be finite and nonnegative, got True"),
        (np.eye(2), np.eye(2), -0.1, "penalty must be finite and nonnegative"),
    ], ids=["W strings", "W bools", "W size", "W nan", "S strings", "S not square",
            "S empty", "penalty bool", "penalty negative"])
    def test_arguments_of_the_wrong_type(self, S, W, lam, message):
        with pytest.raises(InvalidInputError, match=message):
            glasso_kkt_residual(S, W, lam)


class TestWarmStart:
    """glasso_newton from a carried dual point, as sigma_step starts it."""

    def test_same_solution_from_warm_start(self):
        rng = np.random.default_rng(4)
        S = random_spd(rng, 8, cond=20.0)
        cold = glasso_newton(S, 0.15, 1e-9)
        warm, _, residual, *_, scored = glasso_newton(S, 0.15, 1e-9, cold.dual)
        assert residual <= 1e-9
        np.testing.assert_allclose(warm, cold.W, rtol=1e-6, atol=1e-9)
        # the certified return hands back the gap test's objective and factor
        f, cho = estimate._glasso_objective(S, 0.15, warm)
        assert scored[0] == f
        np.testing.assert_array_equal(scored[1], cho)

    def test_carried_dual_point_restarts_the_solver(self):
        # the dual point a solve returns starts the next on a nearby S and
        # certifies in fewer passes than the threshold start
        rng = np.random.default_rng(12)
        S = random_spd(rng, 8, cond=20.0)
        first = glasso_newton(S, 0.15, 1e-9)
        S2 = S + 0.01 * random_spd(rng, 8, cond=5.0)
        carried = glasso_newton(S2, 0.15, 1e-9, first.dual)
        cold = glasso_newton(S2, 0.15, 1e-9)
        assert (carried.start, cold.start) == ("dual", "threshold")
        assert carried.residual <= 1e-9 and cold.residual <= 1e-9
        assert carried.iterations < cold.iterations
        np.testing.assert_allclose(carried.W, cold.W, rtol=1e-6, atol=1e-9)

    def test_warm_start_from_other_penalty(self):
        # the dual point solved at penalty 0.5 is clipped into the box of 0.1
        rng = np.random.default_rng(5)
        S = random_spd(rng, 8, cond=20.0)
        old = glasso_newton(S, 0.5, 1e-9)
        W, _, residual, _, start, _ = glasso_newton(S, 0.1, 1e-9, old.dual)
        assert start == "dual" and np.abs(old.dual).max() > 0.1
        assert residual <= 1e-9
        assert glasso_kkt_residual(S, W, 0.1) <= 1e-9
        np.testing.assert_allclose(W, graphical_lasso(S, 0.1, tol=1e-9), rtol=1e-6,
                                   atol=1e-9)


class TestFailureModes:
    def test_impossible_tolerance_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(estimate, "GLASSO_MAX_ITER", 3)
        rng = np.random.default_rng(6)
        S = random_spd(rng, 6, cond=100.0)
        with pytest.raises(ConvergenceError) as exc_info:
            graphical_lasso(S, 0.2, tol=1e-300)
        assert exc_info.value.residual > 1e-300

    def test_scalar_case(self):
        W = graphical_lasso(np.array([[4.0]]), 0.7)
        np.testing.assert_allclose(W, [[0.25]])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.ones((2, 3)), 0.1)
        with pytest.raises(InvalidInputError, match="^S must be square and nonempty$"):
            graphical_lasso(np.zeros((0, 0)), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.array([[1.0, 0.5], [0.4, 1.0]]), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.array([[1.0, 0.0], [0.0, -1.0]]), 0.1)
        with pytest.raises(InvalidInputError):
            graphical_lasso(np.eye(2), -0.1)
        for lam in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="finite"):
                graphical_lasso(np.eye(2), lam)

    @pytest.mark.parametrize("lam", ["0.1", True, np.True_, None])
    def test_penalty_of_the_wrong_type(self, lam):
        with pytest.raises(InvalidInputError, match="penalty must be finite and nonnegative"):
            graphical_lasso(np.eye(2), lam)

    @pytest.mark.parametrize("S,message", [
        ([["1", "0"], ["0", "1"]], "S must hold real numbers"),
        ([[True, False], [False, True]], "S must hold real numbers"),
        (np.eye(2, dtype=bool), "S must hold real numbers"),
        ([[1.0, None], [None, 1.0]], "S must hold real numbers"),
        (None, "S: shape"),
        (1.0, "S: shape"),
        ([1.0, 1.0], "S: shape"),
        ([[1.0, 0.0], [0.0]], "S: shape"),
        ([[1.0, np.nan], [np.nan, 1.0]], "S must be finite"),
    ], ids=["strings", "bools", "bool array", "None entries", "None", "scalar", "vector",
            "ragged", "nan"])
    def test_matrix_of_the_wrong_type(self, S, message):
        with pytest.raises(InvalidInputError, match=message):
            graphical_lasso(S, 0.1)


class TestDualStart:
    """The carried dual point clipped into the box if it is definite, else
    the soft-thresholded S if that is, else the shrunk S."""

    LAM = 0.1

    @staticmethod
    def shrunk(S, lam, I, J):
        s = S[I, J]
        return -min(1.0, lam / np.abs(s).max()) * s

    @staticmethod
    def box(S, u, I, J):
        V = S.copy()
        V[I, J] = V[J, I] = S[I, J] + u
        return V

    def assert_factors(self, S, u, cho, I, J):
        np.testing.assert_allclose(np.tril(cho), np.linalg.cholesky(self.box(S, u, I, J)),
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_threshold_start_without_a_carried_point(self, scale):
        # at scale 2 every pair lies inside the box, and the threshold is diag S
        rng = np.random.default_rng(8)
        S = random_spd(rng, 6, cond=30.0)
        I, J = np.triu_indices(6, 1)
        lam = scale * np.abs(S[I, J]).max()
        u, cho, start = _dual_start(S, lam, I, J)
        assert start == "threshold"
        np.testing.assert_array_equal(u, np.clip(-S[I, J], -lam, lam))
        self.assert_factors(S, u, cho, I, J)

    @staticmethod
    def near_singular_s():
        """S with eigenvalue 0.01 along v = 1/sqrt(3) and 1 across it: a V
        that takes lam = 0.1 off every pair has v'Vv = 0.01 - 2 lam < 0."""
        v = np.ones(3) / np.sqrt(3.0)
        return 0.01 * np.outer(v, v) + np.eye(3) - np.outer(v, v)

    @staticmethod
    def rank_one_s():
        """xx' + 0.001 I with x = (0.1, 1, 0.5): thresholding by lam = 0.05
        keeps S_12 = 0.1 at half its size and zeroes S_13 = 0.05, and that V
        is indefinite; the shrunk S, 0.9 of each pair, is definite."""
        x = np.array([0.1, 1.0, 0.5])
        return np.outer(x, x) + 1e-3 * np.eye(3)

    def test_shrunk_start_when_the_threshold_is_indefinite(self):
        S = self.rank_one_s()
        I, J = np.triu_indices(3, 1)
        threshold = self.box(S, np.clip(-S[I, J], -0.05, 0.05), I, J)
        assert np.linalg.eigvalsh(threshold)[0] < 0.0
        for carried in (None, np.full(3, -0.05)):
            u, cho, start = _dual_start(S, 0.05, I, J, carried)
            assert start == "shrunk"
            np.testing.assert_array_equal(u, self.shrunk(S, 0.05, I, J))
            self.assert_factors(S, u, cho, I, J)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_definite_warm_point_is_kept(self, scale):
        # the dual point solved at penalty 0.05 lies inside both boxes and is
        # taken as it is, although the threshold's V has the higher logdet:
        # the starts are tried in order, not raced
        rng = np.random.default_rng(8)
        S = random_spd(rng, 6, cond=30.0)
        I, J = np.triu_indices(6, 1)
        lam = scale * np.abs(S[I, J]).max()
        warm = glasso_newton(S, 0.05, 1e-9).dual
        u, cho, start = _dual_start(S, lam, I, J, warm)
        assert start == "dual"
        np.testing.assert_array_equal(u, warm)
        self.assert_factors(S, u, cho, I, J)
        threshold = self.box(S, np.clip(-S[I, J], -lam, lam), I, J)
        assert np.linalg.slogdet(self.box(S, u, I, J))[1] < np.linalg.slogdet(threshold)[1]

    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_definite_carried_point_comes_first(self, scale):
        # a carried point inside the box is taken as it is, one outside it
        # clipped into it, ahead of the definite threshold
        rng = np.random.default_rng(11)
        S = random_spd(rng, 6, cond=30.0)
        I, J = np.triu_indices(6, 1)
        carried = scale * self.LAM * np.sin(np.arange(I.size))
        u, cho, start = _dual_start(S, self.LAM, I, J, carried)
        assert start == "dual"
        np.testing.assert_array_equal(u, np.clip(carried, -self.LAM, self.LAM))
        self.assert_factors(S, u, cho, I, J)

    def test_threshold_start_when_the_carried_point_is_indefinite(self):
        # the carried point takes lam off every pair; the threshold adds lam
        # to each pair of S, whose off-diagonal is -0.33, and that V is definite
        S = self.near_singular_s()
        I, J = np.triu_indices(3, 1)
        u, _, start = _dual_start(S, self.LAM, I, J, np.full(3, -self.LAM))
        assert start == "threshold"
        np.testing.assert_array_equal(u, np.full(3, self.LAM))

    def test_raises_when_no_start_factors(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        I, J = np.triu_indices(2, 1)
        for carried in (None, np.zeros(1)):
            with pytest.raises(SingularMatrixError, match="no positive-definite start"):
                _dual_start(S, 0.0, I, J, carried)


class TestUncertifiedReturn:
    def test_last_iterate_and_its_residual(self, monkeypatch):
        rng = np.random.default_rng(6)
        S = random_spd(rng, 6, cond=100.0)
        calls = []
        objective = estimate._glasso_objective
        monkeypatch.setattr(estimate, "_glasso_objective",
                            lambda *args: calls.append(1) or objective(*args))
        monkeypatch.setattr(estimate, "GLASSO_MAX_ITER", 3)
        W, iterations, residual, *_, scored = glasso_newton(S, 0.2, 1e-300)
        assert iterations <= 3
        assert residual == glasso_kkt_residual(S, W, 0.2)
        assert calls == []  # no residual came within tol, so no gap test ran
        assert scored is None


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
        W, iterations, residual, *_ = glasso_newton(S, self.LAM, tol)
        ref, _, ref_residual = blockwise_glasso(S, self.LAM, tol, 500)
        assert ref_residual <= tol
        assert 1e3 <= np.linalg.cond(W) <= 2e5
        assert residual == glasso_kkt_residual(S, W, self.LAM) <= tol
        off = ~np.eye(S.shape[0], dtype=bool)
        np.testing.assert_array_equal(W[off] != 0.0, ref[off] != 0.0)
        f, f_ref = glasso_objective(S, W, self.LAM), glasso_objective(S, ref, self.LAM)
        assert f <= f_ref + 1e-8 * abs(f_ref)


def assert_matches_full_build(M, a, b):
    """The triangle build equals the full one where cholesky reads it, and
    the two factor bit for bit alike."""
    K, ref = _pair_hessian(M, a, b), pair_hessian_full(M, a, b)
    upper = np.triu_indices(a.size)
    np.testing.assert_array_equal(K[upper], ref[upper])
    cho, cho_ref = cholesky(K), cholesky(ref)
    assert cho is not None and cho_ref is not None
    np.testing.assert_array_equal(np.tril(cho), np.tril(cho_ref))


class TestPairHessian:
    """The Newton system of the glasso steps against the full-matrix build."""

    @pytest.mark.parametrize("size", [1, PAIR_BLOCK - 1, PAIR_BLOCK, 2 * PAIR_BLOCK + 3])
    def test_dual_layout(self, size):
        rng = np.random.default_rng(size)
        M = random_spd(rng, 20, cond=50.0)
        I, J = np.triu_indices(20, 1)
        pairs = np.sort(rng.choice(I.size, size, replace=False))
        assert_matches_full_build(M, I[pairs], J[pairs])

    def test_support_layout(self):
        # the primal step's pairs: the m diagonal coordinates (a == b) first
        rng = np.random.default_rng(7)
        m = 20
        M = random_spd(rng, m, cond=50.0)
        I, J = np.triu_indices(m, 1)
        on = rng.random(I.size) < 0.4
        a = np.concatenate([np.arange(m), I[on]])
        b = np.concatenate([np.arange(m), J[on]])
        assert a.size % PAIR_BLOCK != 0
        assert_matches_full_build(M, a, b)

    def test_operands_of_an_asymmetric_iterate(self):
        # the dual step's Sigma = V^-1 is symmetric only to rounding: each
        # entry must take M_ad M_bc from those entries, not from M_da M_cb
        rng = np.random.default_rng(9)
        m = 20
        A = rng.standard_normal((m, m))
        M = random_spd(rng, m, cond=50.0) + 1e-13 * (A - A.T)
        I, J = np.triu_indices(m, 1)
        pairs = np.sort(rng.choice(I.size, PAIR_BLOCK + 5, replace=False))
        a, b = I[pairs], J[pairs]
        assert not np.array_equal(pair_hessian_full(M, a, b), pair_hessian_full(M.T, a, b))
        assert_matches_full_build(M, a, b)

    def test_glasso_iterate(self):
        # Sigma = V^-1 at the threshold start of a benchmark-shaped 41 x 41 block,
        # on all 820 pairs (not a multiple of the block size) and on half
        S = low_rank_covariance(3, 30, 100.0)
        I, J = np.triu_indices(41, 1)
        _, cho, _ = _dual_start(S, 0.5 / 58, I, J)
        M = solve_factored(cho, np.eye(41))
        assert_matches_full_build(M, I, J)
        half = np.random.default_rng(0).random(I.size) < 0.5
        assert_matches_full_build(M, I[half], J[half])


class TestCholesky:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 41, 58, 450])
    def test_bit_identical_to_cho_factor(self, n, order):
        A = np.asarray(random_spd(np.random.default_rng(n), n, cond=1e4), order=order)
        c = cholesky(A.copy(order="K"))
        c_ref, _ = cho_factor(A.copy(order="K").T, lower=True, check_finite=False)
        np.testing.assert_array_equal(c, c_ref)
        assert c.flags.f_contiguous == c_ref.flags.f_contiguous

    def test_factors_a_c_ordered_matrix_in_place(self):
        A = random_spd(np.random.default_rng(1), 6)
        assert np.shares_memory(cholesky(A), A)

    @pytest.mark.parametrize("A", [np.diag([1.0, -1.0, 2.0]),
                                   np.array([[1.0, 2.0], [2.0, 1.0]]),
                                   np.zeros((3, 3))])
    def test_indefinite_returns_none(self, A):
        assert cholesky(A.copy()) is None

    @pytest.mark.parametrize("entry,value", [((1, 0), np.nan), ((1, 1), np.nan),
                                             ((2, 0), np.inf), ((1, 0), np.inf),
                                             ((0, 0), -np.inf)],
                             ids=["nan_off_diagonal", "nan_diagonal",
                                  "inf_off_diagonal", "inf_next_to_diagonal",
                                  "minus_inf_diagonal"])
    def test_non_finite_input_raises(self, entry, value):
        # dpotrf returns the first three with info 0 and NaN on the factor's
        # diagonal, and fails on the last two
        A = np.eye(3)
        A[entry] = A[entry[::-1]] = value
        with pytest.raises(NumericalError, match="not finite"):
            cholesky(A)

    def test_failure_ignores_the_unread_triangle(self):
        # dpotrf reads A[p, q] for q >= p only; a NaN below the diagonal of an
        # indefinite matrix is not the matrix it factored
        A = np.diag([1.0, -1.0, 2.0])
        A[2, 0] = np.nan
        assert cholesky(A) is None

    def test_estimate_does_not_reference_cho_factor(self):
        # every factorization in estimate goes through spectral.cholesky's dpotrf call
        tree = ast.parse(Path(estimate.__file__).read_text())
        offenders = [node.lineno for node in ast.walk(tree)
                     if (isinstance(node, ast.ImportFrom)
                         and any(alias.name == "cho_factor" for alias in node.names))
                     or (isinstance(node, ast.Attribute) and node.attr == "cho_factor")
                     or (isinstance(node, ast.Name) and node.id == "cho_factor")]
        assert not offenders, f"estimate.py references cho_factor at lines {offenders}"
