import json

import numpy as np
import pytest

from spedgp import (
    InvalidInputError,
    SinusoidSpec,
    StructureDesign,
    build_problem,
    gen_sinusoid,
    optimize,
    reconstruct_structure,
    sample_designs,
    synthetic_oracle,
)
from spedgp import estimate, mimic
from spedgp.cokrige import (TrainedEmulator, log_stress, make_fit_data,
                            predict_from_point)
from spedgp.mimic import (MimicProblem, _objective_and_grad, _search, _start_points,
                          mse_objective)
from spedgp.spectral import correlation_from_features, half_size

from .oracles import (central_diff_gradient, dense_conditional, fft_half_modulus,
                      lockstep_search, objective_and_grad, sped_corr_scalar)


def toy_emulator(rng, theta, theta_d=0.6, n=5, m=4, p=9, nugget=1e-8):
    designs = [StructureDesign(rng.uniform(0.3, 1.8), rng.standard_normal(p))
               for _ in range(n)]
    grid = np.linspace(0.01, 0.15, m)
    Y = rng.standard_normal((n, m))
    A = rng.standard_normal((m, m))
    Sigma = A @ A.T + m * np.eye(m)
    z = np.append(np.asarray(theta, dtype=float), theta_d)
    return TrainedEmulator(data=make_fit_data(designs, Y, grid, nugget=nugget),
                           z=z, beta=np.array([0.2, 1.0]),
                           Sigma=Sigma)


@pytest.fixture(scope="module", autouse=True)
def fitting_refused():
    """Every model of this module is built from fixed parameters: a fit
    fails the test that starts it. Every fit, through estimate.fit, the
    package root, the CLI or select_penalties, runs _run_restarts."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mimic tests build their models without fitting")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimate, "fit", refuse)
        patch.setattr(estimate, "_run_restarts", refuse)
        yield


@pytest.fixture(scope="module")
def mimic_model():
    """A sped model of 12 oracle-scored designs (p = 21) at fixed z, beta and Sigma.

    The parameters are shaped like a fit of these designs, ill-conditioned
    as such a fit is. Spectral bins 1, 2 and 4 and the diameter carry
    weights of 3e-9 to 2e-6, so every correlation sits within 5e-6 of 1 and
    R has cond 1.2e9. The mean is the power law beta = (0.8, 1.2). Sigma is
    a squared-exponential correlation over the 9 levels (length 5 levels)
    scaled by standard deviations falling from 2,600 to 575, plus 0.1 I:
    cond(Sigma) = 1.9e8, tr(Sigma) = 2.6e7. Next to a training row, where
    v = 1 - r'alpha cancels to ~1e-8, its rounding times tr(Sigma) moves the
    objective by more than F_TOL, and a line search can stop there.
    """
    grid = np.linspace(0.005, 0.15, 9)
    designs = [gen_sinusoid(s, 21) for s in sample_designs(12, seed=41)]
    Y = np.array([synthetic_oracle(d, grid) for d in designs])
    z = np.zeros(half_size(21) + 1)
    z[[1, 2, 4, -1]] = 3e-8, 3e-9, 4e-9, 2e-6
    sd = np.linspace(2600.0, 575.0, 9)
    lag = np.subtract.outer(np.arange(9), np.arange(9))
    Sigma = np.outer(sd, sd) * np.exp(-(lag / 5.0) ** 2) + 0.1 * np.eye(9)
    return TrainedEmulator(data=make_fit_data(designs, log_stress(Y), grid), z=z,
                           beta=np.array([0.8, 1.2]), Sigma=Sigma)


TARGET_STRAIN = np.linspace(0.003, 0.16, 40)


@pytest.fixture(scope="module")
def target_stress():
    return synthetic_oracle(gen_sinusoid(SinusoidSpec(0.9, 0.5, 0.3, 2.0), 21),
                            TARGET_STRAIN)


@pytest.fixture(scope="module")
def mimic_problem(mimic_model, target_stress):
    return build_problem(mimic_model, TARGET_STRAIN, target_stress)


@pytest.fixture(scope="module")
def mimic_result(mimic_problem):
    return optimize(mimic_problem, starts=8, seed=0)


class TestReconstructStructure:
    def test_dc_only_gives_constant(self):
        curve = reconstruct_structure([3.3, 0.0, 0.0, 0.0, 0.0], 9)
        np.testing.assert_allclose(curve, np.full(9, 3.3 / 9), rtol=1e-14)

    def test_all_zero_gives_zero(self):
        np.testing.assert_array_equal(reconstruct_structure(np.zeros(11), 21),
                                      np.zeros(21))

    def test_single_bin_is_cosine(self):
        p, k0, amp = 21, 4, 0.7
        spectrum = np.zeros(half_size(p))
        spectrum[k0] = amp * p / 2.0
        curve = reconstruct_structure(spectrum, p)
        want = amp * np.cos(2.0 * np.pi * k0 * np.arange(p) / p)
        np.testing.assert_allclose(curve, want, atol=1e-12)

    def test_modulus_round_trip(self):
        rng = np.random.default_rng(17)
        for p in (9, 21):
            for _ in range(5):
                spectrum = rng.uniform(0.0, 2.0, half_size(p))
                curve = reconstruct_structure(spectrum, p)
                np.testing.assert_allclose(fft_half_modulus(curve), spectrum,
                                           atol=1e-10)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            reconstruct_structure(np.zeros(4), 9)
        with pytest.raises(InvalidInputError):
            reconstruct_structure([1.0, -0.1, 0.0, 0.0, 0.0], 9)
        with pytest.raises(InvalidInputError):
            reconstruct_structure([1.0, np.inf, 0.0, 0.0, 0.0], 9)
        # the curve length is an odd integer >= 3 here as everywhere else
        for p in (9.0, 8, 1, True, "9"):
            with pytest.raises(InvalidInputError, match="curve length"):
                reconstruct_structure(np.zeros(5), p)

    @pytest.mark.parametrize("spectrum,message", [
        (["0.5"] * 5, "spectrum must hold real numbers"),
        ([True, 0.0, 0.0, 0.0, 0.0], "spectrum must hold real numbers"),
        (None, "spectrum: shape"),
        ([[1.0, 0.5], 0.0, 0.0, 0.0, 0.0], "spectrum must hold real numbers"),
        ([1.0, np.nan, 0.0, 0.0, 0.0], "spectrum must be finite"),
    ], ids=["strings", "bool", "None", "ragged", "nan"])
    def test_spectrum_of_the_wrong_type(self, spectrum, message):
        with pytest.raises(InvalidInputError, match=message):
            reconstruct_structure(spectrum, 9)


def objective_at_x(model, target, x, active_set=None):
    """The search objective at one x = (d, moduli on the active set), by
    default the model's theta support, as a batch of one row."""
    if active_set is None:
        active_set = np.flatnonzero(model.data.unpack(model.z)[0] > 0)
    problem = MimicProblem(model=model, target_log=target, active_set=active_set)
    return objective_at(problem.s * np.asarray(x, dtype=float), problem)


class TestMseObjective:
    """The expected squared mismatch of one candidate, scored as the search
    scores it; mse_objective itself is left only its argument checks."""

    def test_far_point_reverts_to_prior(self):
        # one huge weight and an out-of-range candidate drive every
        # correlation to exact zero, so the objective must equal the
        # prior expression ||mu - target||^2 + tr(Sigma)
        rng = np.random.default_rng(2)
        model = toy_emulator(rng, [0.0, 1e6, 0.0, 0.0, 0.0], theta_d=0.0)
        target = rng.standard_normal(model.data.m)
        got = objective_at_x(model, target, [1.0, 50.0])
        resid = model.mu - target
        want = resid @ resid + np.trace(model.Sigma)
        assert got == pytest.approx(want, rel=1e-12)

    def test_training_point_with_own_row_is_tiny(self):
        rng = np.random.default_rng(3)
        model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15])
        active = np.flatnonzero(model.data.unpack(model.z)[0] > 0)
        j = 2
        got = objective_at_x(model, model.data.Y[j], np.concatenate(
            [[model.data.designs[j].diameter], model.data.F[j, active]]))
        assert got < 1e-4

    def test_matches_monte_carlo_expectation(self):
        rng = np.random.default_rng(4)
        model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15])
        active = np.flatnonzero(model.data.unpack(model.z)[0] > 0)
        coefs = model.data.F[:, active].mean(axis=0)
        target = model.data.Y.mean(axis=0)
        got = objective_at_x(model, target, np.concatenate([[1.1], coefs]))

        f_new = np.zeros(model.data.F.shape[1])
        f_new[active] = coefs
        f_new[-1] = 1.1  # the diameter is the last feature column
        r = correlation_from_features(model.data.F, f_new, model.z)
        pred = predict_from_point(model, r)
        assert pred.scale > 1e-3
        draws_rng = np.random.default_rng(5)
        L = np.linalg.cholesky(pred.scale * model.Sigma)
        draws = pred.mean + draws_rng.standard_normal((20000, model.data.m)) @ L.T
        vals = ((draws - target) ** 2).sum(axis=1)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(got - vals.mean()) <= 3.0 * se

    def test_zero_weight_coordinate_cannot_matter(self):
        rng = np.random.default_rng(6)
        model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15])
        target = rng.standard_normal(model.data.m)
        every = np.arange(half_size(model.data.p))
        base = np.array([0.5, 1.0, 0.0, 0.8, 0.3])
        bumped = base.copy()
        bumped[2] = 7.5
        a = objective_at_x(model, target, np.concatenate([[0.9], base]), every)
        b = objective_at_x(model, target, np.concatenate([[0.9], bumped]), every)
        assert a == b

    def test_validation(self):
        rng = np.random.default_rng(7)
        model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15])
        target = np.zeros(model.data.m)
        with pytest.raises(InvalidInputError):
            mse_objective(model, target, 1.0, [-0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InvalidInputError):
            mse_objective(model, target, 0.0, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InvalidInputError):
            mse_objective(model, target, 1.0, [np.nan, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("d,spectrum,message", [
        ("1.0", [0.1, 0.2, 0.3, 0.4], "diameter must be finite and nonnegative, got '1.0'"),
        (True, [0.1, 0.2, 0.3, 0.4], "diameter must be finite and nonnegative, got True"),
        (None, [0.1, 0.2, 0.3, 0.4], "diameter must be finite and nonnegative, got None"),
        (1.0, ["0.1", "0.2", "0.3", "0.4"], "spectrum_active must hold real numbers"),
        (1.0, [True, 0.2, 0.3, 0.4], "spectrum_active must hold real numbers"),
        (1.0, None, "spectrum_active: shape"),
        (1.0, [[0.1, 0.2], 0.3, 0.4, 0.5], "spectrum_active must hold real numbers"),
        (1.0, [0.1, 0.2, 0.3], "spectrum_active: shape"),
    ], ids=["string d", "bool d", "None d", "string moduli", "bool modulus", "None moduli",
            "ragged moduli", "short moduli"])
    def test_arguments_of_the_wrong_type(self, d, spectrum, message):
        rng = np.random.default_rng(7)
        model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15])
        with pytest.raises(InvalidInputError, match=message):
            mse_objective(model, np.zeros(model.data.m), d, spectrum)


def brute_force_correlations(model, x, active):
    """Correlations of x = (d, moduli on the active set) with the training
    designs, from raw curves: the candidate curve is the zero-phase curve
    with those moduli, and each correlation is a loop over np.fft moduli."""
    theta, theta_d = model.data.unpack(model.z)
    spectrum = np.zeros(half_size(model.data.p))
    spectrum[active] = x[1:]
    curve = reconstruct_structure(spectrum, model.data.p)
    return np.array([sped_corr_scalar(x[0], curve, dsn.diameter, dsn.curve,
                                      theta, theta_d) for dsn in model.data.designs])


def expected_mismatch(mean, cov, target):
    """E ||y - y*||^2 = ||mean - y*||^2 + tr(cov) under N(mean, cov)."""
    return float((mean - target) @ (mean - target) + np.trace(cov))


def interior_points(problem, rng, k):
    lo, hi = problem.lo, problem.hi
    return lo + rng.uniform(0.1, 0.9, (k, lo.size)) * (hi - lo)


def toy_problem(theta_d=0.6):
    """Search on a toy emulator whose theta support is [0, 1, 3, 4]."""
    rng = np.random.default_rng(12)
    model = toy_emulator(rng, [0.1, 0.4, 0.0, 0.2, 0.15], theta_d=theta_d)
    return MimicProblem(model=model, target_log=rng.standard_normal(model.data.m),
                        active_set=np.array([0, 1, 3, 4]))


# "fitted" is the mimic model, whose parameters are shaped like a fit's
@pytest.fixture(params=["toy", "fitted"])
def objective_problem(request, mimic_problem):
    return mimic_problem if request.param == "fitted" else toy_problem()


def objective_at(u, problem):
    """The objective at one whitened point, as a batch of one row."""
    return _objective_and_grad(u[None], problem)[0][0]


class TestWhitenedObjective:
    """The batched search objective in u = s * x against references built in x."""

    def test_matches_dense_reference(self):
        problem = toy_problem()
        model = problem.model
        X = interior_points(problem, np.random.default_rng(16), 5)
        f, _ = _objective_and_grad(problem.s * X, problem)
        assert f.shape == (5,)
        for x, got in zip(X, f):
            r = brute_force_correlations(model, x, problem.active_set)
            mean, cov = dense_conditional(model.data.Y, model.R, r, 1.0, model.Sigma,
                                          model.beta, model.data.P)
            assert got == pytest.approx(
                expected_mismatch(mean, cov, problem.target_log), rel=1e-12)

    def test_fitted_model_matches_brute_force_correlations(self, mimic_problem):
        # the mimic model has cond(R) = 1.2e9 and cond(Sigma) = 1.9e8, so a
        # dense solve with R (x) Sigma is off by 1e-4 to 7e-3; the predictive
        # normal comes from the separable conditional, checked against the
        # dense one in test_cokrige, on correlations computed from raw curves
        problem, model = mimic_problem, mimic_problem.model
        X = interior_points(problem, np.random.default_rng(13), 5)
        f, _ = _objective_and_grad(problem.s * X, problem)
        for x, got in zip(X, f):
            pred = predict_from_point(
                model, brute_force_correlations(model, x, problem.active_set))
            assert got == pytest.approx(
                expected_mismatch(pred.mean, pred.covariance(), problem.target_log),
                rel=1e-12)

    def test_gradient_matches_central_differences(self, objective_problem):
        problem = objective_problem
        U = problem.s * interior_points(problem, np.random.default_rng(14), 5)
        _, grad = _objective_and_grad(U, problem)
        assert grad.shape == U.shape
        for u, g in zip(U, grad):
            fd = central_diff_gradient(lambda v: objective_at(v, problem), u)
            assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_batch_rows_match_rows_alone(self, objective_problem):
        problem = objective_problem
        lo, hi = problem.lo, problem.hi
        rng = np.random.default_rng(15)
        U = problem.s * (lo + rng.uniform(0.0, 1.0, (7, lo.size)) * (hi - lo))
        f, grad = _objective_and_grad(U, problem)
        for j in range(7):
            f1, g1 = _objective_and_grad(U[j:j + 1], problem)
            assert f[j] == pytest.approx(f1[0], rel=1e-12)
            np.testing.assert_allclose(grad[j], g1[0], rtol=1e-12,
                                       atol=1e-12 * np.abs(g1[0]).max())

    @pytest.mark.parametrize("rows", [1, 7, 33])
    def test_bits_match_frozen_objective(self, objective_problem, rows):
        # search_both shares the package objective with the reference
        # search, so only this comparison catches a bit change inside it
        problem = objective_problem
        lo, hi = problem.lo, problem.hi
        rng = np.random.default_rng(18)
        U = problem.s * (lo + rng.uniform(0.0, 1.0, (rows, lo.size)) * (hi - lo))
        f, grad = _objective_and_grad(U, problem)
        f_ref, grad_ref = objective_and_grad(U, problem)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(grad, grad_ref)

    def test_every_kernel_call_is_an_evaluation(self, mimic_problem, monkeypatch):
        # perfbench counts correlation_from_features calls under optimize as
        # mimic's objective evaluations; each is one batched call
        counts = {"kernel": 0, "evals": 0}

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mimic, "correlation_from_features",
                            counting("kernel", mimic.correlation_from_features))
        monkeypatch.setattr(mimic, "_objective_and_grad",
                            counting("evals", mimic._objective_and_grad))
        result = optimize(mimic_problem, starts=3, seed=2)
        steps = max(rec["iterations"] for rec in result.trace)
        # one call screens the training rows, one scores the starts, and
        # every step of the slowest start needs at least one more
        assert counts["evals"] >= 2 + steps > 2
        assert counts["kernel"] == counts["evals"]


class TestBuildProblem:
    def test_target_interpolated_onto_model_grid(self, mimic_model,
                                                 target_stress, mimic_problem):
        want = log_stress(np.interp(mimic_model.grid, TARGET_STRAIN,
                                    target_stress))
        np.testing.assert_allclose(mimic_problem.target_log, want, rtol=1e-14)

    def test_active_set_is_theta_support(self, mimic_model, mimic_problem):
        np.testing.assert_array_equal(
            mimic_problem.active_set,
            np.flatnonzero(mimic_model.data.unpack(mimic_model.z)[0] > 0))

    def test_default_boxes(self, mimic_model, mimic_problem):
        active = mimic_problem.active_set
        np.testing.assert_array_equal(mimic_problem.lo[1:], np.zeros(active.size))
        np.testing.assert_allclose(mimic_problem.hi[1:],
                                   1.5 * mimic_model.data.F[:, active].max(axis=0))
        assert (mimic_problem.lo[0], mimic_problem.hi[0]) == (0.2, 2.0)

    def test_rejects_non_spectral_kernel(self, target_stress):
        rng = np.random.default_rng(8)
        designs = [gen_sinusoid(s, 21) for s in sample_designs(5, seed=8)]
        data = make_fit_data(designs, rng.standard_normal((5, 4)),
                             np.linspace(0.01, 0.15, 4), family="feature_based")
        model = TrainedEmulator(data=data, z=np.full(4, 0.2),
                                beta=np.array([0.2, 1.0]), Sigma=np.eye(4))
        with pytest.raises(InvalidInputError):
            build_problem(model, TARGET_STRAIN, target_stress)

    def test_rejects_nonpositive_stress(self, mimic_model, target_stress):
        bad = target_stress.copy()
        bad[3] = 0.0
        with pytest.raises(InvalidInputError):
            build_problem(mimic_model, TARGET_STRAIN, bad)

    @pytest.mark.parametrize("strain,stress", [
        ([0.001, np.inf], [0.5, 0.5]),
        ([0.001, np.nan], [0.5, 0.5]),
        ([0.001, 0.2], [0.5, np.inf]),
        ([0.001, 0.2], [0.5, np.nan]),
    ], ids=["inf_strain", "nan_strain", "inf_stress", "nan_stress"])
    def test_rejects_non_finite_target(self, mimic_model, strain, stress):
        # an inf strain would otherwise hold the target flat past the last finite level
        with pytest.raises(InvalidInputError, match="target (strain|stress) must be finite"):
            build_problem(mimic_model, np.array(strain), np.array(stress))

    def test_rejects_unsorted_target_strain(self, mimic_model, target_stress):
        # np.interp would silently read a wrong target off unsorted levels
        order = np.arange(TARGET_STRAIN.size)
        order[[10, 11]] = 11, 10
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            build_problem(mimic_model, TARGET_STRAIN[order], target_stress[order])

    def test_rejects_short_target_span(self, mimic_model, target_stress):
        with pytest.raises(InvalidInputError):
            build_problem(mimic_model, TARGET_STRAIN + 0.01, target_stress)

    def test_rejects_shape_mismatch(self, mimic_model, target_stress):
        with pytest.raises(InvalidInputError):
            build_problem(mimic_model, TARGET_STRAIN[:-1], target_stress)

    def test_rejects_empty_active_set(self, mimic_model, mimic_problem):
        with pytest.raises(InvalidInputError):
            MimicProblem(model=mimic_model,
                         target_log=mimic_problem.target_log,
                         active_set=np.array([], dtype=int))

    @pytest.mark.parametrize("active_set,message", [
        ([-1], "active set index must be nonnegative, got -1"),
        ([1.7], "active set index must be an integer, got 1.7"),
        ([1.0], "active set index must be an integer, got 1.0"),
        (np.array([1.0, 2.0]), "active set index must be an integer"),
        (["1"], "active set must hold real numbers"),
        ([True], "active set must hold real numbers"),
        ([np.True_], "active set must hold real numbers"),
        ([999], "distinct spectral indices below 11, got \\[999\\]"),
        ([11], "distinct spectral indices below 11, got \\[11\\]"),  # the diameter's
        ([1, 2, 1], "distinct spectral indices below 11, got \\[1, 2, 1\\]"),
        ([[1, 2]], "active set: shape"),
        (None, "active set: shape"),
        (1, "active set: shape"),
    ])
    def test_rejects_what_is_not_distinct_spectral_indices(self, mimic_model, mimic_problem,
                                                           active_set, message):
        # the mimic model has p = 21: spectral columns 0..10, the diameter last
        assert mimic_model.data.nz == 12
        with pytest.raises(InvalidInputError, match=message):
            MimicProblem(model=mimic_model, target_log=mimic_problem.target_log,
                         active_set=active_set)

    def test_active_set_indices_are_kept_in_order(self, mimic_model, mimic_problem):
        problem = MimicProblem(model=mimic_model, target_log=mimic_problem.target_log,
                               active_set=[3, 0, 1])
        assert problem.active_set.dtype == int
        np.testing.assert_array_equal(problem.active_set, [3, 0, 1])
        np.testing.assert_array_equal(problem.cols, [-1, 3, 0, 1])

    def test_rejects_target_length_mismatch(self, mimic_model, mimic_problem):
        with pytest.raises(InvalidInputError):
            MimicProblem(model=mimic_model,
                         target_log=mimic_problem.target_log[:-1],
                         active_set=mimic_problem.active_set)

    @pytest.mark.parametrize("edit,message", [
        (lambda strain, stress: (strain.astype(str), stress),
         "target strain must hold real numbers"),
        (lambda strain, stress: (strain, stress.astype(str)),
         "target stress must hold real numbers"),
        (lambda strain, stress: (strain, stress > 0), "target stress must hold real numbers"),
        (lambda strain, stress: (None, stress), "target strain: shape"),
        (lambda strain, stress: (strain, None), "target stress: shape"),
        (lambda strain, stress: ([strain[:2].tolist(), *strain[2:]], stress),
         "target strain must hold real numbers"),
        (lambda strain, stress: (strain, [stress[:2].tolist(), *stress[2:]]),
         "target stress: shape"),
        (lambda strain, stress: (np.column_stack([strain, strain]), stress),
         "target strain: shape"),
    ], ids=["string strain", "string stress", "bool stress", "None strain", "None stress",
            "ragged strain", "ragged stress", "matrix strain"])
    def test_rejects_target_of_the_wrong_type(self, mimic_model, target_stress, edit,
                                              message):
        with pytest.raises(InvalidInputError, match=message):
            build_problem(mimic_model, *edit(TARGET_STRAIN, target_stress))

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.astype(str), "target_log must hold real numbers"),
        (lambda t: t > 0, "target_log must hold real numbers"),
        (lambda t: None, "target_log: shape"),
        (lambda t: [t[:2].tolist(), *t[2:]], "target_log: shape"),
        (lambda t: np.where(np.arange(t.size) == 0, np.nan, t), "target_log must be finite"),
    ], ids=["strings", "bools", "None", "ragged", "nan"])
    def test_rejects_target_log_of_the_wrong_type(self, mimic_model, mimic_problem, edit,
                                                  message):
        with pytest.raises(InvalidInputError, match=message):
            MimicProblem(model=mimic_model, target_log=edit(mimic_problem.target_log),
                         active_set=mimic_problem.active_set)


class TestOptimize:
    def test_beats_every_start(self, mimic_problem, mimic_result):
        starts = [rec["initial_objective"] for rec in mimic_result.trace]
        assert len(starts) == 8 + 1  # requested starts plus the incumbent
        assert mimic_result.objective <= min(starts) + 1e-12

    def test_no_start_regresses(self, mimic_result):
        for rec in mimic_result.trace:
            assert rec["final_objective"] <= rec["initial_objective"] + 1e-12

    def test_beats_best_training_design(self, mimic_problem, mimic_result):
        model = mimic_problem.model
        active = mimic_problem.active_set
        lo, hi = mimic_problem.lo, mimic_problem.hi
        best = np.inf
        for j in range(model.data.n):
            xj = np.clip(np.concatenate([[model.data.F[j, -1]], model.data.F[j, active]]),
                         lo, hi)
            best = min(best, objective_at(mimic_problem.s * xj, mimic_problem))
        assert mimic_result.objective <= best + 1e-12

    def test_result_shapes_and_support(self, mimic_problem, mimic_result):
        model = mimic_problem.model
        inert = np.setdiff1d(np.arange(half_size(model.data.p)),
                             mimic_problem.active_set)
        assert mimic_result.spectrum.shape == (half_size(model.data.p),)
        np.testing.assert_array_equal(mimic_result.spectrum[inert], 0.0)
        assert mimic_result.reconstructed_curve.shape == (model.data.p,)
        assert mimic_result.predicted.mean.shape == (model.data.m,)
        lo, hi = mimic_problem.lo[0], mimic_problem.hi[0]
        assert lo <= mimic_result.diameter <= hi

    def test_curve_matches_spectrum(self, mimic_result):
        np.testing.assert_allclose(
            fft_half_modulus(mimic_result.reconstructed_curve),
            mimic_result.spectrum, atol=1e-10)

    def test_deterministic(self, mimic_problem):
        a = optimize(mimic_problem, starts=4, seed=9)
        b = optimize(mimic_problem, starts=4, seed=9)
        assert a.diameter == b.diameter
        np.testing.assert_array_equal(a.spectrum, b.spectrum)
        assert a.objective == b.objective

    def test_seed_moves_starts(self, mimic_problem):
        a = _start_points(mimic_problem, 4, seed=0)
        b = _start_points(mimic_problem, 4, seed=1)
        assert not np.array_equal(a[:-1], b[:-1])
        np.testing.assert_array_equal(a[-1], b[-1])  # incumbent is seed-free

    def test_starts_validation(self, mimic_problem):
        with pytest.raises(InvalidInputError):
            optimize(mimic_problem, starts=0)
        with pytest.raises(InvalidInputError, match="seed must be nonnegative"):
            optimize(mimic_problem, starts=2, seed=-1)
        for starts, seed in ((2.5, 0), (True, 0), (2, 1.5), (2, True), ("2", 0)):
            with pytest.raises(InvalidInputError, match="must be an integer"):
                optimize(mimic_problem, starts=starts, seed=seed)

    def test_ascent_direction_resets_the_inverse_hessian(self, mimic_problem, mimic_result,
                                                         monkeypatch):
        # a negated update makes H negative definite, so the next direction
        # of every updated start ascends; the search must reset that H to
        # the identity. The starts then descend by projected gradient steps
        # until MAX_ITER stops them, 1.7% or less above where the true
        # updates take them.
        update = mimic._bfgs_update
        monkeypatch.setattr(mimic, "_bfgs_update", lambda *args: -update(*args))
        result = optimize(mimic_problem, starts=8, seed=0)
        for rec, ref in zip(result.trace, mimic_result.trace):
            assert rec["initial_objective"] == ref["initial_objective"]
            assert rec["final_objective"] <= rec["initial_objective"] + 1e-12
            assert rec["final_objective"] == pytest.approx(ref["final_objective"], rel=0.05)

    def test_zero_diameter_weight_keeps_a_start_diameter(self):
        # theta_d = 0 gives s = 0 on the diameter: the search cannot move it,
        # and u / s must not turn it into 0 / 0
        problem = toy_problem(theta_d=0.0)
        assert problem.s[0] == 0.0
        result = optimize(problem, starts=4, seed=0)
        lo, hi = problem.lo[0], problem.hi[0]
        assert np.isfinite(result.diameter) and lo <= result.diameter <= hi
        assert result.diameter in _start_points(problem, 4, seed=0)[:, 0]
        assert np.all(np.isfinite(result.spectrum))
        assert result.spectrum[2] == 0.0
        assert np.isfinite(result.objective)

    def test_trace_records_steps_and_stop(self, mimic_result):
        for rec in mimic_result.trace:
            assert 0 <= rec["iterations"] <= mimic.MAX_ITER
            assert rec["stop"] in {"gradient", "reduction", "line search",
                                   "iterations"}

    def test_every_start_ends_in_the_box(self, mimic_problem):
        problem = mimic_problem
        lo, hi = problem.lo, problem.hi
        U0 = problem.s * _start_points(problem, 8, seed=3)
        U, f, f_start, _, _ = _search(U0, lo * problem.s, hi * problem.s, problem)
        assert U.shape == U0.shape
        assert np.all(lo * problem.s <= U) and np.all(U <= hi * problem.s)
        assert np.all(f <= f_start)

    def test_box_corner_minimizer_stops_at_once(self):
        # a box whose corner u has the gradient pointing out of the box on
        # every coordinate: the projected gradient is exactly zero there
        problem = toy_problem()
        u = problem.s * interior_points(problem, np.random.default_rng(18), 1)[0]
        _, g = _objective_and_grad(u[None], problem)
        assert np.all(g != 0)
        lo = np.where(g[0] > 0, u, u - 1.0)
        hi = np.where(g[0] > 0, u + 1.0, u)
        U, f, f_start, iterations, stop = _search(u[None], lo, hi, problem)
        assert iterations[0] == 0 and stop[0] == "gradient"
        np.testing.assert_array_equal(U[0], u)
        assert f[0] == f_start[0]

    def test_single_start(self, mimic_problem):
        result = optimize(mimic_problem, starts=1, seed=0)
        assert len(result.trace) == 1 + 1
        lo, hi = mimic_problem.lo[0], mimic_problem.hi[0]
        assert lo <= result.diameter <= hi
        assert result.objective <= min(rec["initial_objective"]
                                       for rec in result.trace)

    def test_many_starts_run_in_one_block(self, monkeypatch):
        problem = toy_problem()
        rows = []
        inner = mimic._objective_and_grad

        def recording(U, prob):
            rows.append(len(U))
            return inner(U, prob)

        monkeypatch.setattr(mimic, "_objective_and_grad", recording)
        result = optimize(problem, starts=100, seed=0)
        assert len(result.trace) == 100 + 1
        assert max(rows[1:]) == 101  # rows[0] screens the designs
        lo, hi = problem.lo, problem.hi
        x = np.concatenate([[result.diameter], result.spectrum[problem.active_set]])
        assert np.all(lo <= x) and np.all(x <= hi)

    def test_to_dict_is_json_ready(self, mimic_result):
        blob = mimic_result.to_dict()
        assert set(blob) == {"diameter", "spectrum", "objective", "trace"}
        json.dumps(blob)


def search_both(U0, lo, hi, problem):
    """_search and its full-size reference on the same starts; every
    output must agree bit for bit. Returns _search's."""
    got = _search(U0, lo, hi, problem)
    want = lockstep_search(U0, lo, hi, problem)
    for name, a, b in zip(["U", "f", "f_start", "iterations", "stop"], got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)
    return got


def scaled_box(problem):
    return problem.lo * problem.s, problem.hi * problem.s


class TestSearchMatchesReference:
    """The compacted lockstep search against the full-size one it replaced."""

    def test_fitted_problem(self, mimic_problem):
        # on the mimic model 30 of these 33 starts stop on "reduction"; starts
        # 18, 19 and 31 begin next to a training row (v ~ 3e-8) and stop on
        # "line search" before their first step
        problem = mimic_problem
        U0 = problem.s * _start_points(problem, 32, seed=0)
        *_, stop = search_both(U0, *scaled_box(problem), problem)
        assert {"reduction", "line search"} <= set(stop)

    def test_coordinates_bound_from_the_start(self):
        # a box a fifth as wide as the problem's, so that the clipped
        # starts sit on its faces, many with the gradient pointing out
        problem = toy_problem()
        lo, hi = scaled_box(problem)
        lo, hi = lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo)
        U0 = np.clip(problem.s * _start_points(problem, 32, seed=4), lo, hi)
        _, g = _objective_and_grad(U0, problem)
        bound = ((U0 <= lo) & (g > 0)) | ((U0 >= hi) & (g < 0))
        assert (bound.sum(axis=1) >= 2).sum() >= 5
        assert not bound.any(axis=1).all()
        search_both(U0, lo, hi, problem)

    def test_optimize_over_one_block(self, mimic_problem, monkeypatch):
        blocks = []

        def checked(U0, lo, hi, problem):
            blocks.append(len(U0))
            return search_both(U0, lo, hi, problem)

        monkeypatch.setattr(mimic, "_search", checked)
        result = optimize(mimic_problem, starts=100, seed=0)
        assert blocks == [101]
        assert len(result.trace) == 101

    def test_iterations_stop(self, mimic_problem, monkeypatch):
        monkeypatch.setattr(mimic, "MAX_ITER", 3)
        problem = mimic_problem
        U0 = problem.s * _start_points(problem, 32, seed=0)
        _, _, _, iterations, stop = search_both(U0, *scaled_box(problem), problem)
        assert "iterations" in set(stop)
        assert iterations.max() == 3

    def test_line_search_stop(self, mimic_problem, monkeypatch):
        # from an interior start the first direction is -g; pick a start
        # whose full step fails the Armijo test, so one trial ends it
        monkeypatch.setattr(mimic, "MAX_TRIALS", 1)
        problem = mimic_problem
        lo, hi = scaled_box(problem)
        U0 = problem.s * interior_points(problem, np.random.default_rng(21), 16)
        f0, g0 = _objective_and_grad(U0, problem)
        step = np.clip(U0 - g0, lo, hi) - U0
        f1, _ = _objective_and_grad(U0 + step, problem)
        fails = f1 > f0 + mimic.ARMIJO * (g0 * step).sum(axis=1)
        assert fails.any()
        u0 = U0[np.flatnonzero(fails)[:1]]
        U, f, f_start, iterations, stop = search_both(u0, lo, hi, problem)
        assert stop[0] == "line search" and iterations[0] == 0
        np.testing.assert_array_equal(U, u0)
        assert f[0] == f_start[0]

    def test_gradient_stop_after_a_step(self, mimic_problem):
        # a tiny box centred on an interior start: the first step, -g,
        # clips onto the corner the gradient points out of, where the
        # projected gradient is exactly zero
        problem = mimic_problem
        u0 = problem.s * interior_points(problem, np.random.default_rng(22), 1)
        _, g = _objective_and_grad(u0, problem)
        assert np.all(g != 0)
        width = 1e-6 * np.abs(u0)
        U, _, _, iterations, stop = search_both(u0, u0 - width, u0 + width, problem)
        assert stop[0] == "gradient" and iterations[0] == 1
        np.testing.assert_array_equal(U[0], u0[0] - width[0] * np.sign(g[0]))
