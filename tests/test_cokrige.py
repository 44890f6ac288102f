import json

import numpy as np
import pytest
from scipy.stats import norm

from spedgp import (
    Dataset,
    InvalidInputError,
    NumericalError,
    StructureDesign,
    load_model,
    predict,
    save_model,
)
from spedgp.cokrige import (
    TrainedEmulator,
    as_strain_grid,
    default_strain_grid,
    hpd_interval,
    log_stress,
    make_fit_data,
    mean_basis,
    predict_from_point,
    unlog_stress,
)
from spedgp.design import gen_sinusoid, sample_designs
from spedgp.spectral import (FAMILIES, cholesky,
                             correlation_from_features, design_feature_row,
                             design_feature_rows, half_size)

from .oracles import dense_conditional, frozen_correlation, predict_and_band
from .test_spectral import name_references


def random_design(rng, p, family):
    if family == "feature_based":
        return StructureDesign(rng.uniform(0.3, 1.8), rng.standard_normal(p),
                               features=rng.uniform(0.1, 1.0, 4))
    return StructureDesign(rng.uniform(0.3, 1.8), rng.standard_normal(p))


def random_emulator(rng, n=4, m=3, p=5, nugget=1e-8, family="sped", designs=None):
    if designs is None:
        designs = [random_design(rng, p, family) for _ in range(n)]
    grid = np.linspace(0.01, 0.15, m)
    Y = rng.standard_normal((len(designs), m))
    A = rng.standard_normal((m, m))
    Sigma = A @ A.T + m * np.eye(m)
    n_theta = {"sped": half_size(p), "feature_based": 3, "l2_distance": p}[family]
    theta = rng.uniform(0.05, 0.3, n_theta)
    z = np.append(theta, rng.uniform(0.1, 1.0))
    beta = np.array([rng.standard_normal(), rng.uniform(0.5, 2.0)])
    data = make_fit_data(designs, Y, grid, family=family, nugget=nugget)
    return TrainedEmulator(data=data, z=z, beta=beta, Sigma=Sigma)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_weight_layout_for_every_family(family):
    # the diameter is every row's last column, and its weight theta_d is
    # z's last entry, outside the lambda_I penalty
    model = random_emulator(np.random.default_rng(13), family=family)
    data = model.data
    for dsn in data.designs:
        assert design_feature_row(dsn, family)[-1] == dsn.diameter
    np.testing.assert_array_equal(data.penalty_mask(), np.append(np.ones(data.nz - 1), 0.0))
    theta, theta_d = data.unpack(model.z)
    assert theta_d == model.z[-1]
    np.testing.assert_array_equal(theta, model.z[:-1])


class TestTransforms:
    def test_round_trip(self):
        y = np.array([0.5, 1.0, 2.5])
        np.testing.assert_allclose(unlog_stress(log_stress(y)), y, rtol=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            log_stress(np.array([1.0, 0.0]))

    def test_non_finite_log_stress_rejected(self):
        with pytest.raises(InvalidInputError, match="^log-stress values must be finite$"):
            unlog_stress(np.array([0.0, np.inf]))


class TestMeanBasis:
    def test_columns(self):
        grid = np.array([0.01, 0.05, 0.15])
        P = mean_basis(grid)
        np.testing.assert_array_equal(P[:, 0], 1.0)
        np.testing.assert_allclose(P[:, 1], np.log(grid), rtol=1e-15)

    def test_default_grid(self):
        grid = default_strain_grid()
        assert grid.size == 41
        assert grid[0] == pytest.approx(0.00375)
        assert grid[-1] == pytest.approx(0.15)

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            as_strain_grid(np.array([0.05, 0.01]))
        with pytest.raises(InvalidInputError):
            as_strain_grid(np.array([0.0, 0.01]))
        with pytest.raises(InvalidInputError,
                           match="^strain grid must be a vector of at least 2 levels$"):
            as_strain_grid(np.array([0.05]))

    @pytest.mark.parametrize("levels,message", [
        (["0.01", "0.05", "0.15"], "strain grid must hold real numbers"),
        ([True, 0.05, 0.15], "strain grid must hold real numbers"),
        (None, "strain grid: shape"),
        ([[0.01, 0.05], 0.15], "strain grid must hold real numbers"),
        ([[0.01, 0.05], [0.1, 0.15]], "strain grid: shape"),
        ([0.01, np.nan, 0.15], "strain grid must be finite"),
    ], ids=["strings", "bool", "None", "ragged", "matrix", "nan"])
    @pytest.mark.parametrize("user", ["as_strain_grid", "mean_basis", "make_fit_data",
                                      "Dataset"])
    def test_every_grid_takes_the_array_rule(self, user, levels, message):
        designs = [random_design(np.random.default_rng(i), 5, "sped") for i in range(3)]
        call = {"as_strain_grid": as_strain_grid, "mean_basis": mean_basis,
                "make_fit_data": lambda grid: make_fit_data(designs, np.zeros((3, 3)), grid),
                "Dataset": lambda grid: Dataset(designs, np.ones((3, 3)), grid)}[user]
        with pytest.raises(InvalidInputError, match=message):
            call(levels)


class TestEmulatorValidation:
    def test_beta2_must_be_positive(self):
        rng = np.random.default_rng(0)
        good = random_emulator(rng)
        with pytest.raises(InvalidInputError, match="beta_2"):
            TrainedEmulator(data=good.data, z=good.z,
                            beta=np.array([good.beta[0], -0.5]),
                            Sigma=good.Sigma)

    def test_beta_length_must_match_mean_basis(self):
        rng = np.random.default_rng(0)
        good = random_emulator(rng)
        with pytest.raises(InvalidInputError, match="beta: shape"):
            TrainedEmulator(data=good.data, z=good.z, beta=np.append(good.beta, 1.0),
                            Sigma=good.Sigma)

    def test_sigma_must_be_symmetric(self):
        rng = np.random.default_rng(1)
        good = random_emulator(rng)
        bad = good.Sigma.copy()
        bad[0, 1] += 1.0
        with pytest.raises(InvalidInputError, match="symmetric"):
            TrainedEmulator(data=good.data, z=good.z, beta=good.beta, Sigma=bad)

    @pytest.mark.parametrize("edit,message", [
        (lambda S: -S, "Sigma must be positive definite"),
        (lambda S: S - 1.01 * np.linalg.eigvalsh(S)[0] * np.eye(len(S)),
         "Sigma must be positive definite"),
        (lambda S: np.zeros_like(S), "Sigma must be positive definite"),
        (lambda S: np.where(np.eye(len(S)) > 0, np.inf, S), "Sigma must be finite"),
        (lambda S: np.full_like(S, np.nan), "Sigma must be finite"),
        (lambda S: S[:-1, :-1], "Sigma: shape"),
    ], ids=["negated", "indefinite", "zero", "inf_diagonal", "nan", "wrong_shape"])
    def test_sigma_must_be_finite_and_positive_definite(self, edit, message):
        # a non-PD Sigma would make predict's band a NaN and mimic's v tr(Sigma)
        # term reward uncertainty
        rng = np.random.default_rng(1)
        good = random_emulator(rng)
        bad = edit(good.Sigma.copy())
        with pytest.raises(InvalidInputError, match=message):
            TrainedEmulator(data=good.data, z=good.z, beta=good.beta, Sigma=bad)

    def test_sigma_check_leaves_sigma_untouched(self):
        rng = np.random.default_rng(1)
        good = random_emulator(rng)
        Sigma = good.Sigma.copy()
        model = TrainedEmulator(data=good.data, z=good.z, beta=good.beta, Sigma=Sigma)
        np.testing.assert_array_equal(model.Sigma, good.Sigma)

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    @pytest.mark.parametrize("k", [0, -1], ids=["theta", "theta_d"])
    def test_negative_or_nan_weights_rejected(self, bad, k):
        rng = np.random.default_rng(1)
        good = random_emulator(rng)
        z = good.z.copy()
        z[k] = bad
        with pytest.raises(InvalidInputError, match="kernel weights must be finite"):
            TrainedEmulator(data=good.data, z=z, beta=good.beta, Sigma=good.Sigma)

    @pytest.mark.parametrize("nugget", [True, np.True_, "1e-8", None])
    def test_nugget_must_be_a_rate(self, nugget):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidInputError, match="nugget must be finite and nonnegative"):
            random_emulator(rng, nugget=nugget)

    def test_weight_length_must_match_features(self):
        rng = np.random.default_rng(1)
        good = random_emulator(rng)
        with pytest.raises(InvalidInputError, match="kernel weights: shape"):
            TrainedEmulator(data=good.data, z=good.z[:-1], beta=good.beta,
                            Sigma=good.Sigma)

    def test_built_on_the_training_state(self):
        rng = np.random.default_rng(1)
        model = random_emulator(rng, nugget=1e-6)
        assert model.grid is model.data.grid
        assert model.data.nugget == 1e-6
        theta, theta_d = model.data.unpack(model.z)
        np.testing.assert_array_equal(np.append(theta, theta_d), model.z)
        assert not hasattr(model, "params")
        np.testing.assert_array_equal(model.R, model.data.correlation(model.z))


def explicit_correlations(model, new):
    """exp(-((F - f)**2) @ z) between the training rows F and a new design's
    row f, written out here rather than taken from the code under test."""
    f = design_feature_row(new, model.data.family)
    return np.exp(-((model.data.F - f) ** 2) @ model.z)


class TestPredictAgainstDenseOracle:
    def test_matches_brute_force_conditioning(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            model = random_emulator(rng)
            new = StructureDesign(rng.uniform(0.3, 1.8),
                                  rng.standard_normal(model.data.p))
            pred = predict(model, new)
            r = explicit_correlations(model, new)
            mean, cov = dense_conditional(model.data.Y, model.R, r, 1.0, model.Sigma,
                                          model.beta, model.data.P)
            np.testing.assert_allclose(pred.mean, mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(pred.covariance(), cov, rtol=1e-7,
                                       atol=1e-10)

    def test_training_point_interpolates_without_nugget(self):
        rng = np.random.default_rng(3)
        model = random_emulator(rng, nugget=0.0)
        pred = predict(model, model.data.designs[1])
        np.testing.assert_allclose(pred.mean, model.data.Y[1], rtol=0, atol=1e-8)
        assert 0.0 <= pred.scale <= 1e-10

    def test_far_point_reverts_to_mean(self):
        rng = np.random.default_rng(4)
        model = random_emulator(rng)
        far = StructureDesign(1.0, 50.0 + 10.0 * rng.standard_normal(model.data.p))
        pred = predict(model, far)
        np.testing.assert_allclose(pred.mean, model.data.P @ model.beta, rtol=1e-6)
        assert pred.scale == pytest.approx(1.0, abs=1e-6)

    def test_scale_clamped_and_guarded(self):
        rng = np.random.default_rng(5)
        model = random_emulator(rng)
        r = np.zeros(len(model.data.designs))
        assert predict_from_point(model, r).scale == 1.0
        r_over = explicit_correlations(model, model.data.designs[0])
        # tiny overshoot inside tolerance clamps to zero
        pred = predict_from_point(model, r_over * (1 + 1e-12))
        assert pred.scale >= 0.0
        with pytest.raises(NumericalError, match="negative"):
            predict_from_point(model, r_over * 1.01)

    def test_p_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        model = random_emulator(rng, p=5)
        with pytest.raises(InvalidInputError, match="p="):
            predict(model, StructureDesign(1.0, np.zeros(7)))


class TestHpdInterval:
    def test_unit_case_half_width(self):
        from spedgp.cokrige import Prediction
        pr = Prediction(mean=np.zeros(3), scale=1.0, Sigma=np.eye(3))
        lo, hi = hpd_interval(pr, 0.9)
        np.testing.assert_allclose(hi, 1.6448536269514722, rtol=1e-12)
        np.testing.assert_allclose(lo, -hi, rtol=1e-12)

    @pytest.mark.parametrize("level", [1e-6, 0.5, 0.8, 0.9, 0.95, 0.99, 1 - 1e-9])
    def test_half_width_is_norm_ppf_bit_for_bit(self, level):
        from spedgp.cokrige import Prediction
        pr = Prediction(mean=np.zeros(3), scale=1.0, Sigma=np.eye(3))
        lo, hi = hpd_interval(pr, level)
        assert np.array_equal(hi, np.full(3, norm.ppf(0.5 * (1 + level))))
        assert np.array_equal(lo, -hi)

    def test_level_validation(self):
        from spedgp.cokrige import Prediction
        pr = Prediction(mean=np.zeros(2), scale=0.5, Sigma=np.eye(2))
        for level in (1.0, 0.0, np.nan, "0.9", None, True):
            with pytest.raises(InvalidInputError, match="level must be"):
                hpd_interval(pr, level)

    def test_negative_scale_raises_numerical_error(self):
        from spedgp.cokrige import Prediction
        pr = Prediction(mean=np.zeros(2), scale=-1.0, Sigma=np.eye(2))
        with pytest.raises(NumericalError, match="negative predictive scale"):
            hpd_interval(pr, 0.9)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_raises_numerical_error(self, scale):
        from spedgp.cokrige import Prediction
        pr = Prediction(mean=np.zeros(2), scale=scale, Sigma=np.eye(2))
        with pytest.raises(NumericalError, match="finite, nonnegative predictive scale"):
            hpd_interval(pr, 0.9)

    def test_width_scales_with_v(self):
        from spedgp.cokrige import Prediction
        pr1 = Prediction(mean=np.zeros(2), scale=0.25, Sigma=np.eye(2))
        pr2 = Prediction(mean=np.zeros(2), scale=1.0, Sigma=np.eye(2))
        lo1, hi1 = hpd_interval(pr1, 0.9)
        lo2, hi2 = hpd_interval(pr2, 0.9)
        np.testing.assert_allclose(hi2, 2 * hi1, rtol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_predict_and_band_match_the_list_path_bit_for_bit(family):
    # the request path: the design's own feature row and scipy.special's
    # quantile, against a one-design list of rows and scipy.stats' norm.ppf
    rng = np.random.default_rng(5)
    model = random_emulator(rng, n=6, m=4, p=9, family=family)
    for _ in range(5):
        new = random_design(rng, model.data.p, family)
        pred = predict(model, new)
        f_new = design_feature_rows([new], family)[0]
        r = correlation_from_features(model.data.F, f_new, model.z)
        ref = predict_from_point(model, r)
        assert np.array_equal(pred.mean, ref.mean)
        assert pred.scale == ref.scale
        lo, hi = hpd_interval(pred, 0.9)
        half = norm.ppf(0.95) * np.sqrt(ref.scale * np.diag(ref.Sigma))
        assert np.array_equal(lo, ref.mean - half)
        assert np.array_equal(hi, ref.mean + half)


@pytest.mark.parametrize("family", FAMILIES)
def test_query_path_bits_match_the_frozen_arithmetic(family):
    # sinusoid training and query designs, so that the query correlations
    # do not all vanish (at least half the scales lie in (0, 1)); the
    # fitted R and every prediction and band edge must have the bits of
    # fresh-temporary arithmetic
    p = 21
    train = [gen_sinusoid(s, p) for s in sample_designs(12, seed=3, scheme="lhs")]
    model = random_emulator(np.random.default_rng(7), m=6, p=p, family=family,
                            designs=train)
    assert np.array_equal(model.R, frozen_correlation(model))
    scales = []
    for spec in sample_designs(64, seed=4, scheme="sobol"):
        new = gen_sinusoid(spec, p)
        pred = predict(model, new)
        lo, hi = hpd_interval(pred, 0.9)
        mean, scale, lo_ref, hi_ref = predict_and_band(model, new, 0.9)
        assert np.array_equal(pred.mean, mean)
        assert pred.scale == scale
        assert np.array_equal(lo, lo_ref)
        assert np.array_equal(hi, hi_ref)
        scales.append(scale)
    assert sum(0.0 < v < 1.0 for v in scales) >= 32


class TestSerialization:
    def test_save_load_bit_stable_predictions(self, tmp_path):
        rng = np.random.default_rng(7)
        for family in FAMILIES:
            model = random_emulator(rng, family=family)
            path = tmp_path / f"{family}.json"
            save_model(model, path)
            back = load_model(path)
            new = random_design(rng, model.data.p, family)
            a = predict(model, new)
            b = predict(back, new)
            np.testing.assert_array_equal(a.mean, b.mean)
            assert a.scale == b.scale
            np.testing.assert_array_equal(a.Sigma, b.Sigma)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_fields(self, tmp_path, family):
        rng = np.random.default_rng(8)
        model = random_emulator(rng, family=family)
        model.fit_metadata.update({"lambda_I": 1.0, "lambda_o": 0.5})
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.data.family == model.data.family
        assert back.data.nugget == model.data.nugget
        np.testing.assert_array_equal(back.z, model.z)
        np.testing.assert_array_equal(back.data.Y, model.data.Y)
        assert back.fit_metadata["lambda_I"] == 1.0

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["Y"][1].__setitem__(0, float("nan")), "responses must be finite"),
        (lambda doc: doc["designs"].__setitem__(2, doc["designs"][0]),
         "designs 0 and 2 are identical up to cyclic shift"),
        (lambda doc: doc["theta"].__setitem__(1, -0.5), "finite and nonnegative"),
        (lambda doc: doc["theta"].__setitem__(1, float("nan")),
         "kernel weights must be finite"),
        (lambda doc: doc["theta"].pop(), "kernel weights: shape"),
        (lambda doc: doc["theta"].append([0.1]), "kernel weights: shape"),
        (lambda doc: doc.__setitem__("theta_d", float("nan")), "finite and nonnegative"),
        (lambda doc: doc.__setitem__("theta_d", -1.0), "finite and nonnegative"),
        (lambda doc: doc.__setitem__("nugget", float("nan")),
         "nugget must be finite and nonnegative"),
        (lambda doc: doc.__setitem__("nugget", -1e-8),
         "nugget must be finite and nonnegative"),
        (lambda doc: doc.__setitem__("family", "cosine"), "unknown kernel family"),
        (lambda doc: doc.__setitem__("theta", [[0.1, 0.2], [0.1, 0.2]]),
         "kernel weights: shape"),
        (lambda doc: doc.__setitem__("Sigma", (-np.eye(len(doc["Sigma"]))).tolist()),
         "Sigma must be positive definite"),
        (lambda doc: doc.__setitem__("p", 999), "p = 999 does not match the curve length"),
        (lambda doc: doc.pop("p"), "lacks the key 'p'"),
        (lambda doc: doc["Y"].pop(),
         "responses: shape"),
        (lambda doc: doc["designs"][0].__setitem__("curve", [doc["designs"][0]["curve"]]),
         "structure curve: shape"),
        (lambda doc: doc["designs"][0].__setitem__("d", 0.0),
         "diameter must be positive and finite, got 0.0"),
        (lambda doc: doc["designs"][0].__setitem__("features", [1.0, 2.0, 3.0]),
         "features: shape"),
        (lambda doc: doc["designs"][1].__setitem__("curve", doc["designs"][1]["curve"][:3]),
         "design 1 has p=3, expected 5"),
        # a value of the wrong type reaches its rule as the file holds it
        (lambda doc: doc.__setitem__("nugget", True),
         "nugget must be finite and nonnegative, got True"),
        (lambda doc: doc.__setitem__("nugget", "1e-08"),
         "nugget must be finite and nonnegative, got '1e-08'"),
        (lambda doc: doc.__setitem__("p", float(doc["p"])), "p must be an integer, got 5.0"),
        (lambda doc: doc.__setitem__("p", True), "p must be an integer, got True"),
        (lambda doc: doc["beta"].__setitem__(0, str(doc["beta"][0])),
         "beta must hold real numbers"),
        (lambda doc: doc["beta"].__setitem__(1, True), "beta must hold real numbers"),
        (lambda doc: doc["theta"].__setitem__(0, str(doc["theta"][0])),
         "kernel weights must hold real numbers"),
        (lambda doc: doc.__setitem__("theta_d", str(doc["theta_d"])),
         "theta_d must be finite and nonnegative, got '"),
        (lambda doc: doc.__setitem__("theta_d", True),
         "theta_d must be finite and nonnegative, got True"),
        (lambda doc: doc["Sigma"][0].__setitem__(0, str(doc["Sigma"][0][0])),
         "Sigma must hold real numbers"),
        (lambda doc: doc["Y"][0].__setitem__(0, str(doc["Y"][0][0])),
         "responses must hold real numbers"),
        (lambda doc: doc.__setitem__("strain_grid", list(map(str, doc["strain_grid"]))),
         "strain grid must hold real numbers"),
        (lambda doc: doc["strain_grid"].__setitem__(0, True),
         "strain grid must hold real numbers"),
        (lambda doc: doc.__setitem__("strain_grid", None), "strain grid: shape"),
        (lambda doc: doc.__setitem__("strain_grid", [doc["strain_grid"][:1],
                                                     doc["strain_grid"][1:]]),
         "strain grid must hold real numbers"),
        (lambda doc: doc["designs"][0].__setitem__("d", str(doc["designs"][0]["d"])),
         "diameter must be finite and nonnegative, got '"),
        (lambda doc: doc["designs"][0].__setitem__("d", True),
         "diameter must be finite and nonnegative, got True"),
        (lambda doc: doc["designs"][0].__setitem__("d", None),
         "diameter must be finite and nonnegative, got None"),
        (lambda doc: doc["designs"][0].__setitem__("d", [0.5, 0.6]),
         r"diameter must be finite and nonnegative, got \[0.5, 0.6\]"),
        (lambda doc: doc["designs"][1]["curve"].__setitem__(0, True),
         "structure curve must hold real numbers"),
        (lambda doc: doc["designs"][1]["curve"].__setitem__(0, "0.5"),
         "structure curve must hold real numbers"),
        (lambda doc: doc["designs"][1].__setitem__("curve", None), "structure curve: shape"),
        (lambda doc: doc["designs"][0].__setitem__("features", ["0.5"] * 4),
         "features must hold real numbers"),
        (lambda doc: doc["designs"][0].__setitem__("features", [True, 0.5, 0.5, 0.5]),
         "features must hold real numbers"),
    ], ids=["nan_response", "duplicate_design", "negative_theta", "nan_theta",
            "short_theta", "ragged_theta", "nan_theta_d", "negative_theta_d",
            "nan_nugget", "negative_nugget", "unknown_family", "matrix_theta",
            "negative_sigma", "wrong_p", "missing_p", "short_Y", "matrix_curve",
            "zero_diameter", "short_features", "mixed_p", "bool_nugget",
            "string_nugget", "float_p", "bool_p", "string_beta", "bool_beta",
            "string_theta", "string_theta_d", "bool_theta_d", "string_sigma",
            "string_Y", "string_grid", "bool_grid", "none_grid", "ragged_grid",
            "string_d", "bool_d", "none_d", "list_d", "bool_curve", "string_curve",
            "none_curve", "string_features", "bool_features"])
    def test_load_validates_training_rows_as_fit_does(self, tmp_path, edit, message):
        rng = np.random.default_rng(10)
        path = tmp_path / "model.json"
        save_model(random_emulator(rng), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=message):
            load_model(path)

    def test_json_integers_load_as_written(self, tmp_path):
        # integer p, nugget, theta_d, beta, Sigma, Y, diameters, curves and
        # strain grid are numbers of the right type; the rules pass them on,
        # so nugget stays the integer 0, and the model predicts
        rng = np.random.default_rng(12)
        path = tmp_path / "model.json"
        save_model(random_emulator(rng), path)
        doc = json.loads(path.read_text())
        m = len(doc["Sigma"])
        doc.update(nugget=0, theta_d=1, beta=[0, 1], Sigma=np.eye(m, dtype=int).tolist(),
                   Y=[[i + 2 * j for j in range(m)] for i in range(len(doc["Y"]))],
                   strain_grid=list(range(1, m + 1)))
        for i, entry in enumerate(doc["designs"]):
            entry.update(d=i + 1, curve=[round(10 * v) for v in entry["curve"]])
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert back.data.nugget == 0 and type(back.data.nugget) is int
        assert back.z[-1] == 1.0 and back.z.dtype == float
        np.testing.assert_array_equal(back.beta, [0.0, 1.0])
        np.testing.assert_array_equal(back.Sigma, np.eye(m))
        assert back.data.Y.dtype == float and back.data.Y[1, 2] == 5.0
        assert back.grid.dtype == float and back.grid.tolist() == list(range(1, m + 1))
        second = back.data.designs[1]
        assert type(second.diameter) is float and second.diameter == 2.0
        assert second.curve.dtype == float
        assert second.curve.tolist() == doc["designs"][1]["curve"]
        assert np.isfinite(predict(back, second).mean).all()

    @pytest.mark.parametrize("family", ["sped", "feature_based"])
    def test_theta_d_checked_for_every_family(self, tmp_path, family):
        # theta_d is z's last entry in every family, and the file's value is checked
        rng = np.random.default_rng(11)
        path = tmp_path / "model.json"
        save_model(random_emulator(rng, family=family), path)
        doc = json.loads(path.read_text())
        doc["theta_d"] = -1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            load_model(path)

    @pytest.mark.parametrize("write,message", [
        (None, "missing file"),
        ("{not json", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        (json.dumps({"p": 5}), "lacks the key 'designs'"),
    ], ids=["missing_file", "invalid_json", "not_an_object", "missing_key"])
    def test_unreadable_file_raises_invalid_input(self, tmp_path, write, message):
        path = tmp_path / "model.json"
        if write is not None:
            path.write_text(write)
        with pytest.raises(InvalidInputError, match=message):
            load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_emulator(rng)
        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_one_copy_of_each_value():
    # the training state lives on model.data, a factor is its array, and
    # mimic's box is its lo and hi arrays
    model = random_emulator(np.random.default_rng(12))
    copies = [name for name in ("designs", "Y", "P", "F", "p", "n", "m")
              if hasattr(model, name)]
    assert not copies, f"TrainedEmulator copies FitData fields: {copies}"
    assert isinstance(cholesky(np.eye(3)), np.ndarray)
    offenders = name_references({"d_bounds", "coef_bounds", "box"})
    assert not offenders, f"second form of the mimic box: {offenders}"
