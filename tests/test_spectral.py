import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve

from spedgp import (
    InvalidInputError,
    NumericalError,
    SingularMatrixError,
    StructureDesign,
    dft_modulus,
)
from spedgp.design import gen_sinusoid, sample_designs
from spedgp.spectral import (
    FAMILIES,
    STRUCTURE_SPAN,
    as_structure_curve,
    check_weights,
    cholesky,
    correlation_cholesky,
    correlation_from_features,
    correlation_matrix,
    correlation_with_nugget,
    cross_correlation,
    design_feature_row,
    design_feature_rows,
    factor_correlation,
    half_size,
    kernel,
    solve_factored,
    sq_differences,
    structure_times,
)

from .oracles import (dft_modulus_direct, fft_half_modulus, feature_corr_scalar,
                      sped_corr_scalar)

SRC = Path(__file__).resolve().parents[1] / "src" / "spedgp"

odd_curves = arrays(
    np.float64,
    st.integers(min_value=1, max_value=10).map(lambda k: 2 * k + 1),
    elements=st.floats(-5, 5, allow_nan=False),
)


def rand_design(rng, p, d=None):
    return StructureDesign(
        diameter=rng.uniform(0.2, 2.0) if d is None else d,
        curve=rng.standard_normal(p),
    )


def correlation_of(designs, z, nugget, family="sped"):
    """R of a design list at packed weights z, as FitData.correlation builds it."""
    F = design_feature_rows(designs, family)
    return correlation_with_nugget(sq_differences(F, F), z, nugget)


def cross_of(new, designs, z, family="sped"):
    """Correlations of a new design with a design list, as predict computes them."""
    return correlation_from_features(design_feature_rows(designs, family),
                                     design_feature_row(new, family), z)


def pair_correlation(a, b, z, family):
    """The kernel between two designs at packed weights z, through their feature rows."""
    return float(cross_of(a, [b], z, family)[0])


def sped_oracle(a, b, z):
    return sped_corr_scalar(a.diameter, a.curve, b.diameter, b.curve, z[:-1], z[-1])


class TestDftModulus:
    def test_constant_curve_concentrates_at_dc(self):
        np.testing.assert_allclose(dft_modulus([1, 1, 1, 1, 1]), [5, 0, 0], atol=1e-12)

    def test_unit_impulse_is_flat(self):
        np.testing.assert_allclose(dft_modulus([1, 0, 0]), [1, 1], atol=1e-12)

    def test_on_bin_cosine_modulus_is_half_p(self):
        p, k = 21, 4
        x = np.cos(2 * np.pi * k * np.arange(p) / p)
        mod = dft_modulus(x)
        expected = np.zeros(half_size(p))
        expected[k] = p / 2
        np.testing.assert_allclose(mod, expected, atol=1e-9)

    @given(odd_curves)
    def test_matches_fft(self, x):
        np.testing.assert_allclose(dft_modulus(x), fft_half_modulus(x), atol=1e-8)

    @given(odd_curves)
    def test_cached_basis_is_bit_identical_to_direct_summation(self, x):
        np.testing.assert_array_equal(dft_modulus(x), dft_modulus_direct(x))

    def test_bit_identical_at_benchmark_length(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(81)
            np.testing.assert_array_equal(dft_modulus(x), dft_modulus_direct(x))

    @given(odd_curves, st.integers(-20, 20))
    def test_cyclic_shift_invariant(self, x, s):
        np.testing.assert_allclose(dft_modulus(np.roll(x, s)), dft_modulus(x), atol=1e-8)

    def test_half_size(self):
        assert half_size(5) == 3
        assert half_size(81) == 41

    def test_even_length_rejected(self):
        with pytest.raises(InvalidInputError, match="odd"):
            dft_modulus([1.0, 2.0])

    def test_length_takes_the_curve_length_rule(self):
        # the rule of structure_times: a 1-point curve has no half spectrum to weight
        for curve in ([], [1.0], [1.0, 2.0]):
            with pytest.raises(InvalidInputError,
                               match=f"^curve length must be odd and >= 3, got {len(curve)}$"):
                as_structure_curve(curve)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for at in range(3):
                curve = [1.0, 3.0, 2.0]
                curve[at] = bad
                with pytest.raises(InvalidInputError, match="^structure curve must be finite$"):
                    as_structure_curve(curve)
                with pytest.raises(InvalidInputError, match="^structure curve must be finite$"):
                    StructureDesign(1.0, np.array(curve))


class TestGrids:
    def test_times_span(self):
        t = structure_times(81)
        assert t[0] == 0.0
        assert t[-1] == STRUCTURE_SPAN
        np.testing.assert_allclose(np.diff(t), 0.25)

    def test_times_reject_even_length(self):
        with pytest.raises(InvalidInputError,
                           match="^curve length must be odd and >= 3, got 80$"):
            structure_times(80)


class TestSpedCorrelation:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        p = 9
        a, b = rand_design(rng, p), rand_design(rng, p)
        z = np.append(rng.uniform(0, 1, half_size(p)), 0.3)
        assert pair_correlation(a, b, z, "sped") == pytest.approx(
            sped_oracle(a, b, z), rel=1e-12)

    def test_shifted_copy_has_correlation_one(self):
        rng = np.random.default_rng(1)
        p = 21
        a = rand_design(rng, p)
        b = StructureDesign(a.diameter, np.roll(a.curve, 7))
        z = np.append(rng.uniform(0, 2, half_size(p)), 1.0)
        assert pair_correlation(a, b, z, "sped") == pytest.approx(1.0, abs=1e-10)

    def test_diameter_factor(self):
        x = np.ones(5)
        a = StructureDesign(1.0, x)
        b = StructureDesign(1.5, x)
        z = np.append(np.zeros(3), 2.0)
        assert pair_correlation(a, b, z, "sped") == pytest.approx(np.exp(-2.0 * 0.25))

    def test_zero_theta_gives_one(self):
        rng = np.random.default_rng(2)
        a, b = rand_design(rng, 7, d=1.0), rand_design(rng, 7, d=1.0)
        assert pair_correlation(a, b, np.zeros(5), "sped") == 1.0

    def test_length_mismatch_rejected(self):
        a = StructureDesign(1.0, np.zeros(5))
        b = StructureDesign(1.0, np.zeros(7))
        with pytest.raises(InvalidInputError, match="lengths differ"):
            cross_correlation(a, [b], np.zeros(4), "sped")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        p = 11
        a, b = rand_design(rng, p), rand_design(rng, p)
        z = np.append(rng.uniform(0, 3, half_size(p)), rng.uniform(0, 3))
        r_ab = pair_correlation(a, b, z, "sped")
        r_ba = pair_correlation(b, a, z, "sped")
        assert 0.0 <= r_ab <= 1.0
        assert r_ab == pytest.approx(r_ba, rel=1e-14)
        assert r_ab == pytest.approx(sped_oracle(a, b, z), rel=1e-10)


class TestBaselineFamilies:
    def test_feature_correlation_matches_oracle(self):
        rng = np.random.default_rng(3)
        fa, fb = rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)
        t = rng.uniform(0, 2, 4)
        assert correlation_from_features(fa[None, :], fb, t)[0] == pytest.approx(
            feature_corr_scalar(fa, fb, t), rel=1e-12)

    def test_feature_correlation_ignores_curve(self):
        rng = np.random.default_rng(9)
        f = np.array([1.0, 0.5, 0.3, 0.1])
        a = StructureDesign(1.0, rng.standard_normal(9), features=f)
        b = StructureDesign(1.7, rng.standard_normal(9), features=f)
        # the diameters differ, but the feature row has no separate diameter column
        assert pair_correlation(a, b, np.ones(4), "feature_based") == 1.0

    def test_l2_not_shift_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(21)
        a, b = StructureDesign(1.0, x), StructureDesign(1.0, np.roll(x, 5))
        z = np.append(np.ones(21), 0.0)
        assert pair_correlation(a, b, z, "l2_distance") < 0.999

    def test_l2_riemann_scaling(self):
        # exp(-dt sum_l theta_l (a_l - b_l)^2) with dt = 20 mm / (p - 1)
        a = StructureDesign(1.0, np.zeros(5))
        b = StructureDesign(1.0, np.ones(5))
        z = np.append(np.full(5, 0.02), 0.0)
        dt = STRUCTURE_SPAN / 4
        assert pair_correlation(a, b, z, "l2_distance") == pytest.approx(
            np.exp(-dt * 0.02 * 5))

    def test_negative_theta_rejected(self):
        a = StructureDesign(1.0, np.zeros(3), features=np.ones(4))
        with pytest.raises(InvalidInputError, match="nonnegative"):
            cross_correlation(a, [a], [-1.0, 0, 0, 0], "feature_based")
        with pytest.raises(InvalidInputError, match="nonnegative"):
            cross_correlation(a, [a], [-1.0, 0, 0, 0], "l2_distance")
        with pytest.raises(InvalidInputError, match="nonnegative"):
            cross_correlation(a, [a], [0, 0, 0, -1.0], "l2_distance")


class TestMatrixAssembly:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.p = 9
        self.designs = [rand_design(rng, self.p) for _ in range(6)]
        self.z = np.append(rng.uniform(0, 1, half_size(self.p)), 0.7)
        self.nugget = 1e-8

    def test_matrix_matches_pairwise_scalars(self):
        R = correlation_of(self.designs, self.z, self.nugget)
        for i, a in enumerate(self.designs):
            for j, b in enumerate(self.designs):
                if i == j:
                    assert R[i, j] == pytest.approx(1.0 + self.nugget)
                else:
                    assert R[i, j] == pytest.approx(
                        sped_oracle(a, b, self.z), rel=1e-10)

    def test_cross_matches_scalars(self):
        rng = np.random.default_rng(6)
        new = rand_design(rng, self.p)
        r = cross_of(new, self.designs, self.z)
        want = [sped_oracle(new, b, self.z) for b in self.designs]
        np.testing.assert_allclose(r, want, rtol=1e-10)

    def test_correlation_from_features_consistent(self):
        F = design_feature_rows(self.designs, "sped")
        z = self.z
        r = correlation_from_features(F, F[2], z)
        R = correlation_of(self.designs, z, self.nugget)
        np.testing.assert_allclose(np.delete(r, 2), np.delete(R[2], 2), rtol=1e-10)
        assert r[2] == pytest.approx(1.0)
        # a stack of rows is the same kernel as one row at a time
        np.testing.assert_array_equal(kernel(sq_differences(F, F[2:3]), z)[:, 0], r)

    def test_psd_without_nugget(self):
        rng = np.random.default_rng(7)
        for p in (5, 21):
            designs = [rand_design(rng, p) for _ in range(8)]
            z = np.append(rng.uniform(0, 2, half_size(p)), rng.uniform(0, 2))
            R = correlation_of(designs, z, 0.0)
            assert np.linalg.eigvalsh(R).min() >= -1e-8

    def test_duplicate_modulo_shift_names_pair(self):
        rng = np.random.default_rng(8)
        base = rand_design(rng, 11)
        designs = [base,
                   rand_design(rng, 11),
                   StructureDesign(base.diameter, np.roll(base.curve, 3))]
        z = np.append(np.full(6, 0.5), 1.0)
        with pytest.raises(SingularMatrixError, match="0 and 2"):
            factor_correlation(correlation_of(designs, z, 0.0), 0.0)

    def test_cholesky_succeeds_with_nugget(self):
        R = correlation_of(self.designs, self.z, self.nugget)
        factor_correlation(R, self.nugget)
        assert R.shape == (6, 6)

    def test_feature_rows_require_provenance(self):
        with pytest.raises(InvalidInputError, match="provenance"):
            design_feature_rows(self.designs, "feature_based")
        with pytest.raises(InvalidInputError, match="provenance"):
            design_feature_row(self.designs[0], "feature_based")
        designs = [StructureDesign(1.0, np.ones(self.p), features=np.ones(4)),
                   self.designs[0]]
        with pytest.raises(InvalidInputError, match=r"provenance.*\(design 1\)"):
            design_feature_rows(designs, "feature_based")

    def test_feature_rows_need_a_design(self):
        with pytest.raises(InvalidInputError, match="^need at least one design$"):
            design_feature_rows([], "sped")

    def test_l2_feature_rows_fold_dt(self):
        F = design_feature_rows(self.designs, "l2_distance")
        dt = STRUCTURE_SPAN / (self.p - 1)
        np.testing.assert_allclose(
            F[0, :-1], self.designs[0].curve * np.sqrt(dt), rtol=1e-12)
        np.testing.assert_array_equal(F[:, -1], [d.diameter for d in self.designs])

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown kernel family"):
            design_feature_row(self.designs[0], "cosine")
        with pytest.raises(InvalidInputError, match="unknown kernel family"):
            design_feature_rows(self.designs, "cosine")

    def test_theta_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="expected"):
            check_weights(np.ones(3), half_size(self.p) + 1)
        with pytest.raises(InvalidInputError, match="expected"):
            correlation_matrix(self.designs, np.ones(3), "sped", self.nugget)

    @pytest.mark.parametrize("nugget", [True, np.True_, "1e-8", None, np.nan, -1e-8])
    @pytest.mark.parametrize("assemble", [correlation_matrix, correlation_cholesky])
    def test_nugget_must_be_a_rate(self, assemble, nugget):
        with pytest.raises(InvalidInputError, match="nugget must be finite and nonnegative"):
            assemble(self.designs, self.z, "sped", nugget)


def spd_matrix(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def spd_factor(rng, n):
    """The package's one factor layout, cholesky's, of a random SPD matrix."""
    return cholesky(spd_matrix(rng, n))


class TestFactorCorrelation:
    """factor_correlation against the lower triangle of scipy's cho_factor."""

    @staticmethod
    def assert_matches_cho_factor(R):
        before = R.copy()
        c = factor_correlation(R, 1e-8)
        c_ref, _ = cho_factor(R, lower=True)
        assert isinstance(c, np.ndarray)
        np.testing.assert_array_equal(np.tril(c), np.tril(c_ref))
        np.testing.assert_array_equal(R, before)

    def test_kernel_matrix_at_benchmark_size(self):
        designs = [gen_sinusoid(s, 81) for s in sample_designs(58, seed=0)]
        F = design_feature_rows(designs, "sped")
        # weights that put the mean kernel exponent near 1, as a fit starts
        z = 1.0 / (F.shape[1] * sq_differences(F, F).mean(axis=(0, 1)))
        R = correlation_with_nugget(sq_differences(F, F), z, 1e-8)
        assert R.shape == (58, 58)
        self.assert_matches_cho_factor(R)

    @pytest.mark.parametrize("n", [1, 7, 58])
    def test_spd_matrices(self, n):
        self.assert_matches_cho_factor(spd_matrix(np.random.default_rng(n), n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_numerical_error(self, bad):
        R = spd_matrix(np.random.default_rng(4), 5)
        R[3, 1] = R[1, 3] = bad
        with pytest.raises(NumericalError, match="not finite"):
            factor_correlation(R, 1e-8)

    def test_reads_the_lower_triangle(self):
        # an upper triangle off by rounding changes neither factor
        R = spd_matrix(np.random.default_rng(3), 9)
        upper = np.triu_indices(9, 1)
        R[upper] *= 1.0 + 1e-15
        self.assert_matches_cho_factor(R)


class TestCholeskyTriangle:
    """cholesky reads A's upper triangle, whatever A's memory order."""

    @pytest.mark.parametrize("n", [5, 9, 41])
    def test_memory_order_does_not_decide_the_triangle(self, n):
        # A is SPD above its diagonal and perturbed below it, so a factor
        # of the other triangle would differ in its bits
        rng = np.random.default_rng(n)
        A = spd_matrix(rng, n)
        A[np.tril_indices(n, -1)] += rng.uniform(-0.1, 0.1, n * (n - 1) // 2)
        copies = [A.copy(order="C"), A.copy(order="F"), np.asfortranarray(A).copy(order="K")]
        assert [c.flags.f_contiguous for c in copies] == [False, True, True]
        factors = [cholesky(c) for c in copies]
        for c in factors[1:]:
            np.testing.assert_array_equal(c, factors[0])
        mirrored = np.triu(A) + np.triu(A, 1).T
        c_ref, _ = cho_factor(mirrored, lower=True)
        np.testing.assert_array_equal(np.tril(factors[0]), np.tril(c_ref))


class TestSolveFactored:
    @pytest.mark.parametrize("n", [1, 7, 58])
    def test_bit_identical_to_cho_solve(self, n):
        rng = np.random.default_rng(n)
        c = spd_factor(rng, n)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
            got, want = solve_factored(c, b), cho_solve((c, True), b)
            np.testing.assert_array_equal(got, want)
            assert got.shape == want.shape
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_leaves_inputs_untouched(self):
        rng = np.random.default_rng(1)
        c = spd_factor(rng, 6)
        c_before, b = c.copy(), rng.standard_normal((6, 2))
        before = b.copy()
        solve_factored(c, b)
        np.testing.assert_array_equal(b, before)
        np.testing.assert_array_equal(c, c_before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises_numerical_error(self, bad):
        rng = np.random.default_rng(2)
        c = spd_factor(rng, 5)
        b = rng.standard_normal(5)
        b[3] = bad
        with pytest.raises(NumericalError, match="not finite"):
            solve_factored(c, b)
        # the whole matrix is tested, not one row or column of it
        for shape, at in (((5, 4), (1, 2)), ((5, 4), (0, 0)), ((5, 4), (4, 3)),
                          ((5, 1), (4, 0))):
            B = rng.standard_normal(shape)
            B[at] = bad
            with pytest.raises(NumericalError, match="not finite"):
                solve_factored(c, B)

    def test_no_module_imports_cho_solve(self):
        # every Cholesky solve of the package goes through solve_factored
        offenders = name_references({"cho_solve"})
        assert not offenders, f"cho_solve used outside solve_factored: {offenders}"


def name_references(banned):
    """'path:line name' for each reference to a name in banned under src/spedgp:
    an imported name, the module of a from-import, an attribute or a name."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
                if isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}"
                          for name in sorted(names & banned)]
    return offenders


def test_no_module_references_cho_factor():
    # every factorization of the package goes through spectral.cholesky
    offenders = name_references({"cho_factor"})
    assert not offenders, f"cho_factor used outside cholesky: {offenders}"


def test_packed_weights_are_the_one_parameter_form():
    # no second kernel-parameter object, and no model.params alias of z
    offenders = name_references({"KernelParams", "params"})
    assert not offenders, f"kernel parameters outside packed z: {offenders}"


class TestCheckWeights:
    def test_returns_float_weights(self):
        z = check_weights([0, 1, 2.5], 3)
        assert z.dtype == float
        np.testing.assert_array_equal(z, [0.0, 1.0, 2.5])

    @pytest.mark.parametrize("z,nz", [
        (np.ones(3), 4), (np.ones(5), 4), (np.ones((2, 2)), 4), (1.0, 1)],
        ids=["short", "long", "matrix", "scalar"])
    def test_shape_rejected(self, z, nz):
        with pytest.raises(InvalidInputError, match="kernel weights: shape"):
            check_weights(z, nz)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_negative_or_non_finite_rejected(self, bad, k):
        z = np.ones(4)
        z[k] = bad
        with pytest.raises(InvalidInputError, match="kernel weights must be finite"):
            check_weights(z, 4)


def column_stacked_rows(designs, family):
    """Feature rows built a whole list at a time, as one array per column."""
    if family == "feature_based":
        return np.array([dsn.features for dsn in designs])
    if family == "sped":
        F = np.array([dft_modulus(dsn.curve) for dsn in designs])
    else:
        p = designs[0].p
        F = np.array([dsn.curve for dsn in designs]) * np.sqrt(STRUCTURE_SPAN / (p - 1))
    return np.column_stack([F, [dsn.diameter for dsn in designs]])


@pytest.mark.parametrize("family", FAMILIES)
def test_single_design_row_is_its_list_row_bit_for_bit(family):
    rng = np.random.default_rng(11)
    designs = [StructureDesign(rng.uniform(0.2, 2.0), rng.standard_normal(81),
                               features=rng.uniform(0.1, 1.0, 4)) for _ in range(7)]
    F = design_feature_rows(designs, family)
    np.testing.assert_array_equal(F, column_stacked_rows(designs, family))
    for i, dsn in enumerate(designs):
        row = design_feature_row(dsn, family)
        assert row.shape == F[i].shape
        np.testing.assert_array_equal(row, F[i])
