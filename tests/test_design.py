import numpy as np
import pytest

from spedgp import DESIGN_BOX, InvalidInputError, SinusoidSpec, gen_sinusoid, sample_designs
from spedgp.spectral import structure_times


class TestSinusoidSpec:
    def test_box_validation(self):
        SinusoidSpec(1.0, 0.5, 0.4, 3.0)
        with pytest.raises(InvalidInputError):
            SinusoidSpec(0.1, 0.5, 0.4, 3.0)
        with pytest.raises(InvalidInputError):
            SinusoidSpec(1.0, 1.5, 0.4, 3.0)
        with pytest.raises(InvalidInputError):
            SinusoidSpec(1.0, 0.5, 0.9, 3.0)
        with pytest.raises(InvalidInputError):
            SinusoidSpec(1.0, 0.5, 0.4, 7.0)
        # a NaN fails every comparison with the box, so only the finiteness
        # test rejects it
        for k in range(4):
            for bad in (np.nan, np.inf, -np.inf):
                values = [1.0, 0.5, 0.4, 3.0]
                values[k] = bad
                with pytest.raises(InvalidInputError, match="outside the design box"):
                    SinusoidSpec(*values)

    def test_as_array_order(self):
        s = SinusoidSpec(1.0, 0.5, 0.4, 3.0)
        np.testing.assert_array_equal(s.as_array(), [1.0, 0.5, 0.4, 3.0])


class TestGenSinusoid:
    def test_curve_formula(self):
        s = SinusoidSpec(1.3, 0.7, 0.3, 1.1)
        dsn = gen_sinusoid(s, 21)
        t = structure_times(21)
        np.testing.assert_allclose(dsn.curve,
                                   0.7 * np.sin(2 * np.pi * 0.3 * t + 1.1),
                                   rtol=1e-12)
        assert dsn.diameter == 1.3
        np.testing.assert_array_equal(dsn.features, s.as_array())

    def test_one_period_hits_zero_at_both_ends(self):
        # omega = 1/20 mm^-1 puts exactly one period on the 20 mm span
        s = SinusoidSpec(1.0, 1.0, 0.05, 0.0)
        dsn = gen_sinusoid(s, 81)
        assert dsn.curve[0] == pytest.approx(0.0, abs=1e-12)
        assert dsn.curve[-1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_amplitude_gives_flat_curve(self):
        s = SinusoidSpec(1.0, 0.0, 0.4, 2.0)
        np.testing.assert_array_equal(gen_sinusoid(s, 9).curve, np.zeros(9))

class TestSampleDesigns:
    def test_deterministic(self):
        a = sample_designs(12, seed=9)
        b = sample_designs(12, seed=9)
        assert all((x.d, x.A, x.omega, x.phi) == (y.d, y.A, y.omega, y.phi)
                   for x, y in zip(a, b))

    def test_seed_changes_sample(self):
        a = sample_designs(12, seed=9)
        b = sample_designs(12, seed=10)
        assert any(x.d != y.d for x, y in zip(a, b))

    def test_lhs_projections_stratified(self):
        n = 16
        specs = sample_designs(n, seed=2, scheme="lhs")
        for key, (lo, hi) in DESIGN_BOX.items():
            u = np.array([getattr(s, key) for s in specs])
            bins = np.floor((u - lo) / (hi - lo) * n).astype(int)
            assert sorted(bins) == list(range(n))

    def test_sobol_inside_box(self):
        specs = sample_designs(18, seed=3, scheme="sobol")
        assert len(specs) == 18
        for s in specs:
            assert DESIGN_BOX["d"][0] <= s.d <= DESIGN_BOX["d"][1]
            assert DESIGN_BOX["omega"][0] <= s.omega <= DESIGN_BOX["omega"][1]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidInputError, match="scheme"):
            sample_designs(4, seed=0, scheme="halton")

    def test_nonpositive_n_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_designs(0, seed=0)
        for n in (2.5, True, "3"):
            with pytest.raises(InvalidInputError, match="must be integers"):
                sample_designs(n, seed=0)

    @pytest.mark.parametrize("scheme", ["lhs", "sobol"])
    def test_negative_seed_rejected(self, scheme):
        with pytest.raises(InvalidInputError, match="seed must be nonnegative"):
            sample_designs(4, seed=-1, scheme=scheme)
        for seed in (1.5, True, None):
            with pytest.raises(InvalidInputError, match="must be integers"):
                sample_designs(3, seed=seed, scheme=scheme)

