import logging

import numpy as np
import pytest

from spedgp import Dataset, FitConfig, InvalidInputError, fit, mare, moduli_and_kappa
from spedgp.cokrige import default_strain_grid
from spedgp.design import gen_sinusoid, sample_designs
from spedgp.estimate import CARRIED_RATIO
from spedgp.metrics import SOFTENING, STIFFENING, evaluate
from spedgp.oracle import synthetic_oracle


class TestMare:
    def test_identical_curves_score_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mare(y, y) == 0.0

    def test_hand_example(self):
        assert mare([1.0, 1.0], [1.0, 2.0]) == pytest.approx(0.5)

    def test_doubling_scores_one(self):
        y = np.array([0.5, 1.5, 2.5])
        assert mare(y, 2 * y) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(InvalidInputError, match="zero truth"):
            mare(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="grid"):
            mare(np.ones(3), np.ones(4))


class TestModuliAndKappa:
    def test_quadratic_curve_exact(self):
        # On s^2 the central difference is exact: E(s) = 2 a s.
        grid = np.linspace(0.0, 0.1, 21)  # contains 0.01 and 0.09 exactly
        a = 3.0
        curve = a * grid ** 2
        e1, e9, kappa, label = moduli_and_kappa(curve, grid)
        assert e1 == pytest.approx(2 * a * 0.01, rel=1e-12)
        assert e9 == pytest.approx(2 * a * 0.09, rel=1e-12)
        assert kappa == pytest.approx(2 * a * 0.08 / 0.08, rel=1e-12)
        assert label == STIFFENING

    def test_square_root_curve_softens(self):
        grid = np.linspace(0.005, 0.15, 30)
        curve = 2.0 * np.sqrt(grid)
        *_, kappa, label = moduli_and_kappa(curve, grid)
        assert kappa < 0
        assert label == SOFTENING

    def test_linear_curve_is_softening_by_convention(self):
        grid = np.linspace(0.0, 0.1, 21)
        *_, kappa, label = moduli_and_kappa(5.0 * grid, grid)
        assert kappa == pytest.approx(0.0, abs=1e-10)
        assert label == SOFTENING

    def test_default_grid_power_law_within_one_percent(self):
        grid = default_strain_grid()
        a, b = 2.0, 1.3
        curve = a * grid ** b
        e1, e9, _, _ = moduli_and_kappa(curve, grid)
        for level, est in ((0.01, e1), (0.09, e9)):
            i = int(np.argmin(np.abs(grid - level)))
            true = a * b * grid[i] ** (b - 1)
            assert est == pytest.approx(true, rel=0.01)

    def test_grid_not_spanning_rejected(self):
        grid = np.linspace(0.02, 0.15, 10)
        with pytest.raises(InvalidInputError, match="span"):
            moduli_and_kappa(np.ones(10), grid)

    def test_coarse_grid_rejected(self):
        grid = np.array([0.01, 0.05, 0.09])
        with pytest.raises(InvalidInputError, match="central difference"):
            moduli_and_kappa(np.ones(3), grid)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="equal length"):
            moduli_and_kappa(np.ones(5), np.linspace(0.005, 0.1, 6))


@pytest.fixture(scope="module")
def nine_design_case():
    p = 21
    grid = default_strain_grid()
    specs = sample_designs(12, seed=11)
    designs = [gen_sinusoid(s, p) for s in specs]
    Y = np.array([synthetic_oracle(d, grid) for d in designs])
    train = Dataset(designs=designs[:9], responses=Y[:9], grid=grid)
    test = Dataset(designs=designs[9:], responses=Y[9:], grid=grid)
    return train, test


NINE_DESIGN_CONFIG = FitConfig(lambda_I=1.0, lambda_o=0.5, restarts=2, seed=0)


@pytest.fixture(scope="module")
def nine_design_fit(nine_design_case):
    """The fit of the 9-design case, with the warnings it logs."""
    train, _ = nine_design_case
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    estimate_log = logging.getLogger("spedgp.estimate")
    estimate_log.addHandler(handler)
    try:
        model, trace = fit(train, NINE_DESIGN_CONFIG)
    finally:
        estimate_log.removeHandler(handler)
    return model, trace, records


@pytest.fixture(scope="module")
def model_and_test(nine_design_case, nine_design_fit):
    model, _, _ = nine_design_fit
    return model, nine_design_case[1]


class TestEvaluate:

    def test_report_shape(self, model_and_test):
        model, test = model_and_test
        rep = evaluate(model, test)
        assert rep.summary["n_cases"] == 3
        assert len(rep.per_case) == 3
        for row in rep.per_case:
            assert row["mare"] >= 0
            assert row["label_true"] in (STIFFENING, SOFTENING)
            assert isinstance(row["covered"], bool)
        assert 0 <= rep.summary["coverage_fraction"] <= 1
        assert rep.summary["classification_correct"] <= 3
        assert rep.summary["level"] == 0.9

    def test_self_evaluation_is_near_perfect(self, model_and_test):
        model, _ = model_and_test
        train_ds = Dataset(designs=model.data.designs,
                           responses=np.exp(model.data.Y), grid=model.grid)
        rep = evaluate(model, train_ds)
        assert rep.summary["median_mare"] < 1e-3
        assert rep.summary["classification_accuracy"] == 1.0

    def test_grid_mismatch_rejected(self, model_and_test):
        model, test = model_and_test
        bad = Dataset(designs=test.designs, responses=test.responses,
                      grid=test.grid * 0.5)
        with pytest.raises(InvalidInputError, match="grid"):
            evaluate(model, bad)

    def test_grid_of_another_length_rejected(self, model_and_test):
        model, test = model_and_test
        short = Dataset(designs=test.designs, responses=test.responses[:, :-1],
                        grid=test.grid[:-1])
        with pytest.raises(InvalidInputError,
                           match="test grid does not match the model's strain grid"):
            evaluate(model, short)

    def test_to_dict_round_trip(self, model_and_test):
        model, test = model_and_test
        doc = evaluate(model, test).to_dict()
        assert set(doc) == {"per_case", "summary"}


class TestNuggetFlag:

    def test_fit_passes_over_carried_restart(self, nine_design_fit):
        # m = 41 > n = 9: restart 1 falls to the nugget floor and reaches
        # the lower objective; restart 0 is the one the kernel determines
        _, trace, records = nine_design_fit
        assert all("nugget_share" in rec for rec in trace.restarts)
        carried = [r for r, rec in enumerate(trace.restarts)
                   if rec["nugget_carried"]]
        assert carried and len(carried) < len(trace.restarts)
        best = trace.restarts[trace.best_index]
        assert best["nugget_carried"] is False
        assert best["nugget_share_ratio"] <= CARRIED_RATIO
        assert all(trace.restarts[r]["final_objective"]
                   < best["final_objective"] for r in carried)
        flagged = [rec for rec in records
                   if "only because the nugget carries them"
                   in rec.getMessage()]
        assert len(flagged) == 1
