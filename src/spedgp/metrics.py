"""Evaluation metrics: relative error, tangent moduli, test-set reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cokrige import hpd_interval, log_stress, predict, unlog_stress
from .exceptions import InvalidInputError, check_array

STIFFENING = "stiffening"
SOFTENING = "softening"
#: HPD band level of :func:`evaluate`'s coverage test
LEVEL = 0.9


def mare(truth, pred) -> float:
    """Mean absolute relative error sum|O - Ohat| / sum|O|.

    Both sums carry the same uniform grid weight, so it cancels.
    """
    truth = check_array("truth", truth, (None,))
    pred = check_array("pred", pred, truth.shape)
    denom = float(np.sum(np.abs(truth)))
    if denom == 0.0:
        raise InvalidInputError("MARE undefined for an identically zero truth")
    return float(np.sum(np.abs(truth - pred)) / denom)


def moduli_and_kappa(curve, grid):
    """Tangent moduli at 1% and 9% strain, curvature, and the class label.

    E_k is the central finite difference at the grid point nearest k%,
    kappa = (E9 - E1) / 0.08, label "stiffening" when kappa > 0 else
    "softening". Returns (E1, E9, kappa, label).
    """
    grid = check_array("grid", grid, (None,))
    curve = check_array("curve", curve, grid.shape)
    if grid[0] > 0.01 or grid[-1] < 0.09:
        raise InvalidInputError("strain grid must span [1%, 9%]")
    moduli = []
    for level in (0.01, 0.09):
        i = int(np.argmin(np.abs(grid - level)))
        if i == 0 or i == grid.size - 1:
            raise InvalidInputError(
                f"grid too coarse near {level:.0%} for a central difference")
        moduli.append((curve[i + 1] - curve[i - 1]) / (grid[i + 1] - grid[i - 1]))
    e1, e9 = float(moduli[0]), float(moduli[1])
    kappa = (e9 - e1) / 0.08
    return e1, e9, kappa, STIFFENING if kappa > 0 else SOFTENING


@dataclass
class MetricsReport:
    """Per-case rows plus aggregate summary of a test-set evaluation."""

    per_case: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"per_case": self.per_case, "summary": self.summary}


def evaluate(model, test) -> MetricsReport:
    """Score a fitted emulator against a held-out dataset.

    Per case: back-transformed MARE, true and predicted (E1, E9, kappa,
    label), and whether the pointwise HPD band at LEVEL covers the
    whole true curve. Summary: median and mean MARE, classification
    accuracy, band coverage fraction (the share of whole curves covered)
    and pointwise coverage (the share of (design, strain level) cells
    inside the band).
    """
    if (test.grid.shape != model.grid.shape
            or not np.allclose(test.grid, model.grid, rtol=1e-12, atol=0.0)):
        raise InvalidInputError("test grid does not match the model's strain grid")
    report = MetricsReport()
    mares, matches, covered_flags, inside_cells = [], [], [], 0
    for i, design in enumerate(test.designs):
        truth = test.responses[i]
        pred = predict(model, design)
        mean_stress = unlog_stress(pred.mean)
        err = mare(truth, mean_stress)
        lo, hi = hpd_interval(pred, LEVEL)
        y_log = log_stress(truth)
        inside = (y_log >= lo) & (y_log <= hi)
        inside_cells += int(np.count_nonzero(inside))
        covered = bool(inside.all())
        te1, te9, tk, tlabel = moduli_and_kappa(truth, model.grid)
        pe1, pe9, pk, plabel = moduli_and_kappa(mean_stress, model.grid)
        mares.append(err)
        matches.append(tlabel == plabel)
        covered_flags.append(covered)
        report.per_case.append({
            "case": i,
            "mare": err,
            "E1_true": te1, "E9_true": te9, "kappa_true": tk, "label_true": tlabel,
            "E1_pred": pe1, "E9_pred": pe9, "kappa_pred": pk, "label_pred": plabel,
            "label_match": bool(tlabel == plabel),
            "covered": covered,
        })
    if not mares:
        raise InvalidInputError("test dataset is empty")
    report.summary = {
        "n_cases": len(mares),
        "median_mare": float(np.median(mares)),
        "mean_mare": float(np.mean(mares)),
        "classification_accuracy": float(np.mean(matches)),
        "classification_correct": int(np.sum(matches)),
        "coverage_fraction": float(np.mean(covered_flags)),
        "covered_cases": int(np.sum(covered_flags)),
        "pointwise_coverage": inside_cells / (len(mares) * model.grid.size),
        "level": LEVEL,
    }
    return report
