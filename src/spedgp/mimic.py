"""Inverse design: find the structure whose predicted response mimics a target.

The search runs over fiber diameter plus the modulus coordinates the
fitted kernel actually uses (theta_k > 0); inert coordinates are pinned
to zero and cannot influence the objective, which collapses the search
space from 1 + (p-1)/2 + 1 variables to a handful. The objective is the
expected squared log-stress mismatch under the predictive normal,

    E ||y - y*||^2 = ||yhat - y*||^2 + v(x) tr(Sigma),

minimized by multi-start bound-constrained quasi-Newton with an analytic
gradient. The search runs in whitened coordinates u = s * x, with
s = sqrt(z) on the searched columns x = (d, moduli on the active set):
there the kernel is isotropic, exp(-||u - G_i||^2) with G = F[:, cols] * s,
so the quasi-Newton steps see no spread of weights (they span orders of
magnitude in x), and an evaluation touches only the searched columns.
Boxes, start points and results are in x. Phases are not part of the
search: any curve with the optimal moduli is equally optimal, and the
reported curve is the zero-phase representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .cokrige import Prediction, TrainedEmulator, log_stress, predict_from_point
from .design import DESIGN_BOX
from .exceptions import InvalidInputError
from .spectral import (correlation_from_features, half_size, kernel,
                       solve_factored, sq_differences)

COEF_BOUND_FACTOR = 1.5


@dataclass
class MimicProblem:
    """Frozen search setup: model, log-space target, active set, boxes.

    The boxes are derived: the diameter searches the design box's
    ``DESIGN_BOX["d"]``, and each active modulus coordinate runs from 0 to
    COEF_BOUND_FACTOR x its largest training value. The constants of the
    objective that do not depend on the candidate are computed here, once
    per search: tr(Sigma), the searched feature columns ``cols`` (diameter
    first), their kernel scales s = sqrt(z[cols]) and the training rows in
    whitened coordinates, G = F[:, cols] * s.
    """

    model: TrainedEmulator
    target_log: np.ndarray
    active_set: np.ndarray
    d_bounds: tuple = field(init=False)
    coef_bounds: np.ndarray = field(init=False)  # (n_active, 2) rows [lo, hi]

    def __post_init__(self):
        self.target_log = np.asarray(self.target_log, dtype=float)
        if self.target_log.shape != (self.model.m,):
            raise InvalidInputError("target length does not match the model grid")
        self.active_set = np.asarray(self.active_set, dtype=int)
        if self.active_set.size == 0:
            raise InvalidInputError(
                "every spectral weight is zero; mimicking degenerates to "
                "diameter-only and is not supported")
        self.d_bounds = DESIGN_BOX["d"]
        top = COEF_BOUND_FACTOR * self.model.F[:, self.active_set].max(axis=0)
        self.coef_bounds = np.column_stack([np.zeros(self.active_set.size), top])
        # x = (d, moduli on the active set) sits in feature columns cols
        self.cols = np.concatenate([[-1], self.active_set])
        self.tr_sigma = float(np.trace(self.model.Sigma))
        self.s = np.sqrt(self.model.z[self.cols])
        self.G = self.model.F[:, self.cols] * self.s
        self.unit_weights = np.ones(self.cols.size)

    def box(self):
        """Lower and upper bounds of x = (d, moduli on the active set)."""
        lo = np.concatenate([[self.d_bounds[0]], self.coef_bounds[:, 0]])
        hi = np.concatenate([[self.d_bounds[1]], self.coef_bounds[:, 1]])
        return lo, hi


def build_problem(model: TrainedEmulator, target_strain, target_stress) -> MimicProblem:
    """Log-transform and regrid the target, freeze the active set and boxes.

    The target may be tabulated on its own strain levels; it is linearly
    interpolated onto the model grid, which must lie inside the target's
    span. The active set is the fitted theta's support; the boxes are
    derived as in :class:`MimicProblem`.
    """
    if model.data.family != "sped":
        raise InvalidInputError(
            "inverse design searches modulus spectra and needs a model "
            f"with the sped kernel family, not {model.data.family!r}")
    target_strain = np.asarray(target_strain, dtype=float)
    target_stress = np.asarray(target_stress, dtype=float)
    if target_strain.shape != target_stress.shape or target_strain.ndim != 1:
        raise InvalidInputError("target strain and stress must be equal-length vectors")
    if np.any(target_stress <= 0):
        raise InvalidInputError("target stresses must be positive")
    if target_strain[0] > model.grid[0] or target_strain[-1] < model.grid[-1]:
        raise InvalidInputError("target strain range does not cover the model grid")
    on_grid = np.interp(model.grid, target_strain, target_stress)
    return MimicProblem(model=model, target_log=log_stress(on_grid),
                        active_set=np.flatnonzero(model.data.unpack(model.z)[0] > 0))


def _objective_and_grad(u, problem: MimicProblem):
    """Expected squared mismatch at whitened u = s * x, and its gradient in u."""
    model = problem.model
    r = correlation_from_features(problem.G, u, problem.unit_weights)
    alpha = solve_factored(model.chol_R, r)
    mean = model.mu + model.resid.T @ alpha
    v = 1.0 - float(r @ alpha)
    g_m = mean - problem.target_log
    tr_sigma = problem.tr_sigma
    fval = float(g_m @ g_m + max(v, 0.0) * tr_sigma)
    # d obj / d r, then chain through dr_i/du_k = -2 (u_k - G_ik) r_i
    w = 2.0 * solve_factored(model.chol_R, model.resid @ g_m) - 2.0 * tr_sigma * alpha
    t = w * r
    grad = -2.0 * (u * float(t.sum()) - t @ problem.G)
    return fval, grad


def mse_objective(model: TrainedEmulator, target, d: float, spectrum_active,
                  active_set=None) -> float:
    """Expected squared log-stress mismatch at one candidate point.

    E ||y - y*||^2 = ||yhat - y*||^2 + v tr(Sigma). ``target`` is already
    in log space on the model grid. The candidate is a diameter plus the
    modulus values on the active set (defaults to the fitted theta's
    support); inert coordinates are zero and drop out of the kernel.
    """
    spectrum_active = np.asarray(spectrum_active, dtype=float)
    if np.any(spectrum_active < 0) or not np.all(np.isfinite(spectrum_active)):
        raise InvalidInputError("moduli must be finite and nonnegative")
    if not np.isfinite(d) or d <= 0:
        raise InvalidInputError("diameter must be positive")
    if active_set is None:
        active_set = np.flatnonzero(model.data.unpack(model.z)[0] > 0)
    problem = MimicProblem(model=model, target_log=target, active_set=active_set)
    x = np.concatenate([[d], spectrum_active])
    return _objective_and_grad(problem.s * x, problem)[0]


@dataclass
class MimicResult:
    """Best design found: diameter, sparse spectrum, curve, diagnostics."""

    diameter: float
    spectrum: np.ndarray
    reconstructed_curve: np.ndarray
    objective: float
    predicted: Prediction
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "diameter": self.diameter,
            "spectrum": self.spectrum.tolist(),
            "objective": self.objective,
            "trace": self.trace,
        }


def _start_points(problem: MimicProblem, starts: int, seed: int) -> np.ndarray:
    """Latin hypercube starts in the x box, plus the best training design."""
    lo, hi = problem.box()
    unit = qmc.LatinHypercube(d=lo.size, seed=seed).random(starts)
    points = lo + unit * (hi - lo)
    # add the best training design as an incumbent start (clipped into the box)
    best, best_x = np.inf, None
    for row in problem.model.F[:, problem.cols]:
        xj = np.clip(row, lo, hi)
        fj, _ = _objective_and_grad(problem.s * xj, problem)
        if fj < best:
            best, best_x = fj, xj
    return np.vstack([points, best_x])


def optimize(problem: MimicProblem, starts: int = 32, seed: int = 0) -> MimicResult:
    """Multi-start quasi-Newton search; the lowest objective wins.

    Each start x0 is searched from u0 = s * x0 in the box scaled alike,
    and the winner is mapped back as x = clip(u / s) into the x box. A
    coordinate with zero weight (s = 0, only the diameter can have it)
    cannot change the objective and keeps its start's value. Every
    start's initial objective bounds the result from above, so the
    returned objective also beats the best training design's own point
    (it is injected as an extra start).
    """
    if starts < 1:
        raise InvalidInputError("need at least one start")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    model = problem.model
    args = (problem,)
    s = problem.s
    lo, hi = problem.box()
    bounds = list(zip(lo * s, hi * s))
    trace = []
    candidates = []
    for k, x0 in enumerate(_start_points(problem, starts, seed)):
        u0 = s * x0
        f0, _ = _objective_and_grad(u0, *args)
        try:
            res = minimize(_objective_and_grad, u0, args=args, jac=True,
                           method="L-BFGS-B", bounds=bounds,
                           options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-10})
            fk, uk = float(res.fun), res.x
            ok = bool(np.isfinite(fk))
        except FloatingPointError:
            fk, uk, ok = np.inf, u0, False
        if not ok or fk > f0:
            fk, uk = f0, u0  # keep the start; descent must never regress
        trace.append({"start": k, "initial_objective": float(f0),
                      "final_objective": float(fk)})
        candidates.append((fk, k, uk, x0))
    objective, _, u_best, x_best = min(candidates, key=lambda c: (c[0], c[1]))
    live = s > 0
    x_best = x_best.copy()
    x_best[live] = np.clip(u_best[live] / s[live], lo[live], hi[live])
    # the prediction the objective was scored on; the kernel is called
    # directly so that correlation_from_features counts evaluations only
    pred = predict_from_point(
        model, kernel(sq_differences(problem.G, u_best), problem.unit_weights))
    spectrum = np.zeros(half_size(model.p))
    spectrum[problem.active_set] = x_best[1:]
    return MimicResult(
        diameter=float(x_best[0]), spectrum=spectrum,
        reconstructed_curve=reconstruct_structure(spectrum, model.p),
        objective=objective, predicted=pred, trace=trace)


def reconstruct_structure(spectrum, p: int) -> np.ndarray:
    """Zero-phase curve with the requested DFT moduli.

    Conjugate-symmetric completion of nonnegative real coefficients:
    x_l = (s_0 + 2 sum_k s_k cos(2 pi k l / p)) / p, whose modulus
    spectrum is the input exactly.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    h = half_size(p)
    if spectrum.shape != (h,):
        raise InvalidInputError(f"spectrum must have length {h} for p={p}")
    if np.any(spectrum < 0) or not np.all(np.isfinite(spectrum)):
        raise InvalidInputError("moduli must be finite and nonnegative")
    l = np.arange(p)
    k = np.arange(1, h)
    phases = np.cos(2.0 * np.pi * np.outer(l, k) / p)
    return (spectrum[0] + 2.0 * (phases @ spectrum[1:])) / p
