"""Inverse design: find the structure whose predicted response mimics a target.

The search runs over fiber diameter plus the modulus coordinates the
fitted kernel actually uses (theta_k > 0); inert coordinates are pinned
to zero and cannot influence the objective, which collapses the search
space from 1 + (p-1)/2 + 1 variables to a handful. The objective is the
expected squared log-stress mismatch under the predictive normal,

    E ||y - y*||^2 = ||yhat - y*||^2 + v(x) tr(Sigma),

minimized from many starts by projected BFGS with an analytic gradient.
The search runs in whitened coordinates u = s * x, with s = sqrt(z) on
the searched columns x = (d, moduli on the active set): there the kernel
is isotropic, exp(-||u - G_i||^2) with G = F[:, cols] * s, so the
quasi-Newton steps see no spread of weights (they span orders of
magnitude in x), and an evaluation touches only the searched columns.
The starts advance in lockstep: each step evaluates every pending
start's trial point in one batched objective call, one n x S kernel
block and one Cholesky solve with S right-hand sides. A round keeps the
state of the live starts only, and solves a bound block only for the
starts with a coordinate held at a bound; on the benchmark model a
round costs about 95 us with one live start and 215 us averaged over
a 33-start search (1 BLAS thread, 2-vCPU VM; measured as README says).
A start stops on L-BFGS-B's reduction test at L-BFGS-B's default
tolerance: a step that lowers the objective by at most
F_TOL max(|f|, |f+|, 1), with F_TOL = factr eps = 1e7 eps = 2.2e-9
(Zhu, Byrd, Lu and Nocedal 1997, ACM TOMS 23(4)); :func:`_search`
lists the other stops.
Boxes, start points and results are in x. Phases are not part of the
search: any curve with the optimal moduli is equally optimal, and the
reported curve is the zero-phase representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .cokrige import Prediction, TrainedEmulator, log_stress, predict_from_point
from .dataio import check_increasing
from .design import DESIGN_BOX
from .exceptions import InvalidInputError, check_array, check_count, check_rate
from .spectral import (check_curve_length, correlation_from_features, half_size,
                       kernel, solve_factored, sq_differences)

COEF_BOUND_FACTOR = 1.5
MAX_ITER = 200
# backtracking trials per step, as L-BFGS-B's maxls
MAX_TRIALS = 20
PG_TOL = 1e-10  # projected-gradient inf-norm
# relative reduction of the objective: L-BFGS-B's default factr = 1e7, in eps
F_TOL = 1e7 * np.finfo(float).eps
ARMIJO = 1e-4
STOPS = np.array(["line search", "gradient", "reduction", "iterations"], dtype=object)


@dataclass
class MimicProblem:
    """Frozen search setup: model, log-space target, active set, box.

    The active set is a vector of distinct spectral indices: integers, not
    bools or floats, from 0 to below the diameter's column nz - 1.
    The box [lo, hi] of x = (d, moduli on the active set) is derived: the
    diameter searches the design box's ``DESIGN_BOX["d"]``, and each active
    modulus coordinate runs from 0 to COEF_BOUND_FACTOR x its largest
    training value. The constants of the objective that do not depend on
    the candidate are computed here, once per search: tr(Sigma), the
    searched feature columns ``cols`` (diameter first), their kernel scales
    s = sqrt(z[cols]), the training rows in whitened coordinates,
    G = F[:, cols] * s, and Q2T = 2 (R^-1 resid)', which turns the gradient's
    second solve into a product; the gradient's factor 2 is exact in it.
    """

    model: TrainedEmulator
    target_log: np.ndarray
    active_set: np.ndarray

    def __post_init__(self):
        data = self.model.data
        self.target_log = check_array("target_log", self.target_log, (data.m,))
        check_array("active set", self.active_set, (None,))
        active = np.array([check_count("active set index", k, 0) for k in self.active_set],
                          dtype=int)
        if active.size == 0:
            raise InvalidInputError(
                "every spectral weight is zero; mimicking degenerates to "
                "diameter-only and is not supported")
        if active.max() >= data.nz - 1 or np.unique(active).size < active.size:
            raise InvalidInputError(f"active set must hold distinct spectral indices "
                                    f"below {data.nz - 1}, got {active.tolist()}")
        self.active_set = active
        d_lo, d_hi = DESIGN_BOX["d"]
        top = COEF_BOUND_FACTOR * data.F[:, self.active_set].max(axis=0)
        self.lo = np.concatenate([[d_lo], np.zeros(self.active_set.size)])
        self.hi = np.concatenate([[d_hi], top])
        # x = (d, moduli on the active set) sits in feature columns cols
        self.cols = np.concatenate([[-1], self.active_set])
        self.tr_sigma = float(np.trace(self.model.Sigma))
        self.s = np.sqrt(self.model.z[self.cols])
        self.G = data.F[:, self.cols] * self.s
        self.unit_weights = np.ones(self.cols.size)
        self.Q2T = 2.0 * solve_factored(self.model.chol_R, self.model.resid).T


def build_problem(model: TrainedEmulator, target_strain, target_stress) -> MimicProblem:
    """Log-transform and regrid the target, freeze the active set and box.

    The target may be tabulated on its own strictly increasing strain
    levels; it is linearly interpolated onto the model grid, which must lie
    inside the target's span. The active set is the fitted theta's support;
    the box is derived as in :class:`MimicProblem`.
    """
    if model.data.family != "sped":
        raise InvalidInputError(
            "inverse design searches modulus spectra and needs a model "
            f"with the sped kernel family, not {model.data.family!r}")
    target_strain = check_array("target strain", target_strain, (None,))
    target_stress = check_array("target stress", target_stress, target_strain.shape)
    if np.any(target_stress <= 0):
        raise InvalidInputError("target stresses must be positive")
    check_increasing(target_strain)
    if target_strain[0] > model.grid[0] or target_strain[-1] < model.grid[-1]:
        raise InvalidInputError("target strain range does not cover the model grid")
    on_grid = np.interp(model.grid, target_strain, target_stress)
    return MimicProblem(model=model, target_log=log_stress(on_grid),
                        active_set=np.flatnonzero(model.data.unpack(model.z)[0] > 0))


def _objective_and_grad(U, problem: MimicProblem):
    """Expected squared mismatch at whitened points U = s * x, and its gradient in u.

    U is an (S, k) block of points; the objectives have shape (S,) and the
    gradients (S, k). The block costs one n x S kernel call and one
    Cholesky solve with S right-hand sides. Row dot products here and in
    the search are np.vecdot, the BLAS dot of a single prediction's
    ``r @ alpha``: v = 1 - r'alpha cancels to ~1e-8 near the training rows,
    where another summation order moves the objective at 1e-9 relative.
    The kernel's matrix-vector product and ``alpha @ resid`` still group
    rows, so a row's objective depends on its block at rounding level
    (6e-11 relative on the benchmark model).
    """
    model = problem.model
    r = correlation_from_features(problem.G, U, problem.unit_weights)
    alpha = solve_factored(model.chol_R, r)
    r, alpha = np.ascontiguousarray(r.T), np.ascontiguousarray(alpha.T)
    g_m = model.mu + alpha @ model.resid - problem.target_log
    v = 1.0 - np.vecdot(r, alpha)
    f = np.vecdot(g_m, g_m) + np.maximum(v, 0.0) * problem.tr_sigma
    # d obj / d r, then chain through dr_i/du_k = -2 (u_k - G_ik) r_i
    t = (g_m @ problem.Q2T - 2.0 * problem.tr_sigma * alpha) * r
    grad = -2.0 * (U * np.add.reduce(t, axis=1)[:, None] - t @ problem.G)
    return f, grad


def mse_objective(model: TrainedEmulator, target, d: float, spectrum_active,
                  active_set=None) -> float:
    """Expected squared log-stress mismatch at one candidate point.

    E ||y - y*||^2 = ||yhat - y*||^2 + v tr(Sigma). ``target`` is already
    in log space on the model grid. The candidate is a diameter plus the
    modulus values on the active set (defaults to the fitted theta's
    support); inert coordinates are zero and drop out of the kernel.
    """
    if check_rate("diameter", d) == 0:
        raise InvalidInputError("diameter must be positive")
    if active_set is None:
        active_set = np.flatnonzero(model.data.unpack(model.z)[0] > 0)
    problem = MimicProblem(model=model, target_log=target, active_set=active_set)
    spectrum_active = check_array("spectrum_active", spectrum_active, problem.active_set.shape)
    if np.any(spectrum_active < 0):
        raise InvalidInputError("moduli must be nonnegative")
    x = np.concatenate([[d], spectrum_active])
    return float(_objective_and_grad((problem.s * x)[None], problem)[0][0])


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
    lo, hi = problem.lo, problem.hi
    unit = qmc.LatinHypercube(d=lo.size, seed=seed).random(starts)
    # the best training design, clipped into the box, is an incumbent start
    rows = np.clip(problem.model.data.F[:, problem.cols], lo, hi)
    f, _ = _objective_and_grad(problem.s * rows, problem)
    return np.vstack([lo + unit * (hi - lo), rows[np.argmin(f)]])


def _settled(U, g, lo, hi):
    """Rows whose projected gradient has inf-norm <= PG_TOL."""
    return np.maximum.reduce(np.abs((U - g).clip(lo, hi) - U), axis=1) <= PG_TOL


def _free_directions(U, g, H, lo, hi):
    """Quasi-Newton directions -H g restricted to the free coordinates.

    A coordinate is bound when it sits at a bound and its gradient points
    out of the box; its direction is zero. On the free coordinates F the
    direction is the Newton step of the model Hessian B = H^-1 restricted
    to F, whose inverse is H_FF - H_FB H_BB^-1 H_BF. Only rows with a bound
    coordinate solve with H_BB; every other row's direction is -H g.
    Returns the directions and the mask of free coordinates.
    """
    bound = ((U <= lo) & (g > 0)) | ((U >= hi) & (g < 0))
    free = ~bound
    g_free = (g * free)[:, :, None]
    held = np.logical_or.reduce(bound, axis=1).nonzero()[0]
    if held.size:
        b, H_b = bound[held], H[held]
        H_BB = H_b * (b[:, :, None] & b[:, None, :]) + np.eye(U.shape[1]) * ~b[:, None, :]
        g_free[held] -= np.linalg.solve(H_BB, (H_b @ g_free[held]) * b[:, :, None])
    return -(H @ g_free)[:, :, 0] * free, free


def _bfgs_update(H, s, y, sy, fresh):
    """Inverse BFGS updates of a stack of H, given each row's s'y; an
    unscaled identity (fresh) is first scaled to (s'y / y'y) I, as Shanno
    and Phua propose."""
    if np.logical_or.reduce(fresh):
        H = H.copy()
        H[fresh] *= (sy[fresh] / np.vecdot(y[fresh], y[fresh]))[:, None, None]
    Hy = (H @ y[:, :, None])[:, :, 0]
    rho = 1.0 / sy
    ss = (rho + rho * rho * np.vecdot(y, Hy))[:, None, None] * (s[:, :, None] * s[:, None, :])
    Hys = Hy[:, :, None] * s[:, None, :]  # s Hy' is its transpose, the same products
    return H + ss - rho[:, None, None] * (Hys + Hys.transpose(0, 2, 1))


def _search(U0, lo, hi, problem: MimicProblem):
    """Projected BFGS from each row of U0 in the box [lo, hi], in lockstep.

    Each start keeps its own point, objective, gradient and k x k inverse
    Hessian H: the identity, scaled at the first update, and reset when
    its direction fails to descend (see :func:`_free_directions`). A step
    backtracks along the projection arc u+ = clip(u + a d) until
    f+ <= f + ARMIJO g'(u+ - u), from a = 1, shrinking a by safeguarded
    quadratic interpolation into [0.1 a, 0.5 a]. Each round evaluates the
    pending trial point of every live start in one batched call. The
    BFGS update needs s'y > 1e-12 |s| |y|. A start stops on a projected
    gradient of inf-norm <= PG_TOL ("gradient"), a reduction <= F_TOL
    max(|f|, |f+|, 1) ("reduction"), MAX_ITER steps ("iterations"), or
    MAX_TRIALS rejected trials ("line search"), where it is.

    The state holds the live starts only, in start order, so each round
    works on whole arrays; a start's results are written out once, when
    it ends, and its rows are dropped. Directions are computed for every
    live start in a round where some start begins a line search and kept
    for those that do: at these sizes a stack of directions costs about
    the same for one row as for all of them, and selecting the rows
    would cost more than it saves. Branches that shrink steps, reset H or
    record stops run only in rounds that need them.

    Returns the final points and objectives, the initial objectives, the
    steps taken and the stop reasons, one row per start.
    """
    S, k = U0.shape
    f, g = _objective_and_grad(U0, problem)
    U_end, f_end, f_start = U0.copy(), f.copy(), f.copy()
    iterations_end = np.zeros(S, dtype=int)
    stop = np.ones(S, dtype=int)  # an index into STOPS; "gradient" until a running start ends

    # live state: one row per running start, in start order
    ids = np.flatnonzero(~_settled(U0, g, lo, hi))
    U, f, g = U0[ids], f[ids], g[ids]
    H = np.tile(np.eye(k), (ids.size, 1, 1))
    fresh = np.ones(ids.size, dtype=bool)  # H is an unscaled identity
    D = np.zeros_like(U)
    step_len, trials = np.ones(ids.size), np.zeros(ids.size, dtype=int)
    iterations = np.zeros(ids.size, dtype=int)
    aim = np.ones(ids.size, dtype=bool)  # starts that begin a line search
    while ids.size:
        if np.logical_or.reduce(aim):
            d, free = _free_directions(U, g, H, lo, hi)
            reset = aim & (np.vecdot(g, d) >= 0)
            if np.logical_or.reduce(reset):
                H[reset], fresh[reset] = np.eye(k), True
                d[reset] = -g[reset] * free[reset]
            np.copyto(D, d, where=aim[:, None])
            step_len[aim], trials[aim] = 1.0, 0

        Ut = (U + step_len[:, None] * D).clip(lo, hi)
        ft, gt = _objective_and_grad(Ut, problem)
        step = Ut - U
        slope = np.vecdot(g, step)
        ok = ft <= f + ARMIJO * slope

        # shrink the rejected steps
        bad = ~ok
        if np.logical_or.reduce(bad):
            a, slope_bad = step_len[bad], slope[bad]
            quad = -slope_bad * a / (2.0 * (ft[bad] - f[bad] - slope_bad))
            step_len[bad] = quad.clip(0.1 * a, 0.5 * a)
            trials += bad

        # move the accepted starts and update their H
        reduced = f - ft <= F_TOL * np.maximum(np.maximum(np.abs(f), np.abs(ft)), 1.0)
        y = gt - g
        sy = np.vecdot(step, y)
        upd = (ok & (sy > 1e-12 * (np.sqrt(np.add.reduce(step * step, axis=1))
                                    * np.sqrt(np.add.reduce(y * y, axis=1))))).nonzero()[0]
        np.copyto(U, Ut, where=ok[:, None])
        np.copyto(f, ft, where=ok)
        np.copyto(g, gt, where=ok[:, None])
        iterations += ok
        H[upd] = _bfgs_update(H[upd], step[upd], y[upd], sy[upd], fresh[upd])
        fresh[upd] = False

        # stop tests, strongest reason first; the others aim again
        settled = _settled(U, g, lo, hi)
        ended = np.where(ok, settled | reduced | (iterations >= MAX_ITER),
                         trials >= MAX_TRIALS)
        if np.logical_or.reduce(ended):
            out = ids[ended]
            U_end[out], f_end[out], iterations_end[out] = U[ended], f[ended], iterations[ended]
            stop[out] = np.where(bad, 0, np.where(settled, 1, np.where(reduced, 2, 3)))[ended]
            keep = (~ended).nonzero()[0]
            ids, U, f, g, H, fresh, D, step_len, trials, iterations, ok = (
                state[keep] for state in (ids, U, f, g, H, fresh, D, step_len,
                                          trials, iterations, ok))
        aim = ok
    return U_end, f_end, f_start, iterations_end, STOPS[stop]


def optimize(problem: MimicProblem, starts: int = 32, seed: int = 0) -> MimicResult:
    """Multi-start lockstep quasi-Newton search; the lowest objective wins.

    Each start x0 is searched from u0 = s * x0 in the box scaled alike,
    all starts in one lockstep search, and the winner is mapped back as
    x = clip(u / s) into the x box. A coordinate with zero weight (s = 0,
    only the diameter can have it) cannot change the objective and keeps
    its start's value. Every start only descends from its initial
    objective, so the returned objective also beats the best training
    design's own point (it is injected as an extra start).
    """
    check_count("starts", starts, 1)
    check_count("seed", seed, 0)
    model, s, lo, hi = problem.model, problem.s, problem.lo, problem.hi
    X0 = _start_points(problem, starts, seed)
    U, f, f_start, iterations, stop = _search(s * X0, lo * s, hi * s, problem)
    trace = [{"start": j, "initial_objective": float(f_start[j]),
              "final_objective": float(f[j]), "iterations": int(iterations[j]),
              "stop": str(stop[j])} for j in range(len(X0))]
    best = int(np.argmin(f))
    live = s > 0
    x_best = X0[best].copy()
    x_best[live] = np.clip(U[best, live] / s[live], lo[live], hi[live])
    # the prediction the objective was scored on; the kernel is called
    # directly so that correlation_from_features counts evaluations only
    pred = predict_from_point(
        model, kernel(sq_differences(problem.G, U[best]), problem.unit_weights))
    spectrum = np.zeros(half_size(model.data.p))
    spectrum[problem.active_set] = x_best[1:]
    return MimicResult(
        diameter=float(x_best[0]), spectrum=spectrum,
        reconstructed_curve=reconstruct_structure(spectrum, model.data.p),
        objective=float(f[best]), predicted=pred, trace=trace)


def reconstruct_structure(spectrum, p: int) -> np.ndarray:
    """Zero-phase curve with the requested DFT moduli s: their inverse real
    DFT x_l = (s_0 + 2 sum_k s_k cos(2 pi k l / p)) / p."""
    spectrum = check_array("spectrum", spectrum, (half_size(check_curve_length(p)),))
    if np.any(spectrum < 0):
        raise InvalidInputError("moduli must be nonnegative")
    return np.fft.irfft(spectrum, n=p)
