"""Penalized MAP estimation of the co-kriging parameters.

The objective is the penalized negative log-posterior

    n logdet Sigma + m logdet R_theta + lambda_I ||theta||_1
      + lambda_o ||Sigma^{-1}||_1 + quadratic(beta, theta, Sigma),

minimized by blockwise coordinate descent: an exact graphical-LASSO
update of Sigma, a closed-form generalized least squares update of beta,
and a bound-constrained quasi-Newton update of the kernel weights. The
quadratic form is always evaluated through the Kronecker identity
(R (x) Sigma)^{-1} vec(E') = vec(Sigma^{-1} E' R^{-1}), two small solves
instead of one (nm) x (nm) system.

Multi-start: the driver reruns the sweep loop from `restarts` random
theta initializations and keeps the lowest final objective (but see
below for restarts the nugget carries). Raw Exp(1) draws put almost all
mass in a region where every off-diagonal correlation underflows and the
theta gradient vanishes, so draws are rescaled by the mean squared
pairwise distance per feature coordinate;
restart 0 uses the deterministic all-ones draw under the same scaling.
The restarts run in contiguous blocks, one per core that BLAS leaves
free (:func:`_restart_workers`): the calling process runs the first
block and one forked worker runs each other block. Each restart's
arithmetic is the same in any process, so the worker count never changes
a result, a trace or the order of the log lines.

With more strain levels than designs (m > n) the objective has no
minimizer: as every correlation tends to one it falls without bound, and
only the nugget stops it. Each restart's record therefore says how much
the nugget carries its fit (:func:`nugget_carry`). :func:`fit` keeps the
lowest objective among the restarts the kernel determines, and falls back
to a carried restart, with a warning, only when every restart is carried.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import numbers
import os
import queue
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from logging.handlers import QueueHandler

import numpy as np
from scipy.optimize import minimize

from .cokrige import (FitData, TrainedEmulator, log_stress, make_fit_data, predict,
                      unlog_stress)
from .dataio import Dataset
from .exceptions import (ConvergenceError, FitError, InvalidInputError,
                         NumericalError, SingularMatrixError)
from .metrics import mare
from .spectral import FAMILIES, cholesky, logdet, solve_factored

logger = logging.getLogger(__name__)


#: relative objective change below which the sweep loop stops
SWEEP_TOL = 1e-6
#: KKT tolerance of the graphical lasso; sigma_step scales it by the
#: spectral norm of its input
GLASSO_TOL = 1e-6
#: iteration cap of the graphical lasso
GLASSO_MAX_ITER = 500
#: value at which beta_step pins a nonpositive slope coefficient beta_2
EPSILON_BETA = 1e-6
#: rows of the glasso Newton system built per block; at the benchmark's
#: median 450 unknowns a block's gathered factors take 0.2 MB each, so
#: they stay in a core's L2 cache
PAIR_BLOCK = 64


def _finite_nonnegative(*values) -> bool:
    # NaN fails every comparison, so `x < 0` alone lets it through; a bool
    # is a number to math.isfinite but is no rate
    return all(not isinstance(v, bool) and math.isfinite(v) and v >= 0
               for v in values)


@dataclass
class FitConfig:
    """Estimation settings; lambda_I/lambda_o are the two penalty rates."""

    lambda_I: float = 0.0
    lambda_o: float = 0.1
    nugget: float = 1e-8
    family: str = "sped"
    restarts: int = 5
    max_sweeps: int = 60
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.restarts, self.max_sweeps, self.seed)):
            raise InvalidInputError("restarts, max_sweeps and seed must be integers")
        if not _finite_nonnegative(self.lambda_I, self.lambda_o):
            raise InvalidInputError("penalty rates must be finite and nonnegative")
        if self.restarts < 1 or self.max_sweeps < 1:
            raise InvalidInputError("restarts and max_sweeps must be at least 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        if not _finite_nonnegative(self.nugget):
            raise InvalidInputError("nugget must be finite and nonnegative")
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown kernel family {self.family!r}")


@dataclass
class FitTrace:
    """Per-restart diagnostics of the sweep loop."""

    seed: int
    restarts: list = field(default_factory=list)
    best_index: int = -1

    def to_dict(self) -> dict:
        return {"seed": self.seed, "best_index": self.best_index,
                "restarts": self.restarts}


def neg_log_posterior(beta, z, Sigma, data: FitData,
                      lambda_I: float, lambda_o: float) -> float:
    """Penalized negative log-posterior of Eq-(19) form at packed weights z.

    n logdet Sigma + m logdet R + lambda_I ||theta||_1
    + lambda_o ||Sigma^{-1}||_1 + tr(R^{-1} E Sigma^{-1} E') with
    E = Y - 1 (P beta)'. Kronecker structure is exploited throughout.
    """
    z = np.asarray(z, dtype=float)
    theta, _ = data.unpack(z)
    _, choR = data.chol(z)
    choS = cholesky(np.array(Sigma, dtype=float))
    if choS is None:
        raise SingularMatrixError("Sigma is not positive definite")
    n, m = data.n, data.m
    logdet_R, logdet_S = logdet(choR), logdet(choS)
    W = solve_factored(choS, np.eye(m))
    E = data.residuals(beta)
    quad = float(np.sum(solve_factored(choR, E) * (E @ W)))
    penalty = lambda_I * float(np.sum(theta))
    penalty += lambda_o * float(np.sum(np.abs(W)))
    return float(n * logdet_S + m * logdet_R + penalty + quad)


# ---------------------------------------------------------------------------
# graphical LASSO


def graphical_lasso(S, lam: float, tol: float = GLASSO_TOL,
                    max_iter: int = GLASSO_MAX_ITER,
                    precision_init=None) -> np.ndarray:
    """min_W -logdet W + tr(S W) + lam * sum_{j != k} |W_jk| by
    :func:`glasso_newton`, certified by :func:`glasso_kkt_residual`."""
    S = np.asarray(S, dtype=float)
    m = S.shape[0]
    if S.ndim != 2 or S.shape[1] != m:
        raise InvalidInputError("S must be square")
    if not np.allclose(S, S.T, atol=1e-10 * max(1.0, np.abs(S).max())):
        raise InvalidInputError("S must be symmetric")
    if np.any(np.diag(S) <= 0):
        raise InvalidInputError("S must have a positive diagonal")
    if not _finite_nonnegative(lam):
        raise InvalidInputError("penalty must be finite and nonnegative")
    W, iterations, residual = glasso_newton(S, lam, tol, max_iter, precision_init)
    if residual > tol:
        raise ConvergenceError(
            f"graphical lasso did not reach KKT tolerance {tol:g} in "
            f"{iterations} iterations (residual {residual:.3e})", residual=residual)
    return W


def glasso_newton(S, lam: float, tol: float, max_iter: int,
                  precision_init=None):
    """Projected-Newton graphical lasso; returns (W, iterations, residual).

    Dual steps: Newton on  max logdet V  over diag V = diag S, |V - S| <=
    lam, on the pairs Bertsekas' epsilon-rule leaves free, searched along
    the projection arc with a Cholesky check; the candidate W is V^{-1}
    with zeros on the pairs strictly inside the box. Once the dual settles,
    primal steps run while they halve the residual: Newton for W^{-1} =
    S + lam sign(W) on W's support and signs, exact where an ill-conditioned
    V^{-1} is not. W is returned once its KKT residual is <= tol and its
    duality gap <= 1e-9 of its objective (if tol > lam the residual alone
    admits W far above the minimum); else the candidate of lowest objective.
    """
    m = S.shape[0]
    I, J = np.triu_indices(m, 1)
    u, cho = _dual_start(S, lam, I, J, precision_init)
    f = -logdet(cho)
    W = best_W = binding = None
    residual = best = best_f = last = np.inf
    polish = stalled = False
    for iteration in range(1, max(max_iter, 1) + 1):
        W_new = None
        if polish and residual < 0.5 * last:
            W_new, last = _support_newton_step(S, lam, W, I, J), residual
        if W_new is None:
            step = _dual_newton_step(S, lam, I, J, u, cho, f)
            if step is None:
                if stalled:  # the dual point has not moved since it last failed
                    break
                polish, stalled, last = True, True, np.inf
            else:
                u, cho, f, full, bound = step
                polish = full and np.array_equal(bound, binding)
                stalled, last, binding = False, np.inf, bound
            W_new = _snap(cho, u, lam, I, J)
        W = W_new
        residual = glasso_kkt_residual(S, W, lam)
        objective = _glasso_objective(S, lam, W)
        if objective <= best_f:
            best_W, best, best_f = W, residual, objective
        if residual <= tol and objective - (m - f) <= 1e-9 * max(1.0, abs(objective)):
            return W, iteration, residual
    return best_W, iteration, best


def _glasso_objective(S, lam: float, W) -> float:
    """-logdet W + tr(S W) + lam * sum_{j != k} |W_jk|; inf if W is indefinite."""
    cho = cholesky(np.array(W, dtype=float))
    if cho is None:
        return np.inf
    off = float(np.abs(W).sum() - np.abs(np.diag(W)).sum())
    return -logdet(cho) + float(np.sum(S * W)) + lam * off


def _box(S, u, I, J):
    V = S.copy()
    V[I, J] = V[J, I] = S[I, J] + u
    return V


def _dual_start(S, lam, I, J, precision_init):
    """Of V = S, S with its off-diagonal shrunk into the box toward diag S
    (definite for semidefinite S and lam > 0), and the warm precision's
    inverse projected into the box, the positive-definite V of largest logdet."""
    s = S[I, J]
    shrink = min(1.0, lam / (np.abs(s).max(initial=0.0) or 1.0))
    starts = [np.zeros(I.size), -shrink * s]
    if precision_init is not None and (
            cho := cholesky(np.array(precision_init, dtype=float))) is not None:
        starts.append(np.clip(solve_factored(cho, np.eye(S.shape[0]))[I, J] - s, -lam, lam))
    points = [(u, cho) for u in starts
              if (cho := cholesky(_box(S, u, I, J))) is not None]
    if not points:
        raise SingularMatrixError("no positive-definite start for the graphical lasso")
    return max(points, key=lambda point: logdet(point[1]))


def _snap(cho, u, lam, I, J):
    """V^{-1} with exact zeros on the pairs strictly inside the box."""
    W = solve_factored(cho, np.eye(cho.shape[0]))
    W = 0.5 * (W + W.T)
    inside = np.abs(u) < lam
    W[I[inside], J[inside]] = W[J[inside], I[inside]] = 0.0
    return W


def _pair_hessian(M, a, b):
    """K[p, q] = M_ac M_bd + M_ad M_bc for index pairs p = (a, b), q = (c, d):
    half the Hessian of -logdet M on symmetric pair perturbations.

    Only the entries q >= p are filled, the triangle :func:`cholesky`
    reads, PAIR_BLOCK rows at a time; the rest of K is left unset.
    """
    n = a.size
    K = np.empty((n, n))
    Ma, Mb = M[a], M[b]
    for r0 in range(0, n, PAIR_BLOCK):
        Ar, Br = Ma[r0:r0 + PAIR_BLOCK], Mb[r0:r0 + PAIR_BLOCK]
        aq, bq = a[r0:], b[r0:]
        cross = np.take(Ar, bq, axis=1)
        cross *= np.take(Br, aq, axis=1)
        block = K[r0:r0 + PAIR_BLOCK, r0:]
        np.multiply(np.take(Ar, aq, axis=1), np.take(Br, bq, axis=1), out=block)
        block += cross
    return K


def _dual_newton_step(S, lam, I, J, u, cho, f):
    """Projected-Newton step on -logdet V; (u, cho, f, full, bound) or None."""
    Sigma = solve_factored(cho, np.eye(S.shape[0]))
    sig = Sigma[I, J]
    # -logdet V has gradient -2 sig in u; bind the pairs it pushes out of the box
    eps = min(1e-6 * lam, float(np.linalg.norm(
        u - np.clip(u + 2.0 * sig, -lam, lam))))
    bound = (((u <= -lam + eps) & (sig < 0.0))
             | ((u >= lam - eps) & (sig > 0.0)))
    free = ~bound
    d = np.zeros_like(u)
    if free.any():
        choK = cholesky(_pair_hessian(Sigma, I[free], J[free]))
        if choK is None:
            return None
        d[free] = solve_factored(choK, sig[free])
    # scaled gradient on the binding pairs; the projection clips it
    d[bound] = sig[bound] / (Sigma[I[bound], I[bound]] * Sigma[J[bound], J[bound]]
                             + sig[bound] ** 2)
    newton_gain = 2.0 * float(sig[free] @ d[free])
    for alpha in 0.5 ** np.arange(40):
        u_new = np.clip(u + alpha * d, -lam, lam)
        cho_new = cholesky(_box(S, u_new, I, J))
        if cho_new is not None:
            f_new = -logdet(cho_new)
            gain = alpha * newton_gain + 2.0 * float(
                sig[bound] @ (u_new[bound] - u[bound]))
            if f - f_new >= 1e-4 * gain:  # Armijo
                return u_new, cho_new, f_new, alpha == 1.0, bound
    return None


def _support_newton_step(S, lam, W, I, J):
    """Newton step for W^{-1} = S + lam sign(W) on W's support and signs;
    pairs whose sign flips are zeroed. None if not positive definite."""
    m = S.shape[0]
    on = W[I, J] != 0.0
    a = np.concatenate([np.arange(m), I[on]])
    b = np.concatenate([np.arange(m), J[on]])
    sign = np.sign(W[a, b]) * (a != b)
    V = solve_factored(cholesky(W.copy()), np.eye(m))
    choK = cholesky(_pair_hessian(V, a, b))
    if choK is None:
        return None
    dx = solve_factored(choK, V[a, b] - S[a, b] - lam * sign)
    dx[:m] *= 2.0  # K halves the diagonal coordinates
    x = W[a, b] + dx
    x[m:][np.sign(x[m:]) != sign[m:]] = 0.0
    W_new = np.zeros_like(W)
    W_new[a, b] = W_new[b, a] = x
    return W_new if cholesky(W_new.copy()) is not None else None


def glasso_kkt_residual(S, W, lam: float) -> float:
    """Max stationarity violation of the off-diagonal-penalized glasso."""
    cho = cholesky(np.array(W, dtype=float))
    if cho is None:
        return np.inf
    G = solve_factored(cho, np.eye(W.shape[0])) - S
    off = ~np.eye(S.shape[0], dtype=bool)
    active, inactive = off & (W != 0.0), off & (W == 0.0)
    return float(max(np.abs(np.diag(G)).max(),
                     np.abs(G[active] - lam * np.sign(W[active])).max(initial=0.0),
                     np.abs(G[inactive]).max(initial=0.0) - lam))


# ---------------------------------------------------------------------------
# BCD blocks


def sigma_step(data: FitData, choR, beta, lambda_o: float, precision_init=None):
    """Sigma block update; returns (Sigma, W = Sigma^{-1}, stats).

    The Sigma block of the objective is, up to a factor n,
    -logdet W + tr(S0 W) + (lambda_o / n) ||W||_1 with
    S0 = (1/n) E' R^{-1} E, i.e. a graphical lasso with the elementwise
    penalty lambda_o / n. Ridging the input by that same rate and
    penalizing only off-diagonals is the identical problem (W has a
    positive diagonal), which is the ridge the reference algorithm
    prescribes; the 1/n factor keeps every sweep a block minimization of
    the monitored objective.

    The KKT tolerance is GLASSO_TOL times the spectral norm of the input
    (near-singular correlation states inflate S0). ``stats`` holds the solver's
    ``iterations`` and ``kkt``, W's residual over that tolerance.
    """
    n = data.n
    E = data.residuals(beta)
    S0 = E.T @ solve_factored(choR, E) / n
    S0 = 0.5 * (S0 + S0.T)
    rho = lambda_o / n
    W0 = S0 + rho * np.eye(data.m)
    target = GLASSO_TOL * max(1.0, float(np.linalg.norm(W0, 2)))
    W, iterations, residual = glasso_newton(W0, rho, target, GLASSO_MAX_ITER,
                                            precision_init)
    if precision_init is not None:
        # never ascend: keep the incoming W if it scores lower beyond rounding
        incumbent = np.array(precision_init, dtype=float)
        f_inc = _glasso_objective(W0, rho, incumbent)
        if f_inc < _glasso_objective(W0, rho, W) - 1e-9 * max(1.0, abs(f_inc)):
            W, residual = incumbent, glasso_kkt_residual(W0, incumbent, rho)
    choW = cholesky(W.copy())
    if choW is None:
        raise SingularMatrixError("glasso returned an indefinite precision")
    Sigma = solve_factored(choW, np.eye(data.m))
    return (0.5 * (Sigma + Sigma.T), W,
            {"iterations": iterations, "kkt": residual / target})


def beta_step(data: FitData, choR, W) -> np.ndarray:
    """Generalized least squares update of the mean coefficients.

    The full GLS system ((1 (x) P)' (R^{-1} (x) W) (1 (x) P)) beta = ...
    factors into (1' R^{-1} 1) (P' W P), so beta is the basis regression
    of the R-weighted average response curve. If the slope coefficient
    beta_2 comes out nonpositive it is pinned at EPSILON_BETA and the
    remaining coordinates are re-solved (active-set projection).
    """
    n = data.n
    ones = np.ones(n)
    u = solve_factored(choR, ones)
    c = float(ones @ u)
    if c <= 0:
        raise SingularMatrixError("correlation matrix produced a nonpositive 1'R^{-1}1")
    ybar = data.Y.T @ u / c
    A = W @ data.P
    Sq = data.P.T @ A
    try:
        beta = np.linalg.solve(Sq, A.T @ ybar)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "GLS normal matrix is singular; mean basis columns are collinear") from exc
    q = beta.size
    if q >= 2 and beta[1] <= 0.0:
        keep = [k for k in range(q) if k != 1]
        P1 = data.P[:, keep]
        target = ybar - EPSILON_BETA * data.P[:, 1]
        A1 = W @ P1
        try:
            b1 = np.linalg.solve(P1.T @ A1, A1.T @ target)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                "GLS normal matrix is singular after the beta_2 projection") from exc
        beta = np.empty(q)
        beta[1] = EPSILON_BETA
        beta[keep] = b1
    return beta


def theta_objective(z, data: FitData, M, lambda_I: float):
    """Theta block of the objective and its analytic gradient.

    f(z) = m logdet R(z) + tr(R^{-1} M) + lambda_I * sum of penalized z,
    with M = E Sigma^{-1} E' fixed. dR/dz_k = -D_k o R gives
    df/dz_k = sum_ij D_ijk [R o (G M G - m G)]_ij with G = R^{-1}.
    """
    R = data.correlation(z)
    cho = cholesky(R.copy())
    if cho is None:
        return 1e300, np.zeros_like(z)
    m = data.m
    logdet_R = logdet(cho)
    G = solve_factored(cho, np.eye(data.n))
    H = G @ M @ G
    quad = float(np.sum(G * M))
    pen = data.penalty_mask() * lambda_I
    f = m * logdet_R + quad + float(pen @ z)
    C = R * (H - m * G)
    grad = np.tensordot(data.D, C, axes=([0, 1], [0, 1])) + pen
    return f, grad


def theta_step(data: FitData, beta, W, z0, lambda_I: float):
    """Bound-constrained quasi-Newton descent on the theta block.

    Returns (z, objective, stats), ``stats`` holding the L-BFGS-B ``exit``
    message and its ``iterations``. Weights live on the nonnegative
    orthant, where the l1 penalty is linear and hence smooth; exact zeros
    at the bound are what switches frequencies off.
    """
    E = data.residuals(beta)
    M = E @ W @ E.T
    z0 = np.asarray(z0, dtype=float)
    f0, _ = theta_objective(z0, data, M, lambda_I)
    res = minimize(
        theta_objective, z0, args=(data, M, lambda_I), jac=True,
        method="L-BFGS-B", bounds=[(0.0, None)] * z0.size,
        options={"maxiter": 400, "gtol": 1e-8, "ftol": 1e-13, "maxcor": 10})
    if res.fun > f0:
        # line search failed to improve; keep the incoming point
        return z0, f0, {"exit": f"kept incoming point: {res.message}",
                        "iterations": res.nit}
    z, f = _truncate_inactive(res.x, float(res.fun), data, M, lambda_I)
    return z, f, {"exit": str(res.message), "iterations": res.nit}


def _truncate_inactive(z, f, data: FitData, M, lambda_I: float):
    """Snap near-bound coordinates to exactly zero when that descends.

    The quasi-Newton iteration stops with dust on coordinates whose true
    minimizer sits at the bound; one proximal pass over the coordinates,
    smallest first, recovers the exact zeros of the l1 solution. Only
    non-increasing moves are accepted, so full-sweep monotonicity is
    unaffected.
    """
    z = np.asarray(z, dtype=float).copy()
    for k in np.argsort(z):
        if z[k] <= 0.0:
            continue
        z_try = z.copy()
        z_try[k] = 0.0
        f_try, _ = theta_objective(z_try, data, M, lambda_I)
        if f_try <= f:
            z, f = z_try, f_try
    return z, f


# ---------------------------------------------------------------------------
# driver


def _initial_z(data: FitData, u: np.ndarray) -> np.ndarray:
    """Scale raw Exp(1) draws so initial correlations are informative.

    Dividing by (active coordinate count) x (mean squared pairwise
    difference) puts the initial exponent near 1 on average instead of
    in the flat exp(-1e3) plateau where the gradient underflows.
    """
    n = data.n
    denom = data.D.sum(axis=(0, 1)) / (n * (n - 1))
    pos = denom > 0
    z = np.zeros(data.nz)
    k_eff = max(int(pos.sum()), 1)
    z[pos] = u[pos] / (k_eff * denom[pos])
    return z


def _run_restart(data: FitData, config: FitConfig, z0: np.ndarray, restart: int):
    """One restart of the sweep loop from weights z0; (z, beta, Sigma, record).

    Each sweep logs one INFO line on this module's logger with its block
    times. The times go only to the log, so the record stays
    byte-identical between reruns.
    """
    theta0, _ = data.unpack(z0)
    beta = np.zeros(data.P.shape[1])
    Sigma = np.eye(data.m)
    W = np.eye(data.m)
    z = z0.copy()
    record = {
        "init_theta_scale": float(z0.sum()),
        "objectives": [neg_log_posterior(beta, z0, Sigma, data,
                                         config.lambda_I, config.lambda_o)],
        "active_theta": [int(np.count_nonzero(theta0 > 0))],
        "offdiag_nonzeros": [0],
        "sigma_iterations": [], "sigma_kkt": [], "theta_exits": [],
        "theta_iterations": [], "warnings": [],
        "converged": False,
    }
    for sweep in range(1, config.max_sweeps + 1):
        t0 = time.perf_counter()
        R, choR = data.chol(z)
        Sigma, W, stats = sigma_step(data, choR, beta, config.lambda_o,
                                     precision_init=W)
        t1 = time.perf_counter()
        record["sigma_iterations"].append(stats["iterations"])
        record["sigma_kkt"].append(stats["kkt"])
        if stats["kkt"] > 1.0:
            record["warnings"].append(f"sweep {sweep}: glasso stopped at "
                                      f"{stats['kkt']:.3g}x its KKT tolerance")
        beta = beta_step(data, choR, W)
        t2 = time.perf_counter()
        z, _, theta_stats = theta_step(data, beta, W, z, config.lambda_I)
        t3 = time.perf_counter()
        theta_exit = theta_stats["exit"]
        record["theta_exits"].append(theta_exit)
        record["theta_iterations"].append(theta_stats["iterations"])
        # stopped early: neither converged nor at the rounding-error limit
        early = not (theta_exit.startswith("CONVERGENCE") or "ROUNDING" in theta_exit)
        if early:
            record["warnings"].append(
                f"sweep {sweep}: theta optimizer stopped early: {theta_exit}")
        theta, _ = data.unpack(z)
        obj = neg_log_posterior(beta, z, Sigma, data,
                                config.lambda_I, config.lambda_o)
        record["objectives"].append(obj)
        record["active_theta"].append(int(np.count_nonzero(theta > 0)))
        off = W[~np.eye(data.m, dtype=bool)]
        record["offdiag_nonzeros"].append(int(np.count_nonzero(off)))
        logger.info(
            "restart=%d sweep=%d objective=%.6f sigma_s=%.4f beta_s=%.4f "
            "theta_s=%.4f glasso_iterations=%d sigma_kkt=%.3g "
            "theta_iterations=%d theta_exit=%r active=%d offdiag_nonzeros=%d",
            restart, sweep, obj, t1 - t0, t2 - t1, t3 - t2, stats["iterations"],
            stats["kkt"], theta_stats["iterations"], theta_exit,
            record["active_theta"][-1], record["offdiag_nonzeros"][-1])
        prev = record["objectives"][-2]
        slack = SWEEP_TOL * max(1.0, abs(prev))
        if prev - obj < -slack:
            record["warnings"].append(
                f"sweep {sweep}: objective increased by {obj - prev:.3e}")
            break
        if prev - obj <= slack:
            # the objective stopped falling; a stalled theta step is no minimum
            record["converged"] = not early
            break
    record["sweeps"] = len(record["objectives"]) - 1
    record.update(nugget_carry(data, z, beta))
    return z, beta, Sigma, record


#: factor by which :func:`nugget_carry` cuts the nugget
NUGGET_CUT = 100.0
#: share ratio above which the nugget carries the fit: the geometric
#: midpoint between 1/NUGGET_CUT (kernel-determined) and 1 (carried)
CARRIED_RATIO = NUGGET_CUT ** -0.5


def nugget_carry(data: FitData, z, beta) -> dict:
    """How much of the fit at weights z the nugget carries.

    At training design i the kriging mean misses its own response by row
    i of delta R^{-1} E (delta the nugget, E the residual matrix), so
    ``nugget_share`` = ||delta R^{-1} E|| / ||E|| is the part of the
    residuals the fit does not reproduce. Where the kernel determines the
    fit, R^{-1} E barely moves with delta and the share scales with it:
    cutting the nugget NUGGET_CUT-fold cuts the share as much. Where the
    nugget-free correlation matrix is singular to within delta along E,
    delta R^{-1} E is the part of E in those directions and does not
    shrink. ``nugget_share_ratio`` is the share after the cut over the
    share before; the fit is ``nugget_carried`` when the ratio exceeds
    CARRIED_RATIO, or when the cut leaves R unfactorizable (ratio None).
    Without a nugget the fit interpolates exactly and nothing is carried.
    """
    if data.nugget == 0.0:
        return {"nugget_share": 0.0, "nugget_share_ratio": None,
                "nugget_carried": False}
    E = data.residuals(beta)
    norm_E = float(np.linalg.norm(E))
    R, choR = data.chol(z)
    share = data.nugget * float(np.linalg.norm(solve_factored(choR, E))) / norm_E
    cut = data.nugget / NUGGET_CUT
    np.fill_diagonal(R, 1.0 + cut)
    cho_cut = cholesky(R)
    if cho_cut is None:
        return {"nugget_share": share, "nugget_share_ratio": None,
                "nugget_carried": True}
    ratio = cut * float(np.linalg.norm(solve_factored(cho_cut, E))) / norm_E / share
    return {"nugget_share": share, "nugget_share_ratio": ratio,
            "nugget_carried": ratio > CARRIED_RATIO}


#: environment variables that set the BLAS thread count, in the order
#: :func:`_restart_workers` reads them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _restart_workers(restarts: int) -> int:
    """Processes to run `restarts` in: min(restarts, cores // BLAS threads).

    The BLAS thread count is the first of BLAS_THREAD_VARIABLES that
    parses as a positive integer, else the core count (OpenBLAS's own
    default). So an unpinned process, whose BLAS threads already use
    every core, runs alone; more processes would oversubscribe the cores.
    It is 1 too without the ``fork`` start method, inside a daemonic
    process (which may not start children), and while another thread runs
    (a forked child gets only copies of the locks that thread may hold).
    """
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas_threads = cores
    for name in BLAS_THREAD_VARIABLES:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, min(restarts, cores // blas_threads))


def _restart(fd: FitData, config: FitConfig, children, r: int):
    """Restart r from its own draw; (r, z, beta, Sigma, record).

    A typed numerical failure gives (r, None, None, None, {"failed": ...})
    and a warning.
    """
    if r == 0:
        u = np.ones(fd.nz)
    else:
        u = np.random.default_rng(children[r]).exponential(1.0, fd.nz)
    try:
        z, beta, Sigma, record = _run_restart(fd, config, _initial_z(fd, u), r)
    except (SingularMatrixError, ConvergenceError, NumericalError) as exc:
        logger.warning("restart %d failed: %s", r, exc)
        return r, None, None, None, {"failed": str(exc)}
    record["final_objective"] = record["objectives"][-1]
    logger.info("restart %d: objective %.6f after %d sweeps",
                r, record["final_objective"], record["sweeps"])
    return r, z, beta, Sigma, record


def _worker(send, fd: FitData, config: FitConfig, children, block):
    """Forked worker: run the restarts of `block` and send back
    (kind, payload, log records), kind "done" with their outcomes or
    "raise" with an exception that is not a typed numerical failure."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops workers
    records = queue.SimpleQueue()
    logger.handlers, logger.propagate = [QueueHandler(records)], False
    try:
        reply = ("done", [_restart(fd, config, children, r) for r in block])
    except Exception as exc:  # raised again by the caller, with this traceback
        reply = ("raise", (exc, traceback.format_exc()))
    send.send((*reply, [records.get() for _ in range(records.qsize())]))


def _receive(block, proc, receive) -> list:
    """The outcomes a worker sends; its log records are handled here, in
    restart order. A worker that dies first fails its restarts."""
    try:
        kind, payload, records = receive.recv()
    except EOFError:
        proc.join()
        reason = f"worker exited with code {proc.exitcode} before replying"
        for r in block:
            logger.warning("restart %d failed: %s", r, reason)
        return [(r, None, None, None, {"failed": reason}) for r in block]
    for record in records:
        logger.handle(record)
    if kind == "raise":
        exc, remote = payload
        raise exc from RuntimeError(f"in the worker running restarts {block}:\n{remote}")
    return payload


def _run_restarts(fd: FitData, config: FitConfig, children) -> list:
    """Every restart's outcome from :func:`_restart`, in restart order.

    The restarts split into one contiguous block per worker
    (:func:`_restart_workers`). This process runs block 0, its log lines
    streaming live; one forked worker runs each other block, and its
    lines are handled once it replies. No worker outlives the call.
    """
    blocks = [block.tolist() for block in np.array_split(
        np.arange(config.restarts), _restart_workers(config.restarts))]
    workers = []
    try:
        for block in blocks[1:]:
            receive, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.get_context("fork").Process(
                target=_worker, args=(send, fd, config, children, block), daemon=True)
            proc.start()
            send.close()  # so a dead worker's pipe reads EOF
            workers.append((block, proc, receive))
        outcomes = [_restart(fd, config, children, r) for r in blocks[0]]
        for worker in workers:
            outcomes += _receive(*worker)
    finally:
        for _, proc, receive in workers:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receive.close()
    return outcomes


def fit(data, config: FitConfig):
    """Multi-start BCD estimation; returns (TrainedEmulator, FitTrace).

    ``data`` carries designs, a stress response matrix and the strain
    grid; responses are log-transformed here. Restarts draw independent
    theta initializations (restart 0 uses the deterministic all-ones
    draw). The lowest final objective among the restarts the nugget does
    not carry wins, ties to the lowest index; only when every restart is
    carried does the lowest of them win, with a warning. A carried
    restart's objective is set by the nugget, not by the model (see
    :func:`nugget_carry`), and its fit misses its own training rows.

    The restarts run in contiguous blocks on the cores BLAS leaves free
    (:func:`_run_restarts`), the first block in this process. The worker
    count changes no result: the model, the trace and the order of the
    log lines are the same as from one process; only later blocks' lines
    arrive when their worker finishes.
    """
    fd = make_fit_data(data.designs, log_stress(data.responses), data.grid,
                       family=config.family, nugget=config.nugget)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    trace = FitTrace(seed=config.seed)
    results = []
    for r, z, beta, Sigma, record in _run_restarts(fd, config, children):
        trace.restarts.append(record)
        if "failed" not in record:
            results.append((record["final_objective"], r, z, beta, Sigma, record))
    if not results:
        raise FitError("every restart failed", traces=trace.restarts)
    kernel_fits = [item for item in results if not item[5]["nugget_carried"]]
    best = min(kernel_fits or results, key=lambda item: (item[0], item[1]))
    _, best_r, z, beta, Sigma, record = best
    trace.best_index = best_r
    if record["nugget_carried"]:
        ratio = record["nugget_share_ratio"]
        logger.warning(
            "chosen restart %d is carried by the nugget, as is every restart: "
            "it misses %.3g of its training residuals, and a %gx smaller "
            "nugget %s", best_r, record["nugget_share"], NUGGET_CUT,
            "leaves R unfactorizable" if ratio is None else
            f"scales that miss by {ratio:.3g}, not by about {1 / NUGGET_CUT:g}")
    passed_over = [item[1] for item in results if item[0] < best[0]]
    if passed_over:
        logger.warning(
            "restarts %s reach lower objectives only because the nugget "
            "carries them; chose restart %d, which the kernel determines",
            passed_over, best_r)
    model = TrainedEmulator(
        data=fd, z=z, beta=beta, Sigma=Sigma,
        fit_metadata={
            "lambda_I": config.lambda_I,
            "lambda_o": config.lambda_o,
            "objective": record["final_objective"],
            "iterations": record["sweeps"],
        })
    return model, trace


def select_penalties(data, lambda_I_grid, lambda_o_grid, k: int,
                     config: FitConfig):
    """k-fold cross-validated choice of (lambda_I, lambda_o).

    Scores each grid pair by the mean held-out back-transformed MARE and
    returns the minimizing pair, ties broken toward larger penalties.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise InvalidInputError(f"cv folds must be an integer, got {k!r}")
    try:
        li_grid = sorted(set(float(v) for v in np.atleast_1d(lambda_I_grid)))
        lo_grid = sorted(set(float(v) for v in np.atleast_1d(lambda_o_grid)))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"penalty grid value of the wrong type: {exc}") from exc
    if not li_grid or not lo_grid:
        raise InvalidInputError("penalty grids must be non-empty")
    n = len(data.designs)
    if k < 2 or n < 2 * k:
        raise InvalidInputError(f"need k >= 2 and n >= 2k folds, got n={n}, k={k}")
    perm = np.random.default_rng(config.seed).permutation(n)
    folds = np.array_split(perm, k)  # n >= 2k: every fold has 2 or more members

    best = None
    for li in li_grid:
        for lo in lo_grid:
            cfg = replace(config, lambda_I=li, lambda_o=lo)
            errors = []
            for fold in folds:
                mask = np.ones(n, dtype=bool)
                mask[fold] = False
                train_idx = np.flatnonzero(mask)
                sub = Dataset(
                    designs=[data.designs[i] for i in train_idx],
                    responses=data.responses[train_idx],
                    grid=data.grid)
                model, _ = fit(sub, cfg)
                for i in fold:
                    pred = predict(model, data.designs[i])
                    errors.append(mare(data.responses[i], unlog_stress(pred.mean)))
            score = float(np.mean(errors))
            logger.info("cv lambda_I=%g lambda_o=%g score=%.6f", li, lo, score)
            if best is None or score <= best[0]:
                best = (score, li, lo)
    return best[1], best[2]
