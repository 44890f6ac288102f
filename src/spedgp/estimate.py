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

import itertools
import logging
import multiprocessing
import os
import pickle
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
                         NumericalError, SingularMatrixError, check_array,
                         check_count, check_rate)
from .metrics import mare
from .spectral import FAMILIES, check_weights, cholesky, logdet, solve_factored

logger = logging.getLogger(__name__)


#: relative objective change below which the sweep loop stops
SWEEP_TOL = 1e-6
#: sweep cap of one restart; fits stop on SWEEP_TOL well before it
MAX_SWEEPS = 60
#: KKT tolerance of the graphical lasso; sigma_step scales it by the
#: spectral norm of its input
GLASSO_TOL = 1e-6
#: iteration cap of the graphical lasso, read when :func:`glasso_newton` runs
GLASSO_MAX_ITER = 500
#: value at which beta_step pins a nonpositive slope coefficient beta_2
EPSILON_BETA = 1e-6
#: rows of the glasso Newton system built per block. At the benchmark's
#: median 450 unknowns its four row gathers average 0.1 MB each; 48 to 128
#: rows build the system in 0.8-0.9 ms, 256 rows in 3 ms, as they leave a
#: core's L2 cache
PAIR_BLOCK = 64


@dataclass
class FitConfig:
    """Estimation settings; lambda_I/lambda_o are the two penalty rates."""

    lambda_I: float = 0.0
    lambda_o: float = 0.1
    family: str = "sped"
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        check_count("restarts", self.restarts, 1)
        check_count("seed", self.seed, 0)
        check_rate("lambda_I", self.lambda_I)
        check_rate("lambda_o", self.lambda_o)
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
    theta, _ = data.unpack(z)
    E = data.residuals(beta)
    _, choR = data.chol(z)
    n, m = data.n, data.m
    # cholesky overwrites its argument; the copy keeps Sigma's memory order,
    # which decides the triangle dpotrf reads
    choS = cholesky(check_array("Sigma", Sigma, (m, m)).copy(order="K"))
    if choS is None:
        raise SingularMatrixError("Sigma is not positive definite")
    logdet_R, logdet_S = logdet(choR), logdet(choS)
    W = solve_factored(choS, np.eye(m))
    quad = float(np.sum(solve_factored(choR, E) * (E @ W)))
    penalty = lambda_I * float(np.sum(theta))
    penalty += lambda_o * float(np.sum(np.abs(W)))
    return float(n * logdet_S + m * logdet_R + penalty + quad)


# ---------------------------------------------------------------------------
# graphical LASSO


def graphical_lasso(S, lam: float, tol: float = GLASSO_TOL) -> np.ndarray:
    """min_W -logdet W + tr(S W) + lam * sum_{j != k} |W_jk| by
    :func:`glasso_newton`, certified by :func:`glasso_kkt_residual`."""
    S = check_array("S", S, (None, None))
    if S.shape[0] != S.shape[1]:
        raise InvalidInputError("S must be square")
    if not np.allclose(S, S.T, atol=1e-10 * max(1.0, np.abs(S).max())):
        raise InvalidInputError("S must be symmetric")
    if np.any(np.diag(S) <= 0):
        raise InvalidInputError("S must have a positive diagonal")
    check_rate("penalty", lam)
    W, iterations, residual = glasso_newton(S, lam, tol)
    if residual > tol:
        raise ConvergenceError(
            f"graphical lasso did not reach KKT tolerance {tol:g} in "
            f"{iterations} iterations (residual {residual:.3e})", residual=residual)
    return W


def glasso_newton(S, lam: float, tol: float, precision_init=None):
    """Projected-Newton graphical lasso; returns (W, iterations, residual).

    Dual steps: Newton on  max logdet V  over diag V = diag S, |V - S| <=
    lam, on the pairs Bertsekas' epsilon-rule leaves free, searched along
    the projection arc with a Cholesky check; the candidate W is V^{-1}
    with zeros on the pairs strictly inside the box. Once the dual settles,
    primal steps run while they halve the residual: Newton for W^{-1} =
    S + lam sign(W) on W's support and signs, exact where an ill-conditioned
    V^{-1} is not. It starts at :func:`_dual_start` and returns its last
    iterate, early once the KKT residual is <= tol and the duality gap <= 1e-9
    of the objective (the one test that evaluates the objective: if tol > lam
    the residual alone admits W far above the minimum). At most
    GLASSO_MAX_ITER iterations run.
    """
    m = S.shape[0]
    I, J = np.triu_indices(m, 1)
    u, cho = _dual_start(S, lam, I, J, precision_init)
    f = -logdet(cho)
    V_inv = solve_factored(cho, np.eye(m))
    W = binding = None
    residual = last = np.inf
    polish = stalled = False
    for iteration in range(1, GLASSO_MAX_ITER + 1):
        W_new = None
        if polish and residual < 0.5 * last:
            W_new, last = _support_newton_step(S, lam, W, I, J), residual
        if W_new is None:
            step = _dual_newton_step(S, lam, I, J, u, V_inv, f)
            if step is None:
                if stalled:  # the dual point has not moved since it last failed
                    break
                polish, stalled, last = True, True, np.inf
            else:
                u, cho, f, full, bound = step
                V_inv = solve_factored(cho, np.eye(m))
                polish = full and np.array_equal(bound, binding)
                stalled, last, binding = False, np.inf, bound
            W_new = _snap(V_inv, u, lam, I, J)
        W = W_new
        residual = glasso_kkt_residual(S, W, lam)
        if residual <= tol:
            objective = _glasso_objective(S, lam, W)[0]
            if objective - (m - f) <= 1e-9 * max(1.0, abs(objective)):
                break
    return W, iteration, residual


def _glasso_objective(S, lam: float, W):
    """(-logdet W + tr(S W) + lam * sum_{j != k} |W_jk|, W's Cholesky factor);
    (inf, None) if W is indefinite."""
    cho = cholesky(W.copy())
    if cho is None:
        return np.inf, None
    off = float(np.abs(W).sum() - np.abs(np.diag(W)).sum())
    return -logdet(cho) + float(np.sum(S * W)) + lam * off, cho


def _box(S, u, I, J):
    V = S.copy()
    V[I, J] = V[J, I] = S[I, J] + u
    return V


def _dual_start(S, lam, I, J, precision_init):
    """(u, Cholesky factor of V) at the warm precision's inverse projected
    into the box if that V is definite, else at S with its off-diagonal
    shrunk into the box toward diag S (definite for semidefinite S, lam > 0)."""
    s = S[I, J]
    if precision_init is not None and (
            cho := cholesky(np.array(precision_init, dtype=float))) is not None:
        u = np.clip(solve_factored(cho, np.eye(S.shape[0]))[I, J] - s, -lam, lam)
        if (cho := cholesky(_box(S, u, I, J))) is not None:
            return u, cho
    u = -min(1.0, lam / (np.abs(s).max(initial=0.0) or 1.0)) * s
    if (cho := cholesky(_box(S, u, I, J))) is None:
        raise SingularMatrixError("no positive-definite start for the graphical lasso")
    return u, cho


def _snap(V_inv, u, lam, I, J):
    """V^{-1}, symmetrized, with exact zeros on the pairs strictly inside the box."""
    W = 0.5 * (V_inv + V_inv.T)
    inside = np.abs(u) < lam
    W[I[inside], J[inside]] = W[J[inside], I[inside]] = 0.0
    return W


def _pair_hessian(M, a, b):
    """K[p, q] = M_ac M_bd + M_ad M_bc for index pairs p = (a, b), q = (c, d):
    half the Hessian of -logdet M on symmetric pair perturbations.

    Only the entries q >= p are filled, the triangle :func:`cholesky`
    reads, PAIR_BLOCK rows at a time; the rest of K is left unset. With
    X = M[:, a] and Y = M[:, b], a block is X[ar] Y[br] + Y[ar] X[br] over
    its rows p = (ar, br): contiguous row gathers, not strided columns.
    """
    n = a.size
    K = np.empty((n, n))
    X, Y = M[:, a], M[:, b]
    for r0 in range(0, n, PAIR_BLOCK):
        ar, br = a[r0:r0 + PAIR_BLOCK], b[r0:r0 + PAIR_BLOCK]
        block = K[r0:r0 + PAIR_BLOCK, r0:]
        np.multiply(X[ar, r0:], Y[br, r0:], out=block)
        block += Y[ar, r0:] * X[br, r0:]
    return K


def _dual_newton_step(S, lam, I, J, u, Sigma, f):
    """Projected-Newton step on -logdet V from Sigma = V^{-1};
    (u, cho, f, full, bound) or None."""
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
    S = check_array("S", S, (None, None))
    if S.shape[0] != S.shape[1]:
        raise InvalidInputError("S must be square")
    W = check_array("W", W, S.shape)
    check_rate("penalty", lam)
    # cholesky overwrites its argument; the copy keeps W's memory order
    cho = cholesky(W.copy(order="K"))
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


def sigma_step(data: FitData, choR, beta, lambda_o: float, W):
    """Sigma block update from the incoming precision W; returns
    (Sigma, W = Sigma^{-1}, stats).

    The Sigma block of the objective is, up to a factor n,
    -logdet W + tr(S0 W) + (lambda_o / n) ||W||_1 with
    S0 = (1/n) E' R^{-1} E, i.e. a graphical lasso with the elementwise
    penalty lambda_o / n. Ridging the input by that same rate and
    penalizing only off-diagonals is the identical problem (W has a
    positive diagonal), which is the ridge the reference algorithm
    prescribes; the 1/n factor keeps every sweep a block minimization of
    the monitored objective.

    The KKT tolerance is GLASSO_TOL times the spectral norm of the input
    (near-singular correlation states inflate S0). The solver starts warm
    from W, and the step keeps W when that scores a lower block objective,
    so a sweep never ascends. ``stats`` holds the solver's
    ``iterations`` and ``kkt``, W's residual over that tolerance.
    """
    n = data.n
    check_rate("lambda_o", lambda_o)
    check_array("choR", choR, (n, n))
    incumbent = check_array("W", W, (data.m, data.m))
    E = data.residuals(beta)
    S0 = E.T @ solve_factored(choR, E) / n
    S0 = 0.5 * (S0 + S0.T)
    rho = lambda_o / n
    W0 = S0 + rho * np.eye(data.m)
    target = GLASSO_TOL * max(1.0, float(np.linalg.norm(W0, 2)))
    W, iterations, residual = glasso_newton(W0, rho, target, incumbent)
    # never ascend: keep the incoming W if it scores lower beyond rounding
    f_inc, cho_inc = _glasso_objective(W0, rho, incumbent)
    f_new, choW = _glasso_objective(W0, rho, W)
    if f_inc < f_new - 1e-9 * max(1.0, abs(f_inc)):
        W, choW, residual = incumbent.copy(), cho_inc, glasso_kkt_residual(W0, incumbent, rho)
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
    check_array("choR", choR, (n, n))
    W = check_array("W", W, (data.m, data.m))
    ones = np.ones(n)
    u = solve_factored(choR, ones)
    c = float(ones @ u)
    if c <= 0:
        raise SingularMatrixError("correlation matrix produced a nonpositive 1'R^{-1}1")
    ybar = data.Y.T @ u / c
    beta = _gls(W, data.P, ybar)
    if beta.size >= 2 and beta[1] <= 0.0:
        rest = np.arange(beta.size) != 1
        beta[rest] = _gls(W, data.P[:, rest], ybar - EPSILON_BETA * data.P[:, 1])
        beta[1] = EPSILON_BETA
    return beta


def _gls(W, P, y) -> np.ndarray:
    """b solving the normal equations (P'WP) b = P'W y."""
    A = W @ P
    try:
        return np.linalg.solve(P.T @ A, A.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "GLS normal matrix P'WP is singular; W is singular on the mean basis") from exc


def theta_objective(z, data: FitData, M, lambda_I: float):
    """Theta block of the objective and its analytic gradient.

    f(z) = m logdet R(z) + tr(R^{-1} M) + lambda_I * sum of penalized z,
    with M = E Sigma^{-1} E' fixed, as :func:`_theta_value` computes it.
    dR/dz_k = -D_k o R gives df/dz_k = sum_ij D_ijk [R o (G M G - m G)]_ij
    with G = R^{-1}.
    """
    f, R, G = _theta_value(z, data, M, lambda_I)
    if G is None:
        return f, np.zeros_like(z)
    C = R * (G @ M @ G - data.m * G)
    grad = C.ravel() @ data.D.reshape(-1, data.nz) + data.penalty_mask() * lambda_I
    return f, grad


def _theta_value(z, data: FitData, M, lambda_I: float):
    """(f, R, G = R^{-1}) of :func:`theta_objective` at z, without its
    gradient; (1e300, None, None) where R does not factor, a wall for the
    line search."""
    R = data.correlation(z)
    cho = cholesky(R.copy())
    if cho is None:
        return 1e300, None, None
    G = solve_factored(cho, np.eye(data.n))
    pen = data.penalty_mask() * lambda_I
    return data.m * logdet(cho) + float(np.sum(G * M)) + float(pen @ z), R, G


def theta_step(data: FitData, beta, W, z0, lambda_I: float):
    """Bound-constrained quasi-Newton descent on the theta block.

    Returns (z, objective, stats), ``stats`` holding the L-BFGS-B ``exit``
    message and its ``iterations``. Weights live on the nonnegative
    orthant, where the l1 penalty is linear and hence smooth; exact zeros
    at the bound are what switches frequencies off.
    """
    z0 = check_weights(z0, data.nz)
    check_rate("lambda_I", lambda_I)
    E = data.residuals(beta)
    M = E @ check_array("W", W, (data.m, data.m)) @ E.T
    f0 = _theta_value(z0, data, M, lambda_I)[0]
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
        f_try = _theta_value(z_try, data, M, lambda_I)[0]
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
    byte-identical between reruns with the same BLAS thread count.
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
    for sweep in range(1, MAX_SWEEPS + 1):
        t0 = time.perf_counter()
        R, choR = data.chol(z)
        Sigma, W, stats = sigma_step(data, choR, beta, config.lambda_o, W)
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
    """
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
    every core, runs alone; more processes would oversubscribe the cores
    (2 forced processes took 3.1, 34 and 69 s per seed-0 benchmark fit on
    a 2-vCPU VM, against 1.3-2.4 s in one).
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
        try:  # one that pickle cannot rebuild from its args goes as a RuntimeError
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        reply = ("raise", (exc, traceback.format_exc()))  # the original's traceback
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
                       family=config.family)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    outcomes = _run_restarts(fd, config, children)
    # (r, z, beta, Sigma, record) in restart order: min ties to the lowest r
    trace = FitTrace(seed=config.seed, restarts=[o[4] for o in outcomes])
    done = [o for o in outcomes if "failed" not in o[4]]
    if not done:
        raise FitError("every restart failed", traces=trace.restarts)
    best_r, z, beta, Sigma, record = min(
        [o for o in done if not o[4]["nugget_carried"]] or done,
        key=lambda o: o[4]["final_objective"])
    trace.best_index = best_r
    if record["nugget_carried"]:
        ratio = record["nugget_share_ratio"]
        logger.warning(
            "chosen restart %d is carried by the nugget, as is every restart: "
            "it misses %.3g of its training residuals, and a %gx smaller "
            "nugget %s", best_r, record["nugget_share"], NUGGET_CUT,
            "leaves R unfactorizable" if ratio is None else
            f"scales that miss by {ratio:.3g}, not by about {1 / NUGGET_CUT:g}")
    passed_over = [o[0] for o in done if o[4]["final_objective"] < record["final_objective"]]
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
    check_count("cv folds", k, 2)
    # a list is read as it is, so that no bool or string in it becomes a number
    li_grid, lo_grid = (
        sorted({float(check_rate("penalty grid value", v))
                for v in (grid if isinstance(grid, (list, tuple)) else np.atleast_1d(grid))})
        for grid in (lambda_I_grid, lambda_o_grid))
    if not li_grid or not lo_grid:
        raise InvalidInputError("penalty grids must be non-empty")
    n = len(data.designs)
    if n < 2 * k:
        raise InvalidInputError(f"need k >= 2 and n >= 2k folds, got n={n}, k={k}")
    perm = np.random.default_rng(config.seed).permutation(n)
    folds = np.array_split(perm, k)  # n >= 2k: every fold has 2 or more members
    # each fold's training set, built once for every grid pair
    training = [Dataset(designs=[data.designs[i] for i in rest],
                        responses=data.responses[rest], grid=data.grid)
                for rest in (np.setdiff1d(np.arange(n), fold) for fold in folds)]

    best = None
    for li, lo in itertools.product(li_grid, lo_grid):
        cfg = replace(config, lambda_I=li, lambda_o=lo)
        errors = []
        for fold, sub in zip(folds, training):
            model, _ = fit(sub, cfg)
            errors += [mare(data.responses[i],
                            unlog_stress(predict(model, data.designs[i]).mean)) for i in fold]
        score = float(np.mean(errors))
        logger.info("cv lambda_I=%g lambda_o=%g score=%.6f", li, lo, score)
        if best is None or score <= best[0]:
            best = (score, li, lo)
    return best[1], best[2]
