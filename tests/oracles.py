"""Independent reference implementations used to check the package.

Everything here is deliberately brute force: np.fft for spectra, dense
Kronecker assembly for the multi-output posterior, elementwise loops for
kernels.  Slow and obvious beats fast and shared-code, since these exist
only to catch bugs in the real implementations.
"""

import numpy as np
from scipy.linalg import cho_solve

from spedgp import mimic
from spedgp.cokrige import mean_basis
from spedgp.estimate import glasso_kkt_residual
from spedgp.spectral import structure_times


def fft_half_modulus(curve):
    """|DFT| of the first (p-1)//2 + 1 bins, unnormalized, via np.fft."""
    curve = np.asarray(curve, dtype=float)
    p = curve.size
    h = (p - 1) // 2 + 1
    return np.abs(np.fft.fft(curve))[:h]


def dft_modulus_direct(curve):
    """|DFT| of the half spectrum by direct summation, basis built per call.

    The same formula as spectral.dft_modulus, whose basis is cached per p;
    the two must agree bit for bit.
    """
    x = np.asarray(curve, dtype=float)
    p = x.size
    k = np.arange((p - 1) // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(p)) / p)
    return np.abs(basis @ x)


def sped_corr_scalar(d1, c1, d2, c2, theta, theta_d):
    """Pairwise correlation from raw curves, all loops."""
    m1 = fft_half_modulus(c1)
    m2 = fft_half_modulus(c2)
    s = sum(t * (a - b) ** 2 for t, a, b in zip(theta, m1, m2))
    s += theta_d * (d1 - d2) ** 2
    return float(np.exp(-s))


def feature_corr_scalar(f1, f2, theta):
    s = sum(t * (a - b) ** 2 for t, a, b in zip(theta, f1, f2))
    return float(np.exp(-s))


def sinusoid_curve(A, omega, phi, p):
    t = structure_times(p)
    return A * np.sin(2.0 * np.pi * omega * t + phi)


def dense_joint_nll(Y, R, Sigma, beta, P):
    """Negative log density of vec(Y) under N(1 (P beta)', R (x) Sigma),
    assembled as one nm x nm matrix.  Constant terms included."""
    n, m = Y.shape
    mu = np.tile(P @ beta, n)
    K = np.kron(R, Sigma)
    resid = Y.reshape(-1) - mu
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    quad = resid @ np.linalg.solve(K, resid)
    return 0.5 * (logdet + quad + n * m * np.log(2.0 * np.pi))


def dense_conditional(Y, R, r, rho, Sigma, beta, P):
    """Predictive mean and covariance at one new design by conditioning the
    dense (n+1)m joint normal.  Returns (mean, cov), both m-sized."""
    n, m = Y.shape
    R_full = np.zeros((n + 1, n + 1))
    R_full[:n, :n] = R
    R_full[:n, n] = r
    R_full[n, :n] = r
    R_full[n, n] = rho
    K = np.kron(R_full, Sigma)
    mu_each = P @ beta
    idx_old = np.arange(n * m)
    idx_new = np.arange(n * m, (n + 1) * m)
    K_oo = K[np.ix_(idx_old, idx_old)]
    K_no = K[np.ix_(idx_new, idx_old)]
    K_nn = K[np.ix_(idx_new, idx_new)]
    resid = Y.reshape(-1) - np.tile(mu_each, n)
    sol = np.linalg.solve(K_oo, resid)
    mean = mu_each + K_no @ sol
    cov = K_nn - K_no @ np.linalg.solve(K_oo, K_no.T)
    return mean, cov


def dense_gls_beta(Y, R, Sigma, grid):
    """Generalized least squares for the mean coefficients on the full
    Kronecker system, no factorization shortcuts."""
    n, m = Y.shape
    P = mean_basis(grid)
    X = np.kron(np.ones((n, 1)), P)
    K = np.kron(R, Sigma)
    Ki = np.linalg.inv(K)
    y = Y.reshape(-1)
    return np.linalg.solve(X.T @ Ki @ X, X.T @ Ki @ y)


def penalized_objective(Y, R, Sigma, beta, P, lambda_I, lambda_o, theta_all):
    """Model selection objective via the dense nm-dimensional quadratic:
    n log|Sigma| + m log|R| + penalties + resid' (R (x) Sigma)^-1 resid."""
    n, m = Y.shape
    W = np.linalg.inv(Sigma)
    _, ldS = np.linalg.slogdet(Sigma)
    _, ldR = np.linalg.slogdet(R)
    resid = Y.reshape(-1) - np.kron(np.ones(n), P @ beta)
    quad = resid @ np.linalg.solve(np.kron(R, Sigma), resid)
    return (n * ldS + m * ldR + lambda_I * np.sum(np.abs(theta_all))
            + lambda_o * np.sum(np.abs(W)) + quad)


def glasso_objective(S, W, lam):
    """-log|W| + tr(SW) + lam * sum off-diagonal |W_ij|."""
    sign, logdet = np.linalg.slogdet(W)
    if sign <= 0:
        return np.inf
    off = np.sum(np.abs(W)) - np.sum(np.abs(np.diag(W)))
    return -logdet + np.sum(S * W) + lam * off


def pair_hessian_full(M, a, b):
    """K[p, q] = M_ac M_bd + M_ad M_bc for pairs p = (a, b), q = (c, d), the
    whole matrix in one gather; estimate._pair_hessian fills only the
    triangle q >= p, block by block, and must agree with it there bit for
    bit."""
    Ma, Mb = M[:, a], M[:, b]
    K = Ma[a] * Mb[b]
    K += Mb[a] * Ma[b]
    return K


def blockwise_glasso(S, lam, tol, max_iter=500, precision_init=None):
    """Friedman's blockwise graphical lasso; returns (W, passes, residual).

    Each pass solves one lasso per column on the working covariance V,
    which starts at S; a warm precision only seeds the per-column
    coefficients -W_12 / W_22. The pass loop keeps the iterate with the
    lowest KKT residual and stops once it is <= tol, after max_iter passes
    or when the working covariance turns indefinite.
    """
    m = S.shape[0]
    V = np.array(S, dtype=float)
    B = np.zeros((m - 1, m))
    idx = [np.array([k for k in range(m) if k != j]) for j in range(m)]
    if precision_init is not None:
        Wp = np.asarray(precision_init, dtype=float)
        for j in range(m):
            B[:, j] = -Wp[idx[j], j] / Wp[j, j]
    best_W, best_res, passes = None, np.inf, 0
    for passes in range(1, max_iter + 1):
        for j in range(m):
            sub = idx[j]
            V11 = V[np.ix_(sub, sub)]
            B[:, j] = feature_sign_lasso(V11, S[sub, j], lam, B[:, j])
            V[sub, j] = V11 @ B[:, j]
            V[j, sub] = V[sub, j]
        gaps = np.array([V[j, j] - V[idx[j], j] @ B[:, j] for j in range(m)])
        if np.any(gaps <= 0):
            break
        W = np.zeros((m, m))
        for j in range(m):
            W[j, j] = 1.0 / gaps[j]
            W[idx[j], j] = -B[:, j] / gaps[j]
        W = 0.5 * (W + W.T)
        residual = glasso_kkt_residual(S, W, lam)
        if residual < best_res:
            best_W, best_res = W, residual
        if residual <= tol:
            break
    return best_W, passes, best_res


def feature_sign_lasso(Q, b, lam, x0, max_steps=500):
    """Exact minimizer of 0.5 x'Qx - b'x + lam ||x||_1, Q positive definite.

    Feature-sign search: guess a support and sign pattern, resolve it with
    one dense solve, and move to the best point on the segment to that
    solution (its end or a sign-change crossing).
    """
    def objective(Q, b, x):
        return 0.5 * x @ (Q @ x) - b @ x + lam * np.abs(x).sum()

    x = np.array(x0, dtype=float)
    ktol = 1e-11 * max(1.0, np.abs(b).max(), lam)
    for _ in range(max_steps):
        active = x != 0.0
        sign = np.sign(x)
        g = Q @ x - b
        if not active.any() or np.abs(g[active] + lam * sign[active]).max() <= ktol:
            inactive = np.flatnonzero(~active)
            if inactive.size == 0:
                break
            i = inactive[np.argmax(np.abs(g[inactive]))]
            if abs(g[i]) <= lam + ktol:
                break
            active[i] = True
            sign[i] = -np.sign(g[i])
        A = np.flatnonzero(active)
        QA = Q[np.ix_(A, A)]
        try:
            new = np.linalg.solve(QA, b[A] - lam * sign[A])
        except np.linalg.LinAlgError:
            new = np.linalg.lstsq(QA, b[A] - lam * sign[A], rcond=None)[0]
        cur = x[A]
        best, best_f = new, objective(QA, b[A], new)
        for k in np.flatnonzero((cur != 0.0) & (np.sign(new) != np.sign(cur))):
            t = cur[k] / (cur[k] - new[k])
            if 0.0 < t <= 1.0:
                y = cur + t * (new - cur)
                y[k] = 0.0
                f = objective(QA, b[A], y)
                if f < best_f:
                    best, best_f = y, f
        x = np.zeros_like(x)
        x[A] = best
    return x


def objective_and_grad(U, problem):
    """A frozen copy of the arithmetic of mimic._objective_and_grad, from
    numpy and scipy alone.

    The same kernel block (n, S, k) of squared differences, in numpy's
    broadcast layout (with the Fortran-ordered G of a MimicProblem, a
    one-row block flattens to a Fortran-order view, which sends dgemv down
    another path than a copied block), the same Cholesky solve (cho_solve
    calls dpotrs as the package does) and every product and sum in the
    same order, so the two must agree bit for bit.
    lockstep_search calls the package's objective, so that tests can patch
    it for both searches; this copy is what pins the objective's own bits.
    """
    model = problem.model
    D = (problem.G[:, None, :] - U[None, :, :]) ** 2
    r = np.exp(-(D.reshape(-1, D.shape[-1]) @ problem.unit_weights)).reshape(D.shape[:-1])
    alpha = cho_solve((model.chol_R, True), r)
    r, alpha = np.ascontiguousarray(r.T), np.ascontiguousarray(alpha.T)
    g_m = model.mu + alpha @ model.resid - problem.target_log
    v = 1.0 - (r[:, None, :] @ alpha[:, :, None])[:, 0, 0]
    tr_sigma = problem.tr_sigma
    f = (g_m[:, None, :] @ g_m[:, :, None])[:, 0, 0] + np.maximum(v, 0.0) * tr_sigma
    Q = cho_solve((model.chol_R, True), model.resid)
    t = (2.0 * (g_m @ Q.T) - 2.0 * tr_sigma * alpha) * r
    grad = -2.0 * (U * t.sum(axis=1)[:, None] - t @ problem.G)
    return f, grad


def lockstep_search(U0, lo, hi, problem):
    """mimic._search with every start's state kept at full size, S rows.

    Each round gathers the live starts by index, solves a bound block for
    every row (the identity for a row with no bound coordinate) and labels
    stop reasons in an object array. The arithmetic per start is the
    package's, so the two must agree bit for bit. MAX_ITER, MAX_TRIALS,
    PG_TOL, F_TOL, ARMIJO and the objective are read from ``mimic`` at
    call time, so a test that patches one patches both searches.
    """
    S, k = U0.shape
    U = U0.copy()
    f, g = mimic._objective_and_grad(U, problem)
    f_start = f.copy()
    H = np.tile(np.eye(k), (S, 1, 1))
    fresh = np.ones(S, dtype=bool)  # H is an unscaled identity
    D = np.zeros_like(U)
    step_len = np.ones(S)
    trials = np.zeros(S, dtype=int)
    iterations = np.zeros(S, dtype=int)
    stop = np.full(S, "", dtype=object)
    row_dots = mimic._row_dots

    def settled(idx):
        return np.abs(np.clip(U[idx] - g[idx], lo, hi) - U[idx]).max(axis=1) <= mimic.PG_TOL

    def directions(U, g, H):
        bound = ((U <= lo) & (g > 0)) | ((U >= hi) & (g < 0))
        free = ~bound
        g_free = (g * free)[:, :, None]
        H_BB = H * (bound[:, :, None] & bound[:, None, :]) + np.eye(k) * free[:, None, :]
        w = np.linalg.solve(H_BB, (H @ g_free) * bound[:, :, None])
        return -(H @ (g_free - w))[:, :, 0] * free, free

    def bfgs_update(H, s, y, fresh):
        sy = row_dots(s, y)
        H = H.copy()
        H[fresh] *= (sy[fresh] / row_dots(y[fresh], y[fresh]))[:, None, None]
        Hy = (H @ y[:, :, None])[:, :, 0]
        rho = 1.0 / sy
        ss = ((rho + rho * rho * row_dots(y, Hy))[:, None, None]
              * (s[:, :, None] * s[:, None, :]))
        return H + ss - rho[:, None, None] * (Hy[:, :, None] * s[:, None, :]
                                              + s[:, :, None] * Hy[:, None, :])

    def aim(idx):
        d, free = directions(U[idx], g[idx], H[idx])
        reset = row_dots(g[idx], d) >= 0
        H[idx[reset]], fresh[idx[reset]] = np.eye(k), True
        d[reset] = -g[idx[reset]] * free[reset]
        D[idx], step_len[idx], trials[idx] = d, 1.0, 0

    live = ~settled(np.arange(S))
    stop[~live] = "gradient"
    aim(np.flatnonzero(live))
    while live.any():
        idx = np.flatnonzero(live)
        Ut = np.clip(U[idx] + step_len[idx, None] * D[idx], lo, hi)
        ft, gt = mimic._objective_and_grad(Ut, problem)
        step = Ut - U[idx]
        slope = row_dots(g[idx], step)
        ok = ft <= f[idx] + mimic.ARMIJO * slope

        bad, slope_bad = idx[~ok], slope[~ok]
        quad = -slope_bad * step_len[bad] / (2.0 * (ft[~ok] - f[bad] - slope_bad))
        step_len[bad] = np.clip(quad, 0.1 * step_len[bad], 0.5 * step_len[bad])
        trials[bad] += 1
        spent = bad[trials[bad] >= mimic.MAX_TRIALS]
        stop[spent], live[spent] = "line search", False

        acc = idx[ok]
        s_k, y_k = step[ok], gt[ok] - g[acc]
        reduction = f[acc] - ft[ok]
        scale = np.maximum(np.maximum(np.abs(f[acc]), np.abs(ft[ok])), 1.0)
        U[acc], f[acc], g[acc] = Ut[ok], ft[ok], gt[ok]
        iterations[acc] += 1
        curved = row_dots(s_k, y_k) > 1e-12 * (np.linalg.norm(s_k, axis=1)
                                               * np.linalg.norm(y_k, axis=1))
        upd = acc[curved]
        H[upd] = bfgs_update(H[upd], s_k[curved], y_k[curved], fresh[upd])
        fresh[upd] = False

        why = np.full(acc.size, "", dtype=object)
        why[iterations[acc] >= mimic.MAX_ITER] = "iterations"
        why[reduction <= mimic.F_TOL * scale] = "reduction"
        why[settled(acc)] = "gradient"
        ended = why != ""
        stop[acc[ended]], live[acc[ended]] = why[ended], False
        aim(acc[~ended])
    return U, f, f_start, iterations, stop


def central_diff_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g
