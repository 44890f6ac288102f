"""Separable co-kriging of log-stress curves over a fixed strain grid.

The model treats the n training responses, stacked as an (n*m)-vector of
log-stress values, as one draw of a Gaussian process with mean
1_n (x) P beta and covariance R_theta (x) Sigma. Separability makes the
conditional distribution at a new design collapse to

    mean = P beta + Yc' R^{-1} r,        cov = (1 - r' R^{-1} r) Sigma,

with Yc the row-centered training matrix and r the cross-correlation
vector, so prediction never touches an (nm) x (nm) matrix. All modeling
happens in log-stress space; stress metrics are computed after the back
transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .dataio import as_strain_grid, read_json, write_json
from .exceptions import (InvalidInputError, NumericalError, check_array, check_count,
                         check_rate)
from .spectral import (DIAMETER_FAMILIES, StructureDesign, check_weights,
                       cholesky, correlation_from_features, correlation_with_nugget,
                       design_feature_row, design_feature_rows, factor_correlation,
                       solve_factored, sq_differences)

#: negative v beyond this magnitude is treated as a real inconsistency
V_TOLERANCE = 1e-8
#: diagonal inflation of every fitted R, there only so that R factors
NUGGET = 1e-8


def default_strain_grid() -> np.ndarray:
    """41 uniform strain levels on [0.375%, 15%]; s = 0 is excluded.

    Stress is identically zero at zero strain and the log bases are
    undefined there, so the boundary point is reported separately by
    consumers rather than modeled.
    """
    return np.linspace(0.00375, 0.15, 41)


def mean_basis(grid) -> np.ndarray:
    """Basis matrix P = [1_m, log(s)] of the power-law mean in log space.

    With beta_2 > 0 the mean log(stress) = beta_1 + beta_2 log(s) is the
    log of a monotone power law a * s^b.
    """
    s = as_strain_grid(grid)
    return np.column_stack([np.ones(s.size), np.log(s)])


def log_stress(values) -> np.ndarray:
    """Elementwise log transform of a numeric array of any shape; stresses
    must be strictly positive."""
    v = check_array("stress values", values, None)
    if np.any(v <= 0):
        raise InvalidInputError("stress values must be positive for the log transform")
    return np.log(v)


def unlog_stress(values) -> np.ndarray:
    """Inverse of :func:`log_stress`."""
    return np.exp(check_array("log-stress values", values, None))


@dataclass
class FitData:
    """Training state shared by estimation, prediction and inverse design.

    Y holds log-stress rows and P the mean basis of the grid. F holds the
    kernel feature rows of :func:`design_feature_rows`, with the diameter
    as the (unpenalized) last column for the families that keep it
    separate, and D = sq_differences(F, F) stacks one n x n matrix of
    squared differences per column. The packed weight vector z of
    :func:`check_weights` follows the same layout; it is the package's one
    form of the kernel parameters, and :meth:`unpack` reads (theta,
    theta_d) off it. Built and validated by :func:`make_fit_data` only.
    """

    designs: list
    Y: np.ndarray
    grid: np.ndarray
    P: np.ndarray
    F: np.ndarray
    D: np.ndarray
    nugget: float
    family: str

    @property
    def p(self) -> int:
        return self.designs[0].p

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def m(self) -> int:
        return self.Y.shape[1]

    @property
    def nz(self) -> int:
        return self.D.shape[2]

    @property
    def has_diameter(self) -> bool:
        return self.family in DIAMETER_FAMILIES

    def unpack(self, z):
        """(theta, theta_d) of packed weights z, validated by :func:`check_weights`;
        theta_d is 0 without a diameter column."""
        z = check_weights(z, self.nz)
        if not self.has_diameter:
            return z.copy(), 0.0
        return z[:-1].copy(), float(z[-1])

    def penalty_mask(self) -> np.ndarray:
        """1 for coordinates inside the lambda_I penalty, 0 for theta_d."""
        mask = np.ones(self.nz)
        if self.has_diameter:
            mask[-1] = 0.0
        return mask

    def residuals(self, beta) -> np.ndarray:
        """Residual matrix E = Y - 1 (P beta)' of mean coefficients beta,
        which must be finite with one entry per column of P."""
        return self.Y - self.P @ check_array("beta", beta, (self.P.shape[1],))

    def correlation(self, z: np.ndarray) -> np.ndarray:
        return correlation_with_nugget(self.D, z, self.nugget)

    def chol(self, z: np.ndarray):
        R = self.correlation(z)
        return R, factor_correlation(R, self.nugget)


def make_fit_data(designs, Y_log, grid, family: str = "sped",
                  nugget: float = NUGGET) -> FitData:
    """Assemble and validate the training state from log responses."""
    check_rate("nugget", nugget)
    grid = as_strain_grid(grid)
    Y = check_array("responses", Y_log, (len(designs), grid.size))
    if len(designs) < 2:
        raise InvalidInputError("need at least 2 designs to fit")
    F = design_feature_rows(designs, family)
    _check_distinct(F)
    return FitData(designs=list(designs), Y=Y, grid=grid, P=mean_basis(grid),
                   F=F, D=sq_differences(F, F), nugget=nugget, family=family)


def _check_distinct(F):
    # duplicate kernel features make R exactly singular without a nugget;
    # close[i, j] is np.allclose(F[i], F[j]), and the first pair i < j is named
    close = np.isclose(F[:, None, :], F[None, :, :], rtol=1e-12, atol=1e-12).all(axis=2)
    pairs = np.argwhere(np.triu(close, k=1))
    if pairs.size:
        i, j = pairs[0]
        raise InvalidInputError(
            f"designs {i} and {j} are identical up to cyclic shift; "
            "the training set must be distinct modulo shifts")


@dataclass
class TrainedEmulator:
    """Fitted co-kriging model plus cached factorizations.

    Built on the fit's training state ``data`` and the fitted packed
    weights z, mean coefficients beta and covariance Sigma. z is validated
    by :func:`check_weights`, and Sigma must be finite, symmetric and
    positive definite (:func:`cholesky` factors it). The correlation
    matrix R with its factorization and the residuals are derived in
    __post_init__ and never mutated; predict and downstream consumers
    treat instances as read-only.
    """

    data: FitData
    z: np.ndarray
    beta: np.ndarray
    Sigma: np.ndarray
    fit_metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        data = self.data
        self.z = check_weights(self.z, data.nz)
        self.beta = check_array("beta", self.beta, (data.P.shape[1],))
        self.Sigma = check_array("Sigma", self.Sigma, (data.m, data.m))
        # grid and R (below) stay attributes: perfbench/workloads.py reads them
        self.grid = data.grid
        if not np.allclose(self.Sigma, self.Sigma.T, atol=1e-10):
            raise InvalidInputError("Sigma must be symmetric")
        if cholesky(self.Sigma.copy()) is None:
            raise InvalidInputError("Sigma must be positive definite")
        self.resid = data.residuals(self.beta)
        if self.beta.size >= 2 and self.beta[1] <= 0:
            raise InvalidInputError("beta_2 must be positive (monotone mean constraint)")
        self.R, self.chol_R = data.chol(self.z)
        self.mu = data.P @ self.beta


@dataclass
class Prediction:
    """Predictive normal at one design: mean in log space, covariance v * Sigma."""

    mean: np.ndarray
    scale: float
    Sigma: np.ndarray

    def covariance(self) -> np.ndarray:
        return self.scale * self.Sigma


def _clamp_scale(v: float) -> float:
    if v < -V_TOLERANCE:
        raise NumericalError(f"predictive scale v = {v:.3e} is negative beyond tolerance")
    return min(max(v, 0.0), 1.0)


def predict_from_point(model: TrainedEmulator, r: np.ndarray) -> Prediction:
    """Conditional normal given a precomputed cross-correlation vector."""
    alpha = solve_factored(model.chol_R, r)
    mean = model.resid.T @ alpha
    mean += model.mu
    v = _clamp_scale(1.0 - float(r @ alpha))
    return Prediction(mean=mean, scale=v, Sigma=model.Sigma)


def predict(model: TrainedEmulator, new: StructureDesign) -> Prediction:
    """Predictive distribution of the log-stress curve at a new design.

    Only the new design's feature row is computed; the training rows are
    the model's cached F.
    """
    data = model.data
    if new.p != data.p:
        raise InvalidInputError(f"new design has p={new.p}, model expects {data.p}")
    f_new = design_feature_row(new, data.family)
    r = correlation_from_features(data.F, f_new, model.z)
    return predict_from_point(model, r)


def hpd_interval(pred: Prediction, level: float):
    """Pointwise HPD interval endpoints (log space) at the given level.

    Gaussian marginals make the HPD interval the symmetric one:
    mean_j +/- z_(1+level)/2 sqrt(v Sigma_jj). The quantile comes from
    scipy.special.ndtri, the function scipy.stats.norm.ppf evaluates, with
    the same bits and without norm.ppf's per-call argument handling. The
    half width is built in place in one array, from a view of Sigma's
    diagonal; the upper endpoint reuses it.
    """
    if not 0 < check_rate("level", level) < 1:
        raise InvalidInputError(f"level must be a number in (0,1), got {level!r}")
    if not -V_TOLERANCE <= pred.scale < np.inf:  # NaN fails both
        raise NumericalError(
            f"expected a finite, nonnegative predictive scale, got {pred.scale:.3e}")
    half = pred.Sigma.diagonal() * max(pred.scale, 0.0)
    np.sqrt(half, out=half)
    half *= ndtri(0.5 * (1.0 + level))
    lower = pred.mean - half
    half += pred.mean
    return lower, half


def save_model(model: TrainedEmulator, path) -> None:
    """Serialize the emulator to a JSON document.

    Sigma is stored densely; the correlation factorization is recomputed
    on load so the file stays self-describing and consistent. The
    weights are written unpacked, as theta and theta_d.
    """
    data = model.data
    theta, theta_d = data.unpack(model.z)
    doc = {
        "p": data.p,
        "strain_grid": data.grid.tolist(),
        "designs": [
            {
                "d": dsn.diameter,
                "curve": dsn.curve.tolist(),
                "features": None if dsn.features is None else dsn.features.tolist(),
            }
            for dsn in data.designs
        ],
        "Y": data.Y.tolist(),
        "theta": theta.tolist(),
        "theta_d": theta_d,
        "nugget": data.nugget,
        "beta": model.beta.tolist(),
        "Sigma": model.Sigma.tolist(),
        "family": data.family,
        "fit_metadata": model.fit_metadata,
    }
    write_json(path, doc)


def load_model(path) -> TrainedEmulator:
    """Read a model written by :func:`save_model`.

    Each value reaches the rule of its owner as the file holds it:
    :class:`StructureDesign` checks each design, :func:`make_fit_data` the
    training rows, as a fit's are, and :class:`TrainedEmulator` theta with
    theta_d, beta and Sigma. Only p (a count, against the curve length) and
    theta_d (a rate, for every family) are checked here. A string, a bool,
    None or a ragged list in any value raises an invalid-input error. So
    does a file :func:`read_json` rejects, a missing key or any other value
    of the wrong type; those errors name the file.
    """
    doc, name = read_json(path), Path(path).name
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise InvalidInputError(f"{name} lacks the key {exc}") from exc
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} holds a value of the wrong type: {exc}") from exc


def _model_from_doc(doc: dict) -> TrainedEmulator:
    designs = [StructureDesign(entry["d"], entry["curve"], entry.get("features"))
               for entry in doc["designs"]]
    data = make_fit_data(designs, doc["Y"], doc["strain_grid"],
                         family=doc["family"], nugget=doc["nugget"])
    p = check_count("p", doc["p"], 1)
    if p != data.p:
        raise InvalidInputError(f"p = {p!r} does not match the curve length {data.p}")
    # theta_d is checked for every family and kept where the diameter has a column
    theta_d = check_rate("theta_d", doc["theta_d"])
    return TrainedEmulator(
        data=data, z=[*doc["theta"], theta_d] if data.has_diameter else doc["theta"],
        beta=doc["beta"], Sigma=doc["Sigma"], fit_metadata=doc.get("fit_metadata", {}),
    )
