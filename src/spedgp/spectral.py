"""Spectral features and correlation functions for functional inputs.

A structure is a real curve sampled on a uniform grid of p points (p odd)
plus a scalar fiber diameter. The kernel representation of the curve is
the modulus of its discrete Fourier transform over the half spectrum;
the curve is real, so bins above (p-1)/2 are redundant. Correlations are
Gaussian in weighted squared distances between feature rows: the
spectral features with the fiber diameter as a last, separately weighted
coordinate. Two baseline families share the same algebra and the same
diameter column with different heads: the [A, omega, phi] sinusoid
parameters and the raw curve values (a functional l2 distance). Every
correlation of the package, in fitting, prediction and inverse design, is
:func:`kernel` of squared feature-row differences.

Because the modulus spectrum is invariant under cyclic shifts of the
curve, so is the correlation: shifted copies of a structure are perfectly
correlated and the kernel is positive semi-definite but not strictly
positive definite. A small nugget on the matrix diagonal restores
factorizability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import (InvalidInputError, NumericalError, SingularMatrixError,
                         check_array, check_count, check_rate)

FAMILIES = ("sped", "feature_based", "l2_distance")

#: span of the structure grid in mm; t_k = k * span / (p - 1)
STRUCTURE_SPAN = 20.0


def half_size(p: int) -> int:
    """Number of half-spectrum bins for an odd curve length p."""
    return (p - 1) // 2 + 1


def check_curve_length(p) -> int:
    """p itself when it is a curve length: an odd integer >= 3 (not a bool),
    so the half spectrum has exactly (p-1)/2 + 1 bins."""
    if check_count("curve length", p, 0) % 2 == 0 or p < 3:
        raise InvalidInputError(f"curve length must be odd and >= 3, got {p!r}")
    return p


def as_structure_curve(values) -> np.ndarray:
    """A structure curve as a float array: a numeric vector (see
    :func:`check_array`) whose size is a curve length."""
    x = check_array("structure curve", values, (None,))
    check_curve_length(x.size)
    return x


@lru_cache(maxsize=None)
def _dft_basis(p: int) -> np.ndarray:
    """Read-only half-spectrum DFT matrix exp(-2i pi k l / p), k = 0 .. (p-1)/2."""
    k = np.arange(half_size(p))
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(p)) / p)
    basis.flags.writeable = False
    return basis


def dft_modulus(curve) -> np.ndarray:
    """Half-spectrum DFT moduli |x_hat_k| of a structure curve.

    Uses the unnormalized forward transform
    x_hat_k = sum_l x_l exp(-2i pi l k / p) for k = 0 .. (p-1)/2,
    computed by direct summation (p is small here) against a basis built
    once per p.
    """
    x = as_structure_curve(curve)
    return np.abs(_dft_basis(x.size) @ x)


def structure_times(p: int) -> np.ndarray:
    """Uniform sampling grid t_k = k * STRUCTURE_SPAN / (p - 1) of a structure curve."""
    return np.arange(check_curve_length(p)) * (STRUCTURE_SPAN / (p - 1))


@dataclass(frozen=True)
class StructureDesign:
    """A functional input: fiber diameter plus discretized structure curve.

    ``features`` optionally carries the [d, A, omega, phi] sinusoid
    provenance, whose [A, omega, phi] the feature_based kernel family
    reads; designs read from bare CSV files do not have it.
    """

    diameter: float
    curve: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "curve", as_structure_curve(self.curve))
        object.__setattr__(self, "diameter", float(check_rate("diameter", self.diameter)))
        if self.diameter == 0:
            raise InvalidInputError(f"diameter must be positive and finite, got {self.diameter}")
        if self.features is not None:
            object.__setattr__(self, "features", check_array("features", self.features, (4,)))

    @property
    def p(self) -> int:
        return self.curve.size


def check_weights(z, nz: int) -> np.ndarray:
    """Validate packed kernel weights z and return them as a float array.

    z is the package's one form of the kernel parameters: one weight per
    column of :func:`design_feature_rows`, the spectral (or feature, or
    curve-value) weights theta followed by the diameter weight theta_d.
    It must have shape (nz,) and be finite and nonnegative.
    """
    z = check_array("kernel weights", z, (nz,))
    if (z < 0).any():
        raise InvalidInputError("kernel weights must be finite and nonnegative")
    return z


def design_feature_row(design: StructureDesign, family: str) -> np.ndarray:
    """Kernel feature row of one design.

    The row's head is the design's moduli spectrum (sped), the
    [A, omega, phi] of its provenance (feature_based), or its curve values
    scaled by sqrt(dt) with dt = STRUCTURE_SPAN / (p - 1) (l2_distance,
    folding the Riemann measure into the features). Every family appends
    the diameter as the last coordinate, so with the packed weights of
    :func:`check_weights` every family is the same kernel. Head and
    diameter are copied into one row allocated for them.
    """
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown kernel family {family!r}")
    if family == "sped":
        head = dft_modulus(design.curve)
    elif family == "l2_distance":
        head = design.curve * np.sqrt(STRUCTURE_SPAN / (design.p - 1))
    elif design.features is None:
        raise InvalidInputError(
            "a design lacks the [d, A, omega, phi] provenance required "
            "by the feature_based family")
    else:
        head = design.features[1:]
    row = np.empty(head.size + 1)
    row[:-1] = head
    row[-1] = design.diameter
    return row


def curve_length(designs: list[StructureDesign]) -> int:
    """The curve length p shared by a nonempty design list."""
    if not designs:
        raise InvalidInputError("need at least one design")
    p = designs[0].p
    for i, dsn in enumerate(designs):
        if dsn.p != p:
            raise InvalidInputError(f"design {i} has p={dsn.p}, expected {p}")
    return p


def design_feature_rows(designs: list[StructureDesign], family: str) -> np.ndarray:
    """Kernel feature rows F (n x nz) of a design list: one
    :func:`design_feature_row` per design, all of one curve length."""
    curve_length(designs)
    rows = []
    for i, dsn in enumerate(designs):
        try:
            rows.append(design_feature_row(dsn, family))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{exc} (design {i})") from None
    return np.array(rows)


def sq_differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared coordinate differences between feature rows.

    (na, nb, nz) for row sets A and B, or (na, nz) when B is one row. The
    differences are squared in place, in the array (and memory layout)
    the broadcast subtraction allocates.
    """
    D = A - B if B.ndim == 1 else A[:, None, :] - B[None, :, :]
    return np.square(D, out=D)


def kernel(D: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The correlation exp(-sum_k z_k D[..., k]) on squared differences D.

    This is the only place the kernel exponent is computed. D comes from
    :func:`sq_differences` and z from :func:`check_weights`; D is
    flattened to one matrix-vector product over its last axis, whose
    result is negated and exponentiated in place.
    """
    e = D.reshape(-1, D.shape[-1]) @ z
    np.negative(e, out=e)
    return np.exp(e, out=e).reshape(D.shape[:-1])


def correlation_with_nugget(D: np.ndarray, z: np.ndarray, nugget: float) -> np.ndarray:
    """n x n correlation matrix on an (n, n, nz) stack, ``1 + nugget`` on the diagonal."""
    R = kernel(D, z)
    np.fill_diagonal(R, 1.0 + nugget)
    return R


def cholesky(A):
    """Lower Cholesky factor ``c`` of symmetric A; None if indefinite.

    The package's one factorization. It calls LAPACK dpotrf with the
    arguments scipy.linalg's lower Cholesky factorization of A.T passes it
    (in place, without a finiteness check), so the factor is bit for bit
    scipy's, without its per-call argument handling. A.T is A in Fortran
    order, factored in place when A is C-ordered; dpotrf reads only its
    lower triangle, the entries A[p, q] with q >= p.

    dpotrf does not report a NaN or inf in that triangle: it fails on it
    or carries it into the factor, where it reaches the diagonal. Both
    raise a numerical error: a failed factorization whose triangle (as
    dpotrf left it) holds a non-finite entry, and a factor with a
    non-finite diagonal. Only a finite indefinite matrix returns None, and
    the triangle is scanned only when dpotrf fails.
    """
    c, info = dpotrf(A.T, lower=True, overwrite_a=True, clean=False)
    if info > 0:
        # scanning the whole array is 5x cheaper than its triangle; the
        # triangle decides only when the array holds a NaN or inf
        if not np.isfinite(c).all() and not np.isfinite(np.tril(c)).all():
            raise NumericalError("matrix is not finite; its Cholesky factorization failed")
        return None
    if info < 0:
        raise NumericalError(f"dpotrf rejected argument {-info}")
    finite = np.isfinite(np.diagonal(c))
    if np.count_nonzero(finite) != finite.size:
        raise NumericalError("Cholesky factor is not finite; the matrix holds a NaN or inf")
    return c


def logdet(c) -> float:
    """log det A from A's factor ``c`` as returned by :func:`cholesky`."""
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def factor_correlation(R: np.ndarray, nugget: float):
    """Cholesky factorization (see :func:`cholesky`) of a correlation matrix.

    R is left as it is. A non-finite R raises a numerical error (dpotrf
    would pass its NaNs into the factor). Raises a singular-matrix error
    naming the most correlated pair of designs when the factorization
    fails even with the nugget; that pair is (numerically) a duplicate
    modulo cyclic shift.
    """
    if not np.isfinite(R).all():
        raise NumericalError("correlation matrix is not finite")
    # R.T.copy() is R in Fortran order, so dpotrf reads R's lower triangle
    cho = cholesky(R.T.copy())
    if cho is None:
        off = R - np.eye(R.shape[0]) * R[0, 0]
        i, j = np.unravel_index(np.argmax(off), off.shape)
        raise SingularMatrixError(
            f"correlation matrix not factorizable with nugget {nugget:g}; "
            f"designs {min(i, j)} and {max(i, j)} are near-duplicates "
            f"(correlation {R[i, j]:.12g})")
    return cho


def solve_factored(c, b) -> np.ndarray:
    """Solve A x = b given ``c``, A's lower factor from :func:`cholesky`.

    b is a vector or a matrix of right-hand sides. This calls LAPACK
    dpotrs with the arguments ``scipy.linalg.cho_solve`` passes it, so the
    result is bit for bit cho_solve's, without its per-call argument
    handling; it is the package's one Cholesky solve. The factor is
    trusted to come from a successful factorization; a non-finite b
    raises a numerical error.
    """
    # counting is cheaper than a logical_and reduction on small arrays
    finite = np.isfinite(b)
    if np.count_nonzero(finite) != finite.size:
        raise NumericalError("right-hand side of a Cholesky solve is not finite")
    x, info = dpotrs(c, b, lower=True)
    if info != 0:
        raise NumericalError(f"dpotrs rejected argument {-info}")
    return x


def correlation_from_features(F: np.ndarray, f_new: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Correlations between n stored rows and one feature row, shape (n,),
    or a block of S rows, shape (n, S).

    The inverse-design optimizer uses it to score blocks of candidate
    spectra without materializing a curve, and prediction to correlate a
    new design with the cached training rows.
    """
    return kernel(sq_differences(F, f_new), z)


def correlation_matrix(designs: list[StructureDesign], z, family: str,
                       nugget: float) -> np.ndarray:
    """n x n correlation matrix at packed weights z, ``1 + nugget`` on the diagonal."""
    F = design_feature_rows(designs, family)
    return correlation_with_nugget(sq_differences(F, F), check_weights(z, F.shape[1]),
                                   check_rate("nugget", nugget))


def cross_correlation(new: StructureDesign, designs: list[StructureDesign],
                      z, family: str) -> np.ndarray:
    """Correlations between one new design and n stored designs (no nugget)."""
    F = design_feature_rows(designs, family)
    if new.p != designs[0].p:
        raise InvalidInputError(f"curve lengths differ: {new.p} vs {designs[0].p}")
    f_new = design_feature_row(new, family)
    return correlation_from_features(F, f_new, check_weights(z, F.shape[1]))


def correlation_cholesky(designs: list[StructureDesign], z, family: str,
                         nugget: float):
    """Assemble R and its Cholesky factorization (see :func:`factor_correlation`)."""
    R = correlation_matrix(designs, z, family, nugget)
    return R, factor_correlation(R, nugget)
