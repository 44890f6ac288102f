"""Synthetic stress-strain response generator.

Stands in for the finite-element simulator: maps a design to a stress
curve O(s) = a s^b + g s^2 whose coefficients depend only on the fiber
diameter and on a fixed weighted band of DFT moduli of the structure.
Because the curve is a function of moduli alone, cyclically shifted (or
re-phased, at matched moduli) structures respond identically, while
frequency content inside the active band moves the scale a, the shape
exponent b, and the second-order stiffening gain g. The exponent
crosses 1 inside the design box, so both strain-stiffening and
strain-softening materials occur.

The quadratic term models a second load path engaging at large strain.
It also matters statistically: log responses of a pure power law lie in
a two-dimensional subspace shared by all designs, which an emulator
with a free output covariance can absorb without looking at the inputs
at all. The sum makes the log-response manifold genuinely nonlinear in
the design, so input correlations carry real information.

The constants below are frozen; golden regression files pin their
output. Changing any of them invalidates every stored benchmark.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError, check_array
from .spectral import StructureDesign, dft_modulus

# frequency indices (half-spectrum) that drive the response, and their weights
ACTIVE_BAND = np.arange(2, 9)
BAND_WEIGHTS = np.array([0.5, 0.8, 1.0, 1.2, 1.0, 0.8, 0.5])

AMP_BASE = 0.8
AMP_DIAM = 0.55
AMP_BAND = 0.5
EXP_BASE = 0.62
EXP_DIAM = 0.22
EXP_BAND = 0.48
EXP_GAIN = 1.5
QUAD_GAIN = 0.75
QUAD_BAND = 1.5
QUAD_DIAM = 0.9

MIN_ORACLE_P = 17  # band index 8 must sit inside the half spectrum


def band_feature(curve) -> float:
    """Weighted mean of the active-band DFT moduli, normalized by 2/p."""
    moduli = dft_modulus(curve)
    p = 2 * moduli.size - 1  # the curve length of a half spectrum of that size
    if p < MIN_ORACLE_P:
        raise InvalidInputError(
            f"oracle needs p >= {MIN_ORACLE_P} so the active band fits, got {p}")
    return float(2.0 / p * (BAND_WEIGHTS @ moduli[ACTIVE_BAND]))


def power_params(d: float, w: float) -> tuple[float, float]:
    """Scale a and exponent b of the power-law response.

    a grows with diameter and band energy; b rises from the softening
    regime through 1 into stiffening as either grows (tanh keeps the
    exponent bounded).
    """
    a = AMP_BASE * np.exp(AMP_DIAM * d + AMP_BAND * w)
    b = EXP_BASE + EXP_DIAM * d + EXP_BAND * np.tanh(EXP_GAIN * w)
    return float(a), float(b)


def quad_gain(d: float, w: float) -> float:
    """Gain g of the quadratic second-load-path term g s^2.

    Grows with band energy and shrinks with diameter; always nonnegative,
    scaled relative to a so the term stays a modest (< 20%) correction at
    the largest strain.
    """
    a, _ = power_params(d, w)
    return float(QUAD_GAIN * a * (1.0 + np.tanh(QUAD_BAND * w - QUAD_DIAM * d)))


def power_curve(a: float, b: float, grid) -> np.ndarray:
    """Evaluate a s^b on a positive strain grid."""
    grid = check_array("strain grid", grid, (None,))
    if np.any(grid <= 0):
        raise InvalidInputError("power-law responses need strictly positive strain")
    return a * grid ** b


def synthetic_oracle(design: StructureDesign, grid) -> np.ndarray:
    """Stress response of one design on the given strain grid (MPa)."""
    w = band_feature(design.curve)
    a, b = power_params(design.diameter, w)
    g = quad_gain(design.diameter, w)
    grid = check_array("strain grid", grid, (None,))
    return power_curve(a, b, grid) + g * grid ** 2
