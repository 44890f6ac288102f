"""Sinusoidal fiber designs and space-filling samplers.

A design is parameterized by fiber diameter d and a sinusoidal center
line I(t) = A sin(2 pi omega t + phi) discretized on a uniform grid over
the 20 mm span. Training sets are Latin hypercube samples of the
4-dimensional box; test sets use a scrambled Sobol sequence so the two
samplers cannot share points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .exceptions import InvalidInputError, check_count, check_rate
from .spectral import StructureDesign, structure_times

DESIGN_BOX = {
    "d": (0.2, 2.0),
    "A": (0.0, 1.0),
    "omega": (0.0, 0.8),
    "phi": (0.0, 2.0 * np.pi),
}
BOX_KEYS = ("d", "A", "omega", "phi")
SCHEMES = ("lhs", "sobol")


@dataclass(frozen=True)
class SinusoidSpec:
    """Sinusoid parameters (d mm, A mm, omega 1/mm, phi rad), box-checked."""

    d: float
    A: float
    omega: float
    phi: float

    def __post_init__(self):
        # every box floor is >= 0, so each field is a rate before the box test
        for key in BOX_KEYS:
            value = check_rate(key, getattr(self, key))
            lo, hi = DESIGN_BOX[key]
            if value < lo or value > hi:
                raise InvalidInputError(
                    f"{key} = {value} outside the design box [{lo}, {hi}]")

    def as_array(self) -> np.ndarray:
        return np.array([self.d, self.A, self.omega, self.phi])


def gen_sinusoid(spec: SinusoidSpec, p: int) -> StructureDesign:
    """Discretize one sinusoid spec into a structure design.

    curve_k = A sin(2 pi omega t_k + phi) on p uniform points spanning
    20 mm; the sinusoid parameters are kept as the design's features.
    """
    t = structure_times(p)
    curve = spec.A * np.sin(2.0 * np.pi * spec.omega * t + spec.phi)
    return StructureDesign(diameter=spec.d, curve=curve, features=spec.as_array())


def sample_designs(n: int, seed: int = 0, scheme: str = "lhs") -> list[SinusoidSpec]:
    """Draw n sinusoid specs from the design box, deterministically in seed.

    "lhs" stratifies every 1-d projection into n cells with one point
    each; "sobol" uses a scrambled Sobol sequence (drawn at the next
    power of two and truncated, which keeps the generator warning-free
    and the points balanced).
    """
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    if scheme not in SCHEMES:
        raise InvalidInputError(f"unknown sampling scheme {scheme!r}")
    lo, hi = np.array([DESIGN_BOX[key] for key in BOX_KEYS]).T
    if scheme == "lhs":
        u = qmc.LatinHypercube(d=4, seed=seed).random(n)
    else:
        mpow = max(int(np.ceil(np.log2(n))), 0)
        u = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(mpow)[:n]
    points = lo + u * (hi - lo)
    return [SinusoidSpec(*row) for row in points.tolist()]

