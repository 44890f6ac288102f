"""Spectral-distance co-kriging for fibrous metamaterial response curves.

Emulates stress-strain curves of 3D-printed fiber structures from a
diameter plus a discretized center-line curve, with a correlation kernel
built on DFT moduli (invariant to cyclic shifts of the structure),
sparse penalized estimation, and inverse design of a structure that
mimics a target curve.
"""

from .cokrige import (Prediction, TrainedEmulator, default_strain_grid,
                      hpd_interval, load_model, log_stress, mean_basis,
                      predict, save_model, unlog_stress)
from .dataio import Dataset, load_dataset, save_dataset
from .design import DESIGN_BOX, SinusoidSpec, gen_sinusoid, sample_designs
from .estimate import (FitConfig, FitTrace, beta_step, fit, glasso_kkt_residual,
                       graphical_lasso, neg_log_posterior, select_penalties,
                       sigma_step, theta_step)
from .exceptions import (ConvergenceError, FitError, InvalidInputError,
                         NumericalError, SingularMatrixError)
from .metrics import MetricsReport, evaluate, mare, moduli_and_kappa
from .mimic import (MimicProblem, MimicResult, build_problem, optimize,
                    reconstruct_structure)
from .oracle import synthetic_oracle
from .spectral import StructureDesign, dft_modulus

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DESIGN_BOX", "Dataset", "FitConfig", "FitError",
    "FitTrace", "InvalidInputError", "MetricsReport", "MimicProblem",
    "MimicResult", "NumericalError", "Prediction", "SingularMatrixError",
    "SinusoidSpec", "StructureDesign", "TrainedEmulator", "beta_step",
    "build_problem", "default_strain_grid", "dft_modulus", "evaluate", "fit",
    "gen_sinusoid", "glasso_kkt_residual", "graphical_lasso", "hpd_interval",
    "load_dataset", "load_model", "log_stress", "mare", "mean_basis",
    "moduli_and_kappa", "neg_log_posterior", "optimize", "predict",
    "reconstruct_structure", "sample_designs", "save_dataset", "save_model",
    "select_penalties", "sigma_step", "synthetic_oracle", "theta_step",
    "unlog_stress",
]
