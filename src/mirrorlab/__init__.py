"""Verification toolkit for the genus-2 mirror construction.

Exact theta-section algebra and triangle counting over the polarization
lattice, tropical honeycomb geometry of the moment body, disc and sphere
counting series, a sampled positivity certificate for the interpolated
Kähler metric, and the fiber monodromy table.
"""

from .lattice import (
    GAMMA_P,
    GAMMA_PP,
    LatticeVector,
    MomentPoint,
    coset_reps,
    gamma_act_moment,
    kappa,
    lambda_map,
    norm_form,
)
from .series import LaurentSection, TauSeries, section_mul, section_mul_decompose, theta_section

__version__ = "0.1.0"

__all__ = [
    "GAMMA_P",
    "GAMMA_PP",
    "LatticeVector",
    "LaurentSection",
    "MomentPoint",
    "TauSeries",
    "coset_reps",
    "gamma_act_moment",
    "kappa",
    "lambda_map",
    "norm_form",
    "section_mul",
    "section_mul_decompose",
    "theta_section",
]
