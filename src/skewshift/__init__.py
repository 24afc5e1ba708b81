"""Skew-shift Jacobi cocycles on the two-torus.

Transfer matrices and overflow-safe cocycle products, finite-scale Lyapunov
exponents, the avalanche principle for 2x2 matrix sequences, empirical
large-deviation measurements, and a multiscale induction verifier, plus a
CLI front end (``skewshift``).
"""

from .torus import TorusPoint, Frequency, skew_shift, skew_shift_iterate
from .model import TrigPoly1, TrigPoly2, JacobiModel, derive_constants, load_model
from .cocycle import CocycleProduct, fundamental_matrix
from .lyapunov import Sampler, LyapunovEstimate, lyapunov_finite, lyapunov_profile
from .avalanche import AvalancheReport, avalanche_check, avalanche_on_cocycle
from .deviation import DeviationReport, deviation_measure, lojasiewicz_probe
from .multiscale import (
    InductionRecord, ScaleSchedule, induction_step, induction_steps, scale_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "TorusPoint", "Frequency", "skew_shift", "skew_shift_iterate",
    "TrigPoly1", "TrigPoly2", "JacobiModel", "derive_constants", "load_model",
    "CocycleProduct", "fundamental_matrix",
    "Sampler", "LyapunovEstimate", "lyapunov_finite", "lyapunov_profile",
    "AvalancheReport", "avalanche_check", "avalanche_on_cocycle",
    "DeviationReport", "deviation_measure", "lojasiewicz_probe",
    "InductionRecord", "ScaleSchedule", "induction_step", "induction_steps",
    "scale_schedule",
]
