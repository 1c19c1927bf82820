"""Shot-noise-unit calibration models and secret key rates for Gaussian
continuous-variable QKD.

The package builds the entanglement-based covariance matrices of the
conventional two-time calibration model and of the one-time two-mode and
three-mode models, evaluates secret key rates under collective attacks in
the asymptotic and finite-size regimes, and bounds the calibration
statistics themselves. The batched Gaussian-state kernels live in
:mod:`cvqkd_calib.gaussian` and the covariance-stack builders in
:mod:`cvqkd_calib.models`.
"""

from .calibration import (
    CalibrationEstimate,
    NoiseGroundTruth,
    confidence_interval,
    deviation_curve,
    z_quantile,
)
from .gaussian import NumericalError
from .keyrate import (
    FiniteSizeParams,
    KeyRateResult,
    finite_size_penalty,
    holevo_bound,
    key_rate,
    mutual_information,
)
from .models import (
    ALPHA_DB_PER_KM,
    CalibrationModel,
    SystemParams,
    apply_miscalibration,
    transmittance_from_km,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_DB_PER_KM",
    "CalibrationEstimate",
    "CalibrationModel",
    "FiniteSizeParams",
    "KeyRateResult",
    "NoiseGroundTruth",
    "NumericalError",
    "SystemParams",
    "apply_miscalibration",
    "confidence_interval",
    "deviation_curve",
    "finite_size_penalty",
    "holevo_bound",
    "key_rate",
    "mutual_information",
    "transmittance_from_km",
    "z_quantile",
]
