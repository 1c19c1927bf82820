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
)
from .gaussian import NumericalError
from .keyrate import (
    FiniteSizeParams,
    KeyRateResult,
    holevo_bound,
    key_rate,
)
from .models import (
    CalibrationModel,
    SystemParams,
    apply_miscalibration,
    transmittance_from_km,
)

__version__ = "0.1.0"

__all__ = [
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
    "holevo_bound",
    "key_rate",
    "transmittance_from_km",
]
