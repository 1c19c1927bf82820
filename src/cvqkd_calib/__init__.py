"""Shot-noise-unit calibration models and secret key rates for Gaussian
continuous-variable QKD.

The package builds the entanglement-based covariance matrices of the
conventional two-time calibration model and of the one-time two-mode and
three-mode models, evaluates secret key rates under collective attacks in
the asymptotic and finite-size regimes, and simulates the calibration
statistics themselves. The batched Gaussian-state kernels live in
:mod:`cvqkd_calib.gaussian` and the covariance-stack builders in
:mod:`cvqkd_calib.models`.
"""

from .calibration import (
    CalibrationEstimate,
    CalibrationMethod,
    NoiseGroundTruth,
    confidence_interval_ote,
    confidence_interval_tte,
    deviation_curve,
    estimate_variance,
    sample_homodyne,
    z_quantile,
)
from .gaussian import NumericalError
from .keyrate import (
    FiniteSizeParams,
    KeyRateResult,
    Regime,
    finite_size_penalty,
    holevo_conventional,
    holevo_three_mode,
    holevo_two_mode,
    key_rate_asymptotic,
    key_rate_finite,
    mutual_information,
)
from .models import (
    ALPHA_DB_PER_KM,
    CalibrationModel,
    SnuScenario,
    SystemParams,
    apply_miscalibration,
    eta_e_from_noise,
    transmittance_from_km,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_DB_PER_KM",
    "CalibrationEstimate",
    "CalibrationMethod",
    "CalibrationModel",
    "FiniteSizeParams",
    "KeyRateResult",
    "NoiseGroundTruth",
    "NumericalError",
    "Regime",
    "SnuScenario",
    "SystemParams",
    "apply_miscalibration",
    "confidence_interval_ote",
    "confidence_interval_tte",
    "deviation_curve",
    "estimate_variance",
    "eta_e_from_noise",
    "finite_size_penalty",
    "holevo_conventional",
    "holevo_three_mode",
    "holevo_two_mode",
    "key_rate_asymptotic",
    "key_rate_finite",
    "mutual_information",
    "sample_homodyne",
    "transmittance_from_km",
    "z_quantile",
]
