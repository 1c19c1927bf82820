"""Secret key rates under collective attacks, asymptotic and finite-size.

Reverse reconciliation throughout: rate = beta * I_AB - chi_BE in the
asymptotic regime. Holevo bounds are evaluated numerically from the
models' covariance matrices through the generic symplectic-spectrum
pipeline; the published two-mode closed forms serve only as test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .calibration import CalibrationEstimate
from .gaussian import (
    MeasurementBasis,
    NumericalError,
    entropy_of_spectra,
    homodyne_conditioned,
    symplectic_spectra,
)
from .models import (
    CalibrationModel,
    SnuScenario,
    SystemParams,
    apply_miscalibration,
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
    two_mode_stack,
)

# Number of evenly spaced points scanned across the SNU confidence
# interval when taking the finite-size worst case. The rate need not be
# monotone in the SNU ratio, so both endpoints and the interior are
# sampled.
N0_SCAN_POINTS = 21

# The three-mode matrix must expose one unit symplectic eigenvalue (the
# detection beamsplitter's vacuum ancilla survives any rescaling).
_UNIT_EIGENVALUE_TOL = 1e-6


class Regime(Enum):
    ASYMPTOTIC = "asymptotic"
    FINITE_SIZE = "finite_size"


@dataclass(frozen=True)
class FiniteSizeParams:
    """Block accounting and failure probabilities of the finite-size analysis.

    block_length is the total number N of exchanged symbols,
    key_fraction the share n/N kept for key distillation, and
    calib_samples_m the number of calibration measurements behind the
    SNU confidence interval.
    """

    block_length: int
    key_fraction: float
    eps_pe: float
    eps_pa: float
    eps_smooth: float
    calib_samples_m: int
    dim_hx: int = 2

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError(f"block length must be positive, got {self.block_length}")
        if not 0.0 < self.key_fraction < 1.0:
            raise ValueError(f"key fraction must lie in (0, 1), got {self.key_fraction}")
        for name, p in (("eps_pe", self.eps_pe), ("eps_pa", self.eps_pa),
                        ("eps_smooth", self.eps_smooth)):
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {p}")
        if self.key_fraction * self.block_length < 1.0:
            raise ValueError("key share n = key_fraction * N must be at least 1")
        if self.dim_hx < 1:
            raise ValueError(f"raw-key alphabet dimension must be positive, got {self.dim_hx}")
        if not 1 <= self.calib_samples_m <= self.block_length:
            raise ValueError(
                f"calibration samples must lie in [1, N], got {self.calib_samples_m}"
            )

    @property
    def n_key(self) -> float:
        return self.key_fraction * self.block_length


@dataclass(frozen=True)
class KeyRateResult:
    """Secret key rate plus its decomposition.

    rate_bits_per_pulse may be negative; clamping to zero is left to the
    presentation layer. In the finite-size regime chi_be is the worst
    case over the scanned SNU interval and worst_n0 records where it was
    attained; delta_n is zero in the asymptotic regime.
    """

    rate_bits_per_pulse: float
    i_ab: float
    chi_be: float
    delta_n: float
    worst_n0: float
    model: CalibrationModel
    regime: Regime


def mutual_information(params: SystemParams) -> float:
    """Shannon information between Alice and Bob, identical for all models.

    I_AB = 1/2 log2((V + chi)/(chi + 1)) with the total noise referred to
    the channel input, chi = 1/(t * eta_d * eta_e) - 1 + eps_c. The same
    value follows from any model matrix as 1/2 log2(V_B / V_B|A) with
    Alice's mode heterodyned.
    """
    chi = 1.0 / (params.t * params.eta_d * params.eta_e) - 1.0 + params.eps_c
    return 0.5 * math.log2((params.v + chi) / (chi + 1.0))


def _n0_values(n0: float | np.ndarray) -> np.ndarray:
    """The SNU ratios of a Holevo evaluation as a 1-D array, checked positive."""
    values = np.atleast_1d(np.asarray(n0, dtype=float))
    if values.ndim != 1 or not np.all(values > 0.0):
        raise ValueError(f"n0 must be a positive scalar or 1-D array, got {n0!r}")
    return values


def _require_finite(values: np.ndarray, n0: np.ndarray, what: str) -> None:
    """Raise NumericalError naming the first n0 whose entry of `values` is not finite."""
    if np.isfinite(values).all():
        return
    finite = np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    bad = float(n0[np.argmin(finite)])
    raise NumericalError(f"non-finite {what} at n0 = {bad!r}")


def _spectra(stack: np.ndarray, n0: np.ndarray, what: str) -> np.ndarray:
    _require_finite(stack, n0, f"{what} matrix")
    spectra = symplectic_spectra(stack)
    _require_finite(spectra, n0, f"{what} symplectic spectrum")
    return spectra


def _conditional_entropy(measured: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """Entropies of the trusted modes left after ideal x-homodyne on B3 (mode 1)."""
    _require_finite(measured, n0, "measured matrix")
    cond = homodyne_conditioned(measured, 1, MeasurementBasis.X_QUADRATURE)
    return entropy_of_spectra(_spectra(cond, n0, "conditional"))


def _as_given(chi: np.ndarray, n0: float | np.ndarray) -> float | np.ndarray:
    """A float for a scalar n0, the array for a 1-D one."""
    return float(chi[0]) if np.ndim(n0) == 0 else chi


def holevo_two_mode(params: SystemParams, n0: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Eavesdropper information bound for the one-time two-mode model.

    chi_BE = S(A,B3) - S(A | b3) with the conditional state after ideal
    x-homodyne on B3. n0 is a scalar (float result) or a 1-D array of
    SNU ratios (one bound per entry, in one batched pass).
    """
    n0s = _n0_values(n0)
    g = two_mode_stack(params, n0s)
    chi = entropy_of_spectra(_spectra(g, n0s, "two-mode")) - _conditional_entropy(g, n0s)
    return _as_given(chi, n0)


def holevo_three_mode(params: SystemParams, n0: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Eavesdropper information bound for the one-time three-mode model.

    chi_BE = S(A,B3,C) - S(A,C | b3). One symplectic eigenvalue of each
    full matrix equals 1 by construction (the detection beamsplitter's
    vacuum ancilla); it contributes no entropy and is verified here for
    every n0 as an internal consistency check. n0 as in
    :func:`holevo_two_mode`.
    """
    n0s = _n0_values(n0)
    g = three_mode_stack(params, n0s)
    spectra = _spectra(g, n0s, "three-mode")
    lost = np.min(np.abs(spectra - 1.0), axis=-1) > _UNIT_EIGENVALUE_TOL
    if lost.any():
        i = int(np.argmax(lost))
        raise NumericalError(
            f"three-mode matrix lost its unit eigenvalue at n0 = {float(n0s[i])!r}: "
            f"spectrum {tuple(float(x) for x in spectra[i])}"
        )
    chi = entropy_of_spectra(spectra) - _conditional_entropy(g, n0s)
    return _as_given(chi, n0)


def holevo_conventional(params: SystemParams, n0: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Eavesdropper information bound for the conventional trusted model.

    Eve purifies only the channel output (A, B1), so her entropy comes
    from the pre-detector matrix; after Bob's homodyne the global state
    stays pure, so her conditional entropy equals that of the remaining
    trusted modes (A, F, G) in the full 8x8 model. n0 as in
    :func:`holevo_two_mode`.
    """
    n0s = _n0_values(n0)
    g_ab1 = conventional_channel_stack(params, n0s)
    g = conventional_stack(params, g_ab1)
    chi = entropy_of_spectra(_spectra(g_ab1, n0s, "channel")) - _conditional_entropy(g, n0s)
    return _as_given(chi, n0)


_HOLEVO = {
    CalibrationModel.ONE_TIME_TWO_MODE: holevo_two_mode,
    CalibrationModel.ONE_TIME_THREE_MODE: holevo_three_mode,
    CalibrationModel.CONVENTIONAL_TTE: holevo_conventional,
}


def key_rate_asymptotic(params: SystemParams, scenario: SnuScenario) -> KeyRateResult:
    """Asymptotic secret key rate at n0 = 1, rate = beta * I_AB - chi_BE."""
    eff = apply_miscalibration(params, scenario.calib_error)
    i_ab = mutual_information(eff)
    chi = _HOLEVO[scenario.model](eff, 1.0)
    return KeyRateResult(
        rate_bits_per_pulse=eff.beta * i_ab - chi,
        i_ab=i_ab,
        chi_be=chi,
        delta_n=0.0,
        worst_n0=1.0,
        model=scenario.model,
        regime=Regime.ASYMPTOTIC,
    )


def finite_size_penalty(fs: FiniteSizeParams) -> float:
    """Rate correction Delta(n) for finite raw-key length.

    (2 dim_hx + 3) sqrt(log2(2/eps_smooth)/n) + (2/n) log2(1/eps_pa),
    vanishing as n grows.
    """
    n = fs.n_key
    if n < 2.0:
        raise ValueError(f"finite-size penalty needs n >= 2, got {n}")
    return (2.0 * fs.dim_hx + 3.0) * math.sqrt(math.log2(2.0 / fs.eps_smooth) / n) \
        + (2.0 / n) * math.log2(1.0 / fs.eps_pa)


def key_rate_finite(params: SystemParams, scenario: SnuScenario,
                    fs: FiniteSizeParams, calib: CalibrationEstimate) -> KeyRateResult:
    """Finite-size secret key rate with the worst case over SNU fluctuation.

    The calibrated-over-true SNU ratio is scanned across the confidence
    interval normalized by its point estimate; beta*I_AB - chi_BE is
    evaluated on that grid in one batched Holevo call and minimized, the
    penalty Delta(n) subtracted, and the
    result scaled by the key fraction n/N. Channel-parameter fluctuation
    is out of scope; only the SNU-bearing matrix entries move.
    """
    if calib.lower <= 0.0 or calib.upper < calib.lower or calib.point <= 0.0:
        raise ValueError(
            f"invalid calibration interval [{calib.lower}, {calib.upper}] "
            f"around {calib.point}"
        )
    eff = apply_miscalibration(params, scenario.calib_error)
    i_ab = mutual_information(eff)
    n0 = np.linspace(calib.lower / calib.point, calib.upper / calib.point,
                     N0_SCAN_POINTS)
    chi = _HOLEVO[scenario.model](eff, n0)
    values = eff.beta * i_ab - chi
    # argmin takes the first of equal minima, as a strict-< scan would.
    worst = int(np.argmin(values))
    penalty = finite_size_penalty(fs)
    return KeyRateResult(
        rate_bits_per_pulse=fs.key_fraction * (float(values[worst]) - penalty),
        i_ab=i_ab,
        chi_be=float(chi[worst]),
        delta_n=penalty,
        worst_n0=float(n0[worst]),
        model=scenario.model,
        regime=Regime.FINITE_SIZE,
    )
