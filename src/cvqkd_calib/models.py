"""Entanglement-based covariance models for the three SNU calibration schemes.

Three receiver models are built here, all sharing the same prepare-and-
measure statistics but differing in how much of the detector is trusted:

* conventional: two-step calibration (electronic noise measured
  separately); detection efficiency and electronic noise are both
  trusted, the latter modeled by an EPR source coupled through the
  detection beamsplitter.
* one-time two-mode: single-step calibration; only modes (A, B3) enter
  the security analysis, so every detector imperfection is handed to the
  eavesdropper.
* one-time three-mode: single-step calibration with the detection-
  efficiency loss mode C kept on the trusted side; the electronic noise
  becomes an untrusted loss of transmittance eta_e.

Each builder returns a plain stack (N, 2n, 2n), one matrix per entry of
a scalar or 1-D array of SNU ratios n0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .gaussian import mix_on_beamsplitter, with_vacuum

# Fiber attenuation used to convert link distance to transmittance,
# T = 10^(-ALPHA_DB_PER_KM * L / 10). Standard telecom value.
ALPHA_DB_PER_KM = 0.2


class CalibrationModel(Enum):
    CONVENTIONAL_TTE = "conventional"
    ONE_TIME_TWO_MODE = "two_mode"
    ONE_TIME_THREE_MODE = "three_mode"


@dataclass(frozen=True)
class SystemParams:
    """Protocol, channel and detector parameters, all in shot-noise units.

    v is the EPR source variance (> 1), t the channel transmittance,
    eps_c the channel excess noise referred to the channel input, eta_d
    the detection efficiency, v_ele the electronic noise variance, beta
    the reconciliation efficiency, v_rin an optional relative-intensity
    noise variance treated as additive Gaussian noise at the detector.
    """

    v: float
    t: float
    eps_c: float
    eta_d: float
    v_ele: float
    beta: float
    v_rin: float = 0.0

    def __post_init__(self) -> None:
        if not self.v > 1.0:
            raise ValueError(f"EPR variance must exceed 1, got {self.v}")
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"transmittance must lie in (0, 1], got {self.t}")
        if self.eps_c < 0.0:
            raise ValueError(f"excess noise must be nonnegative, got {self.eps_c}")
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"detection efficiency must lie in (0, 1], got {self.eta_d}")
        if self.v_ele < 0.0:
            raise ValueError(f"electronic noise must be nonnegative, got {self.v_ele}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"reconciliation efficiency must lie in (0, 1], got {self.beta}")
        if self.v_rin < 0.0:
            raise ValueError(f"RIN variance must be nonnegative, got {self.v_rin}")

    @property
    def eta_e(self) -> float:
        """Electronic-noise beamsplitter transmittance of this detector."""
        return eta_e_from_noise(self.v_ele, self.v_rin)


@dataclass(frozen=True)
class SnuScenario:
    """Which calibration model to evaluate, and how the SNU is (mis)known.

    calib_error is a signed fractional miscalibration delta applied
    through :func:`apply_miscalibration` before rate evaluation.
    """

    model: CalibrationModel
    calib_error: float = 0.0

    def __post_init__(self) -> None:
        if not 1.0 + self.calib_error > 0.0:
            raise ValueError(f"calibration error {self.calib_error} leaves no signal")


def eta_e_from_noise(v_ele: float, v_rin: float = 0.0) -> float:
    """Transmittance that absorbs additive detector noise as a loss.

    In shot-noise units the LO power normalizes to 1, so the joint
    one-time unit is 1 + v_ele + v_rin and the equivalent beamsplitter
    transmittance is its reciprocal.
    """
    if v_ele < 0.0 or v_rin < 0.0:
        raise ValueError("noise variances must be nonnegative")
    return 1.0 / (1.0 + v_ele + v_rin)


def _blocks4(a, c, b) -> np.ndarray:
    """Stack (N, 4, 4) of [[a I2, c sigma_z], [c sigma_z, b I2]] over broadcast a, c, b."""
    g = np.zeros((max(np.size(a), np.size(c), np.size(b)), 4, 4))
    g[:, 0, 0] = g[:, 1, 1] = a
    g[:, 2, 2] = g[:, 3, 3] = b
    g[:, 0, 2] = g[:, 2, 0] = c
    g[:, 1, 3] = g[:, 3, 1] = -c
    return g


def _n0_array(n0: float | np.ndarray) -> np.ndarray:
    return np.atleast_1d(np.asarray(n0, dtype=float))


def _channel_output(params: SystemParams) -> np.ndarray:
    v, t, ec = params.v, params.t, params.eps_c
    cross = math.sqrt(t * (v * v - 1.0))
    vb = t * (v - 1.0 + ec) + 1.0
    return _blocks4(v, cross, vb)[0]


def two_mode_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Covariances (N, 4, 4) of (A, B3) for the one-time two-mode model.

    Bob's block carries the full product transmittance t*eta_d*eta_e and,
    for n0 != 1, the calibrated-over-true SNU ratio divides his variance
    and scales the cross correlation by 1/sqrt(n0). One matrix per entry
    of the scalar or 1-D n0.
    """
    n0 = _n0_array(n0)
    v = params.v
    tau = params.t * params.eta_d * params.eta_e
    cross = np.sqrt(tau * (v * v - 1.0) / n0)
    vb = (tau * (v - 1.0 + params.eps_c) + 1.0) / n0
    return _blocks4(v, cross, vb)


def three_mode_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Covariances (N, 6, 6) of (A, B3, C) for the one-time three-mode model.

    Built by the physical sequence: channel output, vacuum ancilla mixed
    on the electronic-noise beamsplitter eta_e (its reflected mode is
    unobservable and traced out), then a second vacuum ancilla mixed on
    the detection-efficiency beamsplitter eta_d whose reflected mode C
    stays on the trusted side. The key rate depends on t and eta_e only
    through their product, and only that product is observable, so this
    model is also the worst-case split that security requires: the
    untrusted channel takes all of the measured loss t*eta_e.

    For n0 != 1 the B3 entries are rescaled and the unobserved mode C is
    reconstructed from the rescaled Bob variance through the trusted
    eta_d relations, which is how the receiver would rebuild the state
    from miscalibrated data. The choice is made per entry of n0.
    """
    n0 = _n0_array(n0)
    g = with_vacuum(_channel_output(params))
    g = mix_on_beamsplitter(g, 1, 2, params.eta_e)[:4, :4]
    g = mix_on_beamsplitter(with_vacuum(g), 1, 2, params.eta_d)
    out = np.broadcast_to(g, (n0.shape[0], 6, 6)).copy()
    moved = n0 != 1.0
    if moved.any():
        out[moved] = _rescale_three_mode(g, params.eta_d, n0[moved])
    return out


def _rescale_three_mode(g: np.ndarray, eta_d: float, n0: np.ndarray) -> np.ndarray:
    """Apply each SNU ratio to B3 and rebuild mode C from trusted relations."""
    vb3 = g[2, 2] / n0
    cab3 = g[0, 2] / np.sqrt(n0)
    vc = (vb3 - 1.0) * (1.0 - eta_d) / eta_d + 1.0
    cac = cab3 * math.sqrt((1.0 - eta_d) / eta_d)
    cb3c = (vb3 - 1.0) * math.sqrt((1.0 - eta_d) * eta_d) / eta_d
    out = np.zeros((n0.shape[0], 6, 6))
    out[:, :4, :4] = _blocks4(g[0, 0], cab3, vb3)
    for i in (4, 5):
        out[:, i, i] = vc
        out[:, i - 2, i] = out[:, i, i - 2] = cb3c
    out[:, 0, 4] = out[:, 4, 0] = cac
    out[:, 1, 5] = out[:, 5, 1] = -cac
    return out


def conventional_channel_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Channel-output states (N, 4, 4) of (A, B1) as the receiver of the
    conventional model reconstructs them from its (possibly
    miscalibrated) measured moments and its trusted knowledge of eta_d
    and v_ele, one per entry of n0.

    At n0 = 1 this is exactly the physical channel output.
    """
    n0 = _n0_array(n0)
    v, t, ec, ed = params.v, params.t, params.eps_c, params.eta_d
    ve = params.v_ele + params.v_rin
    vb3 = (ed * t * (v - 1.0 + ec) + 1.0 + ve) / n0
    cab3 = np.sqrt(ed * t * (v * v - 1.0) / n0)
    vb1 = (vb3 - (1.0 - ed) - ve) / ed
    cab1 = cab3 / math.sqrt(ed)
    return _blocks4(v, cab1, vb1)


def conventional_stack(params: SystemParams, g_ab1: np.ndarray) -> np.ndarray:
    """Covariances (N, 8, 8) of (A, B3, F, G) for the conventional trusted model,
    one per channel-output state of the stack g_ab1 (N, 4, 4) from
    :func:`conventional_channel_stack`.

    F and G are the two modes of the detector's trusted EPR source with
    variance 1 + v_ele / (1 - eta_d), chosen so that mixing F into the
    signal on the eta_d beamsplitter adds exactly v_ele of noise to the
    detected mode: Bob's variance is eta_d*t*(v - 1 + eps_c) + 1 + v_ele.
    """
    ve = params.v_ele + params.v_rin
    if params.eta_d == 1.0 and ve > 0.0:
        raise ValueError(
            "eta_d = 1 with nonzero electronic noise needs an infinite detector "
            "EPR variance; use eta_d < 1 or v_ele = 0"
        )
    v_epr = 1.0 if ve == 0.0 else 1.0 + ve / (1.0 - params.eta_d)
    out = np.zeros((g_ab1.shape[0], 8, 8))
    out[:, :4, :4] = g_ab1
    out[:, 4:, 4:] = _blocks4(v_epr, math.sqrt(v_epr * v_epr - 1.0), v_epr)[0]
    return mix_on_beamsplitter(out, 1, 2, params.eta_d)


def apply_miscalibration(params: SystemParams, delta: float) -> SystemParams:
    """Parameters Alice and Bob would estimate under an SNU error.

    Normalizing by an SNU that is wrong by the fraction delta scales
    Bob's normalized variance by (1 + delta) and the A-B covariance by
    sqrt(1 + delta). Re-estimating the channel from those two moments
    gives t_hat = (1 + delta) * t from the covariance, with the residual
    variance absorbed into the apparent excess noise. The estimates are
    clamped to their physical ranges (t_hat <= 1, eps_hat >= 0), as a
    constrained estimator would be.
    """
    if 1.0 + delta <= 0.0:
        raise ValueError(f"miscalibration delta {delta} leaves no signal")
    if delta == 0.0:
        return params
    v, t, ed = params.v, params.t, params.eta_d
    ve = params.v_ele + params.v_rin
    t_hat = (1.0 + delta) * t
    if t_hat <= 1.0:
        eps_hat = params.eps_c + delta * (1.0 + ve) / ((1.0 + delta) * ed * t)
    else:
        # Covariance implies t_hat > 1; the constrained estimate pins
        # t_hat = 1 and the variance equation then fixes eps_hat.
        vb_scaled = (1.0 + delta) * (ed * t * (v - 1.0 + params.eps_c) + 1.0 + ve)
        eps_hat = (vb_scaled - 1.0 - ve) / ed - (v - 1.0)
        t_hat = 1.0
    return replace(params, t=t_hat, eps_c=max(eps_hat, 0.0))


def transmittance_from_km(distance_km: float) -> float:
    """Fiber transmittance at the given length."""
    if distance_km < 0.0:
        raise ValueError(f"distance must be nonnegative, got {distance_km}")
    return 10.0 ** (-ALPHA_DB_PER_KM * distance_km / 10.0)
