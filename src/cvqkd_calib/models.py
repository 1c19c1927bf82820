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

The two-mode model needs no builder of its own: it is the conventional
receiver's channel state with every detector imperfection moved into
the channel, at transmittance t*eta_d*eta_e behind an ideal detector.

The fields v, t and eps_c of :class:`SystemParams` may be scalars or 1-D
columns that broadcast together, one row of a grid block per element;
the detector fields are scalars shared by every row. The SNU ratio n0
is one more such field of the builders: a positive scalar or 1-D column
that broadcasts with v, t and eps_c. Each builder returns a plain stack
(rows, 2n, 2n), one matrix per row.
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
    v, t and eps_c may also be 1-D columns that broadcast together, one
    row each; every element is checked, and every field must be finite.
    """

    v: float | np.ndarray
    t: float | np.ndarray
    eps_c: float | np.ndarray
    eta_d: float
    v_ele: float
    beta: float
    v_rin: float = 0.0

    def __post_init__(self) -> None:
        if not np.all(np.greater(self.v, 1.0) & np.isfinite(self.v)):
            raise ValueError(f"EPR variance must be finite and exceed 1, got {self.v}")
        if not np.all(np.greater(self.t, 0.0) & np.less_equal(self.t, 1.0)):
            raise ValueError(f"transmittance must lie in (0, 1], got {self.t}")
        if not np.all(np.greater_equal(self.eps_c, 0.0) & np.isfinite(self.eps_c)):
            raise ValueError(f"excess noise must be finite and nonnegative, got {self.eps_c}")
        if not 0.0 < self.eta_d <= 1.0:
            raise ValueError(f"detection efficiency must lie in (0, 1], got {self.eta_d}")
        if not 0.0 <= self.v_ele < math.inf:
            raise ValueError(f"electronic noise must be finite and nonnegative, got {self.v_ele}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"reconciliation efficiency must lie in (0, 1], got {self.beta}")
        if not 0.0 <= self.v_rin < math.inf:
            raise ValueError(f"RIN variance must be finite and nonnegative, got {self.v_rin}")

    @property
    def eta_e(self) -> float:
        """Electronic-noise beamsplitter transmittance of this detector, the
        loss that absorbs its additive noise: the reciprocal of the joint
        one-time unit 1 + v_ele + v_rin, in shot-noise units."""
        return 1.0 / (1.0 + self.v_ele + self.v_rin)


def _blocks4(a, c, b) -> np.ndarray:
    """Stack (N, 4, 4) of [[a I2, c sigma_z], [c sigma_z, b I2]], one matrix per
    element of a, c and b broadcast together, in row-major order."""
    a, c, b = (x.ravel() for x in np.broadcast_arrays(a, c, b))
    g = np.zeros((a.size, 4, 4))
    g[:, 0, 0] = g[:, 1, 1] = a
    g[:, 2, 2] = g[:, 3, 3] = b
    g[:, 0, 2] = g[:, 2, 0] = c
    g[:, 1, 3] = g[:, 3, 1] = -c
    return g


def _columns(params: SystemParams, n0: float | np.ndarray) -> list[np.ndarray]:
    """v, t, eps_c and n0 broadcast to 1-D columns of one element per row,
    n0 checked positive and of one ratio per row, or one for all."""
    n0 = np.asarray(n0, dtype=float)
    rows = np.broadcast(params.v, params.t, params.eps_c).size
    if n0.ndim > 1 or rows > 1 and n0.size not in (1, rows) or not np.all(n0 > 0.0):
        raise ValueError(f"n0 must be a positive scalar or a column of one per row "
                         f"({rows} rows), got {n0!r}")
    return np.broadcast_arrays(*(np.ravel(x) for x in (params.v, params.t, params.eps_c, n0)))


def three_mode_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Covariances (rows, 6, 6) of (A, B3, C) for the one-time three-mode model.

    Built by the physical sequence: channel output, vacuum ancilla mixed
    on the electronic-noise beamsplitter eta_e (its reflected mode is
    unobservable and traced out), then a second vacuum ancilla mixed on
    the detection-efficiency beamsplitter eta_d whose reflected mode C
    stays on the trusted side. The key rate depends on t and eta_e only
    through their product, and only that product is observable, so this
    model is also the worst-case split that security requires: the
    untrusted channel takes all of the measured loss t*eta_e.

    The B3 entries of that build are then rescaled by n0 and the
    unobserved mode C is reconstructed from the rescaled Bob variance
    through the trusted eta_d relations, which is how the receiver would
    rebuild the state from miscalibrated data. At n0 = 1 this gives the
    physical build's matrix to within a few ulps.
    """
    v, t, ec, n0 = _columns(params, n0)
    g = with_vacuum(_blocks4(v, np.sqrt(t * (v * v - 1.0)), t * (v - 1.0 + ec) + 1.0))
    g = mix_on_beamsplitter(g, 1, 2, params.eta_e)[:, :4, :4]
    g = mix_on_beamsplitter(with_vacuum(g), 1, 2, params.eta_d)
    return _rescale_three_mode(g, params.eta_d, n0)


def _rescale_three_mode(g: np.ndarray, eta_d: float, n0: np.ndarray) -> np.ndarray:
    """Apply each SNU ratio to B3 of its matrix in g and rebuild mode C from
    trusted relations."""
    vb3 = g[:, 2, 2] / n0
    cab3 = g[:, 0, 2] / np.sqrt(n0)
    vc = (vb3 - 1.0) * (1.0 - eta_d) / eta_d + 1.0
    cac = cab3 * math.sqrt((1.0 - eta_d) / eta_d)
    cb3c = (vb3 - 1.0) * math.sqrt((1.0 - eta_d) * eta_d) / eta_d
    out = np.zeros((n0.shape[0], 6, 6))
    out[:, :4, :4] = _blocks4(g[:, 0, 0], cab3, vb3)
    for i in (4, 5):
        out[:, i, i] = vc
        out[:, i - 2, i] = out[:, i, i - 2] = cb3c
    out[:, 0, 4] = out[:, 4, 0] = cac
    out[:, 1, 5] = out[:, 5, 1] = -cac
    return out


def conventional_channel_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Channel-output states (rows, 4, 4) of (A, B1) as the receiver of the
    conventional model reconstructs them from its (possibly
    miscalibrated) measured moments and its trusted knowledge of eta_d
    and v_ele, one per row.

    At n0 = 1 this is exactly the physical channel output. With eta_d = 1
    and v_ele = v_rin = 0 it is the (A, B3) state of the one-time
    two-mode model, whose t then carries the whole loss t*eta_d*eta_e.
    """
    v, t, ec, n0 = _columns(params, n0)
    ed = params.eta_d
    ve = params.v_ele + params.v_rin
    vb3 = (ed * t * (v - 1.0 + ec) + 1.0 + ve) / n0
    cab3 = np.sqrt(ed * t * (v * v - 1.0) / n0)
    vb1 = (vb3 - (1.0 - ed) - ve) / ed
    cab1 = cab3 / math.sqrt(ed)
    return _blocks4(v, cab1, vb1)


def detector_epr_variance(params: SystemParams) -> float:
    """Variance 1 + v_ele / (1 - eta_d) of the conventional detector's trusted
    EPR source, chosen so that mixing one of its modes into the signal on
    the eta_d beamsplitter adds exactly v_ele of noise to the detected
    mode: Bob's variance is eta_d*t*(v - 1 + eps_c) + 1 + v_ele.
    """
    ve = params.v_ele + params.v_rin
    if params.eta_d == 1.0 and ve > 0.0:
        raise ValueError(
            "eta_d = 1 with nonzero electronic noise needs an infinite detector "
            "EPR variance; use eta_d < 1 or v_ele = 0"
        )
    return 1.0 if ve == 0.0 else 1.0 + ve / (1.0 - params.eta_d)


def conventional_stack(params: SystemParams, g_ab1: np.ndarray) -> np.ndarray:
    """Covariances (N, 8, 8) of (A, B3, F, G) for the conventional trusted model,
    one per channel-output state of the stack g_ab1 (N, 4, 4) from
    :func:`conventional_channel_stack`; F and G are the two modes of the
    detector's trusted EPR source of :func:`detector_epr_variance`.
    """
    v_epr = detector_epr_variance(params)
    out = np.zeros((g_ab1.shape[0], 8, 8))
    out[:, :4, :4] = g_ab1
    out[:, 4:, 4:] = _blocks4(v_epr, math.sqrt(v_epr * v_epr - 1.0), v_epr)[0]
    return mix_on_beamsplitter(out, 1, 2, params.eta_d)


def apply_miscalibration(params: SystemParams,
                         delta: float | np.ndarray) -> SystemParams:
    """Parameters Alice and Bob would estimate under an SNU error.

    Normalizing by an SNU that is wrong by the fraction delta scales
    Bob's normalized variance by (1 + delta) and the A-B covariance by
    sqrt(1 + delta). Re-estimating the channel from those two moments
    gives t_hat = (1 + delta) * t from the covariance, with the residual
    variance absorbed into the apparent excess noise. The estimates are
    clamped to their physical ranges (t_hat <= 1, eps_hat >= 0), as a
    constrained estimator would be. delta may be a 1-D column, one per
    row of params; a t_hat <= 0, from delta <= -1 or underflow, is an error,
    as is an eps_hat that overflows.
    """
    if np.any((1.0 + np.asarray(delta)) * params.t <= 0.0):
        raise ValueError(f"miscalibration delta {delta} leaves no signal")
    if np.ndim(delta) == 0 and delta == 0.0:
        return params
    v, t, ec, ed = params.v, np.asarray(params.t), params.eps_c, params.eta_d
    ve = params.v_ele + params.v_rin
    t_hat = (1.0 + delta) * t
    # Where (1 + delta) * ed * t underflows to 0, eps_hat is infinite and refused below.
    with np.errstate(divide="ignore", over="ignore"):
        eps_hat = np.where(
            t_hat <= 1.0,
            ec + delta * (1.0 + ve) / ((1.0 + delta) * ed * t),
            # Covariance implies t_hat > 1; the constrained estimate pins
            # t_hat = 1 and the variance equation then fixes eps_hat.
            ((1.0 + delta) * (ed * t * (v - 1.0 + ec) + 1.0 + ve) - 1.0 - ve) / ed - (v - 1.0),
        )
    if np.any(eps_hat == math.inf):
        raise ValueError(f"miscalibration delta {delta} overflows the excess noise")
    return replace(params, t=_given(np.where(t_hat <= 1.0, t_hat, 1.0)),
                   eps_c=_given(np.where(eps_hat < 0.0, 0.0, eps_hat)))


def _given(column: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a float, a 1-D one as the array."""
    return float(column) if column.ndim == 0 else column


def transmittance_from_km(distance_km: float) -> float:
    """Fiber transmittance at the given length."""
    if distance_km < 0.0:
        raise ValueError(f"distance must be nonnegative, got {distance_km}")
    return 10.0 ** (-ALPHA_DB_PER_KM * distance_km / 10.0)
