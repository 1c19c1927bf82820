"""Shot-noise-unit calibration statistics: simulation and worst-case bounds.

The one-time procedure measures the homodyne output once with the local
oscillator connected and takes the total variance as the unit; the
two-time procedure additionally measures the electronic noise with the
LO off and subtracts. Both estimators, their chi-square confidence
intervals, and the analytic worst-case deviation comparison live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist
from typing import Sequence

import numpy as np


class CalibrationMethod(Enum):
    TWO_TIME = "two_time"
    ONE_TIME = "one_time"


# Floor applied to a confidence bound that would otherwise cross zero
# (sample count too small for the requested failure probability).
_DEGENERATE_FLOOR = 1e-12


@dataclass(frozen=True)
class CalibrationEstimate:
    """SNU estimate with its worst-case confidence interval.

    degenerate flags an interval whose lower bound had to be floored at
    a positive epsilon because the sample count was too small.
    """

    method: CalibrationMethod
    m_samples: int
    point: float
    lower: float
    upper: float
    eps_pe: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.m_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.m_samples}")
        if self.point <= 0.0:
            raise ValueError(f"point estimate must be positive, got {self.point}")
        if not 0.0 < self.lower <= self.point <= self.upper:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] must bracket the "
                f"point estimate {self.point} with a positive lower bound"
            )
        if not 0.0 < self.eps_pe < 1.0:
            raise ValueError(f"eps_pe must lie in (0, 1), got {self.eps_pe}")


@dataclass(frozen=True)
class NoiseGroundTruth:
    """True detector-noise variances."""

    v_tot: float
    v_ele: float

    def __post_init__(self) -> None:
        if self.v_tot <= 0.0:
            raise ValueError(f"total noise must be positive, got {self.v_tot}")
        if not 0.0 <= self.v_ele < self.v_tot:
            raise ValueError(
                f"electronic noise must satisfy 0 <= v_ele < v_tot, "
                f"got v_ele={self.v_ele}, v_tot={self.v_tot}"
            )


def sample_homodyne(truth: NoiseGroundTruth, m: int, lo_on: bool, seed: int) -> np.ndarray:
    """Draw m homodyne output samples.

    Zero-mean Gaussian with variance v_tot when the LO path is connected,
    v_ele when it is not. The two switch positions use independently
    derived streams from the same seed, so every simulation replays
    exactly.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    rng = np.random.default_rng([seed, 1 if lo_on else 0])
    variance = truth.v_tot if lo_on else truth.v_ele
    return rng.normal(0.0, math.sqrt(variance), size=m)


def estimate_variance(samples: Sequence[float]) -> float:
    """Known-zero-mean variance estimator: mean of squares, dividing by m."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError(f"need at least 2 samples, got {arr.size}")
    return float(np.mean(arr * arr))


def z_quantile(eps_pe: float) -> float:
    """Two-sided standard-normal quantile: erfc(z / sqrt 2) = eps_pe.

    The z for which a zero-mean unit-variance Gaussian falls outside
    [-z, z] with probability eps_pe; z(1e-10) = 6.4669.
    """
    if not 0.0 < eps_pe < 1.0:
        raise ValueError(f"eps_pe must lie in (0, 1), got {eps_pe}")
    return -NormalDist().inv_cdf(eps_pe / 2.0)


def _half_width(v_hat: float, m: int, eps_pe: float) -> float:
    return z_quantile(eps_pe) * v_hat * math.sqrt(2.0) / math.sqrt(m)


def confidence_interval_ote(v_hat: float, m: int, eps_pe: float) -> CalibrationEstimate:
    """One-time interval [v_hat - d, v_hat + d] with d = z * v_hat * sqrt(2/m)."""
    if v_hat <= 0.0:
        raise ValueError(f"variance estimate must be positive, got {v_hat}")
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    d = _half_width(v_hat, m, eps_pe)
    lower = v_hat - d
    degenerate = lower <= 0.0
    if degenerate:
        lower = _DEGENERATE_FLOOR * v_hat
    return CalibrationEstimate(
        method=CalibrationMethod.ONE_TIME,
        m_samples=m,
        point=v_hat,
        lower=lower,
        upper=v_hat + d,
        eps_pe=eps_pe,
        degenerate=degenerate,
    )


def confidence_interval_tte(v_tot_hat: float, v_ele_hat: float, m1: int, m2: int,
                            eps_pe: float) -> CalibrationEstimate:
    """Two-time interval: both measurement fluctuations widen the bound.

    [v_tot - d_tot - v_ele - d_ele, v_tot + d_tot - v_ele + d_ele], with
    each half-width computed from its own sample count.
    """
    if v_ele_hat < 0.0:
        raise ValueError(f"electronic noise estimate must be nonnegative, got {v_ele_hat}")
    if v_tot_hat <= v_ele_hat:
        raise ValueError(
            f"total noise {v_tot_hat} must exceed electronic noise {v_ele_hat}"
        )
    if m1 < 2 or m2 < 2:
        raise ValueError(f"need at least 2 samples per step, got {m1} and {m2}")
    d_tot = _half_width(v_tot_hat, m1, eps_pe)
    d_ele = _half_width(v_ele_hat, m2, eps_pe) if v_ele_hat > 0.0 else 0.0
    point = v_tot_hat - v_ele_hat
    lower = point - d_tot - d_ele
    degenerate = lower <= 0.0
    if degenerate:
        lower = _DEGENERATE_FLOOR * point
    return CalibrationEstimate(
        method=CalibrationMethod.TWO_TIME,
        m_samples=m1 + m2,
        point=point,
        lower=lower,
        upper=point + d_tot + d_ele,
        eps_pe=eps_pe,
        degenerate=degenerate,
    )


def deviation_curve(truth: NoiseGroundTruth, m_grid: Sequence[int],
                    eps_pe: float) -> list[dict]:
    """Worst-case relative deviation of both calibration methods vs m.

    Purely analytic: the confidence half-widths are propagated from the
    true variances (no sampling), giving for each block length the
    relative deviation dev = (worst-case half-width)/(true SNU) and the
    normalized worst-case SNU estimate 1 - dev. The two-time method
    measures twice, so both half-widths enter its deviation.
    """
    if len(m_grid) == 0:
        raise ValueError("block-length grid must not be empty")
    snu_tte_true = truth.v_tot - truth.v_ele
    rows = []
    for m in m_grid:
        m = int(m)
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        base = z_quantile(eps_pe) * math.sqrt(2.0) / math.sqrt(m)
        dev_ote = base
        dev_tte = base * (truth.v_tot + truth.v_ele) / snu_tte_true
        rows.append({
            "m": m,
            "snu_norm_ote": 1.0 - dev_ote,
            "snu_norm_tte": 1.0 - dev_tte,
            "dev_ote": dev_ote,
            "dev_tte": dev_tte,
        })
    return rows
