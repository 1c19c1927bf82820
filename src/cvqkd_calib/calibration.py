"""Shot-noise-unit calibration statistics: worst-case confidence bounds.

The one-time procedure measures the homodyne output once with the local
oscillator connected and takes the total variance as the unit; the
two-time procedure additionally measures the electronic noise with the
LO off and subtracts. The chi-square confidence intervals of both
estimates and the analytic worst-case deviation comparison live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence


@dataclass(frozen=True)
class CalibrationEstimate:
    """SNU estimate with its worst-case confidence interval."""

    point: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lower <= self.point <= self.upper:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] must bracket the "
                f"point estimate {self.point} with a positive lower bound"
            )


@dataclass(frozen=True)
class NoiseGroundTruth:
    """True detector-noise variances, both finite."""

    v_tot: float
    v_ele: float

    def __post_init__(self) -> None:
        if not 0.0 < self.v_tot < math.inf:
            raise ValueError(f"total noise must be finite and positive, got {self.v_tot}")
        if not 0.0 <= self.v_ele < self.v_tot:
            raise ValueError(
                f"electronic noise must satisfy 0 <= v_ele < v_tot, "
                f"got v_ele={self.v_ele}, v_tot={self.v_tot}"
            )


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


def confidence_interval(v_tot_hat: float, v_ele_hat: float, m: int,
                        eps_pe: float) -> CalibrationEstimate:
    """SNU estimate v_tot_hat - v_ele_hat with its worst-case interval.

    [v_tot - d_tot - v_ele - d_ele, v_tot + d_tot - v_ele + d_ele] with
    d = z * v_hat * sqrt(2/m) per step of m samples. The two-time
    procedure subtracts a measured v_ele_hat, so both fluctuations widen
    the bound; the one-time procedure is v_ele_hat = 0, one step. A lower
    bound that crosses zero, m being too few for eps_pe, raises ValueError.
    """
    if v_ele_hat < 0.0:
        raise ValueError(f"electronic noise estimate must be nonnegative, got {v_ele_hat}")
    if v_tot_hat <= v_ele_hat:
        raise ValueError(
            f"SNU estimate must be positive: total noise {v_tot_hat} must exceed "
            f"electronic noise {v_ele_hat}"
        )
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    d_tot = _half_width(v_tot_hat, m, eps_pe)
    d_ele = _half_width(v_ele_hat, m, eps_pe)
    point = v_tot_hat - v_ele_hat
    lower = point - d_tot - d_ele
    if lower <= 0.0:
        raise ValueError(
            f"degenerate SNU interval: calib_samples_m = {m} is too few for "
            f"eps_pe = {eps_pe}, so the interval's lower bound crosses zero")
    return CalibrationEstimate(point=point, lower=lower, upper=point + d_tot + d_ele)


def deviation_curve(truth: NoiseGroundTruth, m_grid: Sequence[int],
                    eps_pe: float) -> list[dict]:
    """Worst-case relative deviation of both calibration methods vs m.

    Purely analytic: the confidence half-widths are propagated from the
    true variances (no sampling), giving for each block length the
    relative deviation dev = (worst-case half-width)/(true SNU) and the
    normalized worst-case SNU estimate 1 - dev. The two-time method
    measures twice, so both half-widths enter its deviation. Block
    lengths must be integral: 1e5 counts as 100000, 100000.5 is an error.
    A deviation of 1 or more, where confidence_interval's lower bound
    crosses zero, raises ValueError naming m and the method.
    """
    if len(m_grid) == 0:
        raise ValueError("block-length grid must not be empty")
    snu_tte_true = truth.v_tot - truth.v_ele
    rows = []
    for given in m_grid:
        if not float(given).is_integer():
            raise ValueError(f"block length must be an integer, got {given!r}")
        m = int(given)
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        dev_ote = _half_width(1.0, m, eps_pe)
        dev_tte = dev_ote * (truth.v_tot + truth.v_ele) / snu_tte_true
        for method, dev in (("one-time", dev_ote), ("two-time", dev_tte)):
            if dev >= 1.0:
                raise ValueError(
                    f"degenerate SNU interval: m = {m} is too few for eps_pe = {eps_pe}, "
                    f"so the {method} deviation {dev!r} is >= 1")
        rows.append({
            "m": m,
            "snu_norm_ote": 1.0 - dev_ote,
            "snu_norm_tte": 1.0 - dev_tte,
            "dev_ote": dev_ote,
            "dev_tte": dev_tte,
        })
    return rows
