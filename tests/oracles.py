"""Independent closed forms and reference pipelines that the batched
eigensolver kernels, the lockstep TEN search and the probed finite-size
worst case are tested against."""

import math

import numpy as np

from cvqkd_calib import CalibrationModel, SystemParams
from cvqkd_calib.cli import _TEN_BRACKET_CAP, TEN_TOLERANCE
from cvqkd_calib.gaussian import symplectic_form
from cvqkd_calib.keyrate import (
    N0_SCAN_POINTS,
    FiniteSizeParams,
    KeyRateResult,
    _as_given,
    finite_size_penalty,
    holevo_bound,
    mutual_information,
    snu_interval,
)
from cvqkd_calib.models import (
    apply_miscalibration,
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
    two_mode_stack,
)

# Halvings the scalar TEN bisection makes at most; from any bracket up to
# _TEN_BRACKET_CAP the tolerance is reached well before.
TEN_MAX_ITER = 60


def entropy_g(x: float) -> float:
    """Thermal-state entropy function (x+1)log2(x+1) - x log2 x, 0 for x <= 0."""
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def epr_state(v: float) -> np.ndarray:
    """Two-mode squeezed state: diagonal v*I2, cross sqrt(v^2-1)*sigma_z."""
    g = v * np.eye(4)
    g[:2, 2:] = g[2:, :2] = math.sqrt(v * v - 1.0) * np.diag([1.0, -1.0])
    return g


def mutual_information_from_matrix(gamma: np.ndarray) -> float:
    """I_AB read off a model matrix: modes (A, B3) with A heterodyned."""
    va, vb, c = gamma[0, 0], gamma[2, 2], gamma[0, 2]
    vb_cond = vb - c * c / (va + 1.0)
    return 0.5 * math.log2(vb / vb_cond)


def _pair(a: float, b: float) -> tuple[float, float]:
    """Symplectic pair with lambda1^2 + lambda2^2 = a and (lambda1 lambda2)^2 = b."""
    root = math.sqrt(max(a * a - 4.0 * b, 0.0))
    return math.sqrt((a + root) / 2.0), math.sqrt(max((a - root) / 2.0, 0.0))


def holevo_lodewyck(v: float, t: float, eps: float, eta: float, v_el: float) -> float:
    """Holevo bound chi_BE of reverse-reconciled homodyne detection with a
    trusted detector of efficiency eta and electronic noise v_el.

    Lodewyck et al., PRA 76, 042305 (2007): lambda1,2 from A and B,
    lambda3,4 from C and D (lambda5 = 1 carries no entropy),
    with the noises referred to the channel input
    chi_line = 1/t - 1 + eps, chi_hom = (1 - eta)/eta + v_el/eta and
    chi_tot = chi_line + chi_hom/t. All variances in shot-noise units.
    """
    chi_line = 1.0 / t - 1.0 + eps
    chi_hom = (1.0 - eta) / eta + v_el / eta
    chi_tot = chi_line + chi_hom / t
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + chi_line) ** 2
    b = t * t * (v * chi_line + 1.0) ** 2
    sqrt_b = math.sqrt(b)
    denom = t * (v + chi_tot)
    c = (a * chi_hom + v * sqrt_b + t * (v + chi_line)) / denom
    d = sqrt_b * (v + sqrt_b * chi_hom) / denom
    g = lambda lam: entropy_g(max(0.0, (lam - 1.0) / 2.0))
    return sum(g(lam) for lam in _pair(a, b)) - sum(g(lam) for lam in _pair(c, d))


def _checked(gamma: np.ndarray) -> np.ndarray:
    """One covariance matrix, asserted finite and symmetric to 1e-12 of its
    largest entry (at least 1), returned symmetrised."""
    assert np.all(np.isfinite(gamma)), "covariance matrix contains non-finite entries"
    scale = max(1.0, float(np.abs(gamma).max()))
    assert float(np.abs(gamma - gamma.T).max()) <= 1e-12 * scale, "not symmetric"
    return (gamma + gamma.T) / 2.0


def _entropy(gamma: np.ndarray) -> float:
    """Entropy from one eigvals call on i*Omega*gamma, summed per mode."""
    n = gamma.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ gamma)))
    spectrum = mags.reshape(n, 2).mean(axis=1)[::-1]
    return sum(entropy_g(max(0.0, (lam - 1.0) / 2.0)) for lam in spectrum)


def _x_conditioned(gamma: np.ndarray, mode: int = 1) -> np.ndarray:
    """A - C (X B X)^+ C^T after x-homodyne on one mode, one matrix at a time."""
    measured = [2 * mode, 2 * mode + 1]
    keep = [i for i in range(gamma.shape[0]) if i not in measured]
    a = gamma[np.ix_(keep, keep)]
    b = gamma[np.ix_(measured, measured)]
    c = gamma[np.ix_(keep, measured)]
    proj = np.diag([1.0, 0.0])
    out = a - c @ np.linalg.pinv(proj @ b @ proj, rcond=1e-12) @ c.T
    return _checked((out + out.T) / 2.0)


def holevo_pointwise(model: CalibrationModel, params: SystemParams, n0: float) -> float:
    """chi_BE at one SNU ratio by the per-point pipeline the batched kernels
    replaced: one model matrix at a time, checked finite and symmetric, one
    eigvals call and one pinv per matrix, and a scalar libm entropy."""
    if model is CalibrationModel.ONE_TIME_TWO_MODE:
        eve = measured = _checked(two_mode_stack(params, n0)[0])
    elif model is CalibrationModel.ONE_TIME_THREE_MODE:
        eve = measured = _checked(three_mode_stack(params, n0)[0])
    else:
        channel = conventional_channel_stack(params, n0)
        eve = _checked(channel[0])
        measured = _checked(conventional_stack(params, channel)[0])
    return _entropy(eve) - _entropy(_x_conditioned(measured))


def bisect_tolerable_noise(rate_at) -> float:
    """Largest excess noise with positive rate_at(eps_c), one row at a time:
    the scalar bisection, with its tolerance, iteration limit and bracket
    cap, whose result the lockstep edge search of cli._tolerable_noise
    reproduces from fewer evaluations."""
    if rate_at(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while rate_at(hi) > 0.0:
        hi *= 2.0
        if hi > _TEN_BRACKET_CAP:
            raise RuntimeError("rate stayed positive up to the excess-noise cap")
    for _ in range(TEN_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= TEN_TOLERANCE:
            break
    return 0.5 * (lo + hi)


def dense_worst_case(params: SystemParams, model: CalibrationModel,
                     fs: FiniteSizeParams, delta: float | np.ndarray = 0.0) -> KeyRateResult:
    """Finite-size key rate from chi_BE at every point of the N0_SCAN_POINTS
    grid: the full scan that the probe certificate of key_rate shortcuts."""
    calib = snu_interval(params, model, fs)
    n0 = np.linspace(calib.lower / calib.point, calib.upper / calib.point,
                     N0_SCAN_POINTS)
    penalty, share = finite_size_penalty(fs), fs.key_fraction
    eff = apply_miscalibration(params, delta)
    i_ab = mutual_information(eff)
    chi = np.reshape(holevo_bound(eff, model, n0), (-1, n0.size))
    values = eff.beta * np.reshape(i_ab, (-1, 1)) - chi
    # argmin takes the first of equal minima, as a strict-< scan would.
    worst = np.argmin(values, axis=1)
    rows = np.arange(worst.size)
    return KeyRateResult(
        rate_bits_per_pulse=_as_given(share * (values[rows, worst] - penalty), eff),
        i_ab=i_ab,
        chi_be=_as_given(chi[rows, worst], eff),
        delta_n=penalty,
        worst_n0=_as_given(n0[worst], eff),
    )
