"""Independent closed forms and reference pipelines that the batched
eigensolver kernels are tested against."""

import math

import numpy as np

from cvqkd_calib import (
    CalibrationModel,
    CovarianceMatrix,
    SnuScenario,
    SystemParams,
    build_conventional,
    build_three_mode,
    build_two_mode,
    conventional_channel_matrix,
    entropy_g,
    symplectic_form,
)


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


def _entropy_g(x: float) -> float:
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _entropy(gamma: CovarianceMatrix) -> float:
    """Entropy from one eigvals call on i*Omega*gamma, summed per mode."""
    n = gamma.n_modes
    mags = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ gamma.data)))
    spectrum = mags.reshape(n, 2).mean(axis=1)[::-1]
    return sum(_entropy_g(max(0.0, (lam - 1.0) / 2.0)) for lam in spectrum)


def _x_conditioned(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """A - C (X B X)^+ C^T after x-homodyne on mode 1, one matrix at a time."""
    keep = [i for i in range(gamma.data.shape[0]) if i not in (2, 3)]
    a = gamma.data[np.ix_(keep, keep)]
    b = gamma.data[2:4, 2:4]
    c = gamma.data[np.ix_(keep, [2, 3])]
    proj = np.diag([1.0, 0.0])
    out = a - c @ np.linalg.pinv(proj @ b @ proj, rcond=1e-12) @ c.T
    return CovarianceMatrix((out + out.T) / 2.0)


def holevo_pointwise(model: CalibrationModel, params: SystemParams, n0: float) -> float:
    """chi_BE at one SNU ratio by the per-point pipeline the batched kernels
    replaced: validated CovarianceMatrix objects from the one-matrix builders,
    one eigvals call and one pinv per matrix, and a scalar libm entropy."""
    scenario = SnuScenario(model=model, n0=n0)
    if model is CalibrationModel.ONE_TIME_TWO_MODE:
        eve = measured = build_two_mode(params, scenario)
    elif model is CalibrationModel.ONE_TIME_THREE_MODE:
        eve = measured = build_three_mode(params, scenario)
    else:
        eve = conventional_channel_matrix(params, n0)
        measured = build_conventional(params, scenario)
    return _entropy(eve) - _entropy(_x_conditioned(measured))
