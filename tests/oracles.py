"""Independent closed forms and reference pipelines that the batched
eigensolver kernels, the lockstep TEN search and the finite-size worst
case at the closed form's worst SNU ratio are tested against.

Nothing in src/ imports them. holevo_lodewyck is the scalar form of the
closed form that keyrate.closed_form_rate vectorises, over rows of every
model and, finite-size, each SNU ratio of key_rate's grid: it gives every
asymptotic rate, picks the one ratio per row at which finite-size
key_rate runs the eigensolver, and gives keyrate.tolerable_excess_noise
every rate it searches on, whose sign moves a bracket end.
holevo_lodewyck is written apart from it, for physical states only, so
that it still checks the eigensolver pipeline on its own. RATE_MARGIN_REL and RATE_MARGIN_ABS bound how far the two
routes' rates lie apart at each SNU ratio, and dense_worst_case is the
full eigensolver scan of the grid that finite-size key_rate is held to.

The builders and holevo_bound take one SNU ratio per row. grid_pairs
forms the (row, n0) pairs of rows against a grid of ratios, in row-major
order. two_mode_stack builds the two-mode (A, B3) directly, as the
reference for holevo_bound's route through the conventional receiver,
and physical_three_mode builds the three-mode (A, B3, C) at n0 = 1 by
beamsplitters alone, as the reference for three_mode_stack's rebuilt
mode C."""
import dataclasses
import math

import mpmath
import numpy as np

from cvqkd_calib import CalibrationModel, SystemParams
from cvqkd_calib.gaussian import mix_on_beamsplitter, symplectic_form, with_vacuum
from cvqkd_calib.keyrate import (
    N0_SCAN_POINTS,
    TEN_TOLERANCE,
    _TEN_BRACKET_CAP,
    FiniteSizeParams,
    KeyRateResult,
    _as_given,
    finite_size_penalty,
    holevo_bound,
    mutual_information,
    snu_interval,
)
from cvqkd_calib.models import (
    _blocks4,
    apply_miscalibration,
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
)

# The margin by which closed_form_rate's rate lies from the eigensolver's at
# each SNU ratio: within RATE_MARGIN_REL of max(|rate|, |chi_BE|)
# (tests/test_keyrate.py asserts it for m from 1e3; 7.0e-11 is the worst
# seen on its draws), and RATE_MARGIN_ABS bits cover both routes' float
# error near a zero rate, about 1e-14.
RATE_MARGIN_REL = 1e-9
RATE_MARGIN_ABS = 1e-12

# Halvings the scalar TEN bisection makes at most; from any bracket up to
# _TEN_BRACKET_CAP the tolerance is reached well before.
TEN_MAX_ITER = 60


def entropy_g(x: float) -> float:
    """Thermal-state entropy function (x+1)log2(x+1) - x log2 x, 0 for x <= 0."""
    return 0.0 if x <= 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def entropy_by_row(spectra: np.ndarray) -> np.ndarray:
    """Entropies of spectra (..., n) one row at a time, with libm's log2:
    each row's entropy_g((nu - 1)/2) terms added to 0 in spectrum order.
    gaussian.entropy_of_spectra, with numpy's log2 over the whole stack,
    is held to be no farther from entropy_exact than this. The sum is
    spelled out, as sum() compensates its float rounding from Python 3.12."""
    x = (spectra - 1.0) / 2.0
    out = []
    for row in x.reshape(-1, x.shape[-1]).tolist():
        total = 0.0
        for term in map(entropy_g, row):
            total += term
        out.append(total)
    return np.array(out).reshape(x.shape[:-1])


def g_exact(nu: mpmath.mpf) -> mpmath.mpf:
    """The entropy g((nu - 1)/2) of one mode at mpmath's working precision,
    0 for nu <= 1."""
    x = (nu - 1) / 2
    return (x + 1) * mpmath.log(x + 1, 2) - x * mpmath.log(x, 2) if x > 0 else mpmath.mpf(0)


def entropy_exact(spectra: np.ndarray) -> list[mpmath.mpf]:
    """Entropies of spectra (..., n) to 40 digits, the float spectra taken
    exactly: one mpmath number per row, rows in row-major order."""
    with mpmath.workdps(40):
        return [mpmath.fsum(g_exact(mpmath.mpf(nu)) for nu in row)
                for row in spectra.reshape(-1, spectra.shape[-1]).tolist()]


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


def holevo_two_mode_exact(v: float, t: float, eps_c: float, eta_d: float, v_ele: float,
                          v_rin: float, n0: float) -> mpmath.mpf:
    """chi_BE of the one-time two-mode model at SNU ratio n0, from the
    closed-form spectra of its (A, B3) matrix evaluated to 40 digits.

    With tau = t eta_d / (1 + v_ele + v_rin), the matrix has a = V,
    c = sqrt(tau (V^2 - 1) / n0) and b = (tau (V - 1 + eps_c) + 1) / n0.
    Its symplectic pair follows from Delta = a^2 + b^2 - 2c^2 and
    det = (ab - c^2)^2, and x-homodyne on B3 leaves Alice with
    sqrt(a (a - c^2/b)). A mode with nu <= 1 carries no entropy, as in
    gaussian.entropy_of_spectra. The float inputs are taken exactly.
    """
    with mpmath.workdps(40):
        v, t, eps_c, eta_d, v_ele, v_rin, n0 = map(
            mpmath.mpf, (v, t, eps_c, eta_d, v_ele, v_rin, n0))
        tau = t * eta_d / (1 + v_ele + v_rin)
        a, c2, b = v, tau * (v * v - 1) / n0, (tau * (v - 1 + eps_c) + 1) / n0
        delta, det = a * a + b * b - 2 * c2, (a * b - c2) ** 2
        root = mpmath.sqrt(delta * delta - 4 * det)
        spectrum = [mpmath.sqrt((delta + root) / 2), mpmath.sqrt((delta - root) / 2)]
        conditional = mpmath.sqrt(a * (a - c2 / b))
        return g_exact(spectrum[0]) + g_exact(spectrum[1]) - g_exact(conditional)


def grid_pairs(params: SystemParams, n0: np.ndarray) -> tuple[SystemParams, np.ndarray]:
    """Every row of params at every ratio of the 1-D grid n0, as the params
    of the (row, n0) pairs in row-major order and their column of ratios."""
    n0 = np.asarray(n0, dtype=float)
    shape = np.broadcast(params.v, params.t, params.eps_c).shape or (1,)
    pairs = dataclasses.replace(params, **{
        name: np.repeat(np.broadcast_to(getattr(params, name), shape), n0.size)
        for name in ("v", "t", "eps_c")})
    return pairs, np.tile(n0, shape[0])


def holevo_grid(params: SystemParams, model: CalibrationModel, n0: np.ndarray) -> np.ndarray:
    """holevo_bound of every row at every ratio of the grid n0, shape (rows, ratios)."""
    pairs, ratios = grid_pairs(params, n0)
    return np.reshape(holevo_bound(pairs, model, ratios), (-1, np.size(n0)))


def two_mode_stack(params: SystemParams, n0: float | np.ndarray) -> np.ndarray:
    """Covariances (rows, 4, 4) of (A, B3) for the one-time two-mode model,
    built directly: Bob's block carries the full product transmittance
    tau = t*eta_d*eta_e and, for n0 != 1, the calibrated-over-true SNU
    ratio divides his variance and scales the cross correlation by
    1/sqrt(n0). n0 broadcasts with v, t and eps_c."""
    v, t, ec, n0 = np.broadcast_arrays(*(np.ravel(x) for x in (
        params.v, params.t, params.eps_c, n0)))
    tau = t * params.eta_d * params.eta_e
    cross = np.sqrt(tau * (v * v - 1.0) / n0)
    vb = (tau * (v - 1.0 + ec) + 1.0) / n0
    return _blocks4(v, cross, vb)


def physical_three_mode(params: SystemParams) -> np.ndarray:
    """Covariances (rows, 6, 6) of (A, B3, C) for the one-time three-mode
    model at SNU ratio 1, by the physical sequence alone: channel output,
    a vacuum ancilla mixed on the electronic-noise beamsplitter eta_e and
    traced out, then a second vacuum ancilla mixed on the detection-
    efficiency beamsplitter eta_d, whose reflected mode is C. The
    reference for models.three_mode_stack, which rebuilds B3 and C from
    that build's B3 through the trusted eta_d relations at every n0."""
    v, t, ec = np.broadcast_arrays(*(np.ravel(x) for x in (params.v, params.t, params.eps_c)))
    g = with_vacuum(_blocks4(v, np.sqrt(t * (v * v - 1.0)), t * (v - 1.0 + ec) + 1.0))
    g = mix_on_beamsplitter(g, 1, 2, params.eta_e)[:, :4, :4]
    return mix_on_beamsplitter(with_vacuum(g), 1, 2, params.eta_d)


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


def entropies_pointwise(model: CalibrationModel, params: SystemParams,
                        n0: float) -> tuple[float, float]:
    """Eve's entropies S(E) and S(E | b3) at one SNU ratio, whose difference
    is chi_BE, by the per-point pipeline the batched kernels replaced: one
    model matrix at a time, checked finite and symmetric, one eigvals call
    and one pinv per matrix, and a scalar libm entropy."""
    if model is CalibrationModel.ONE_TIME_TWO_MODE:
        eve = measured = _checked(two_mode_stack(params, n0)[0])
    elif model is CalibrationModel.ONE_TIME_THREE_MODE:
        eve = measured = _checked(three_mode_stack(params, n0)[0])
    else:
        channel = conventional_channel_stack(params, n0)
        eve = _checked(channel[0])
        measured = _checked(conventional_stack(params, channel)[0])
    return _entropy(eve), _entropy(_x_conditioned(measured))


def holevo_pointwise(model: CalibrationModel, params: SystemParams, n0: float) -> float:
    """chi_BE at one SNU ratio by the per-point pipeline of entropies_pointwise."""
    eve, conditional = entropies_pointwise(model, params, n0)
    return eve - conditional


def bisect_tolerable_noise(rate_at) -> float:
    """Largest excess noise with positive rate_at(eps_c), one row at a time:
    the scalar bisection, with its tolerance, iteration limit and bracket
    cap, whose result the lockstep edge search of keyrate._tolerable_noise
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
    grid, from one holevo_bound call over every (row, n0) pair: the full
    scan that key_rate, evaluating only the closed form's worst ratio,
    equals field for field wherever the closed form ranks the grid as the
    eigensolver does, and lies within the two ratios' margins of
    elsewhere."""
    calib = snu_interval(params, model, fs)
    n0 = np.linspace(calib.lower / calib.point, calib.upper / calib.point,
                     N0_SCAN_POINTS)
    penalty, share = finite_size_penalty(fs), fs.key_fraction
    eff = apply_miscalibration(params, delta)
    i_ab = mutual_information(eff)
    chi = holevo_grid(eff, model, n0)
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
