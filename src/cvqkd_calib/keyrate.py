"""Secret key rates under collective attacks, asymptotic and finite-size,
and the tolerable excess noise (TEN) of each model.

Reverse reconciliation throughout: rate = beta * I_AB - chi_BE in the
asymptotic regime. closed_form_rate, the closed form of Lodewyck et al.
without an eigensolve, gives every asymptotic rate, picks each
finite-size row's worst SNU ratio, and gives tolerable_excess_noise each
rate it searches on: the worst case over the SNU ratios, by the same
rule. holevo_bound, the generic symplectic-spectrum pipeline on the
models' covariance matrices, gives the chi_BE that finite-size key_rate
prints, at that one ratio per row. So finite-size key_rate and the TEN
search can differ in sign only where |rate| lies below the two routes'
difference, about 5e-13 bits on the rows measured.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .calibration import CalibrationEstimate, confidence_interval
from .gaussian import (
    NumericalError,
    entropy_of_spectra,
    homodyne_conditioned,
    symplectic_spectra,
)
from .models import (
    CalibrationModel,
    SystemParams,
    apply_miscalibration,
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
)

# Number of evenly spaced points of the grid across the SNU confidence
# interval that the finite-size worst case is taken over. The rate need
# not be monotone in the SNU ratio, so the grid spans both endpoints and
# the interior.
N0_SCAN_POINTS = 21

# The three-mode matrix must expose one unit symplectic eigenvalue (the
# detection beamsplitter's vacuum ancilla survives any rescaling).
_UNIT_EIGENVALUE_TOL = 1e-6

TEN_TOLERANCE = 1e-4
_TEN_BRACKET_CAP = 1024.0


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
        if self.n_key < 2.0:
            raise ValueError(f"key share n = key_fraction * N needs n >= 2, got {self.n_key}")
        if self.dim_hx < 1:
            raise ValueError(f"raw-key alphabet dimension must be positive, got {self.dim_hx}")
        if not 2 <= self.calib_samples_m <= self.block_length:
            raise ValueError(
                f"calibration samples must lie in [2, N], got {self.calib_samples_m}"
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
    attained; delta_n is zero in the asymptotic regime. For a block of
    rows every field but delta_n, which all rows share, is a 1-D column.
    """

    rate_bits_per_pulse: float | np.ndarray
    i_ab: float | np.ndarray
    chi_be: float | np.ndarray
    delta_n: float
    worst_n0: float | np.ndarray


def _as_given(values: np.ndarray, params: SystemParams,
              n0: float | np.ndarray = 1.0) -> float | np.ndarray:
    """One value per row shaped as the inputs were: a float for scalar
    params and n0, otherwise a 1-D column."""
    shape = np.broadcast(params.v, params.t, params.eps_c, n0).shape
    return float(values[0]) if shape == () else values.reshape(shape)


def mutual_information(params: SystemParams) -> float | np.ndarray:
    """Shannon information between Alice and Bob, identical for all models.

    I_AB = 1/2 log2((V + chi)/(chi + 1)) with the total noise referred to
    the channel input, chi = 1/(t * eta_d * eta_e) - 1 + eps_c. The same
    value follows from any model matrix as 1/2 log2(V_B / V_B|A) with
    Alice's mode heterodyned. One value per row.
    """
    chi = 1.0 / (np.asarray(params.t) * params.eta_d * params.eta_e) - 1.0 + params.eps_c
    return _as_given(0.5 * np.log2(np.ravel((params.v + chi) / (chi + 1.0))), params)


def _require_finite(values: np.ndarray, n0: float | np.ndarray, what: str) -> None:
    """Raise NumericalError naming the n0, and carrying the row, of the first
    element of `values` in row-major order that is not finite. n0 is one
    ratio for all rows, one per row, or one per (row, ratio) of a rate grid."""
    bad = ~np.isfinite(values)
    if not bad.any():
        return
    at = np.unravel_index(np.argmax(bad), bad.shape)
    n0 = np.asarray(n0)
    n0 = float(np.broadcast_to(n0, bad.shape[:n0.ndim])[at[:n0.ndim]])
    raise NumericalError(f"non-finite {what} at n0 = {n0!r}", row=int(at[0]))


def _spectra(stack: np.ndarray, n0: float | np.ndarray, what: str) -> np.ndarray:
    _require_finite(stack, n0, f"{what} matrix")
    spectra = symplectic_spectra(stack)
    _require_finite(spectra, n0, f"{what} symplectic spectrum")
    return spectra


def holevo_bound(params: SystemParams, model: CalibrationModel,
                 n0: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Eavesdropper information bound chi_BE = S(E) - S(E | b3) of a model.

    The one-time models give Eve the purification of their full matrix,
    so S(E) = S(A,B3) for two-mode and S(A,B3,C) for three-mode, and the
    conditional state is that matrix after ideal x-homodyne on B3. One
    symplectic eigenvalue of each three-mode matrix equals 1 by
    construction (the detection beamsplitter's vacuum ancilla); it
    contributes no entropy and is verified for every row as an internal
    consistency check. The two-mode (A, B3) is the conventional channel
    state at transmittance t*eta_d*eta_e behind an ideal detector. In the
    conventional trusted model Eve purifies only the channel output (A,
    B1), so her entropy comes from the pre-detector matrix; after Bob's
    homodyne the global state stays pure, so her conditional entropy
    equals that of the remaining trusted modes (A, F, G) in the full 8x8
    model.

    n0, the SNU ratio, is a positive scalar or a 1-D column that
    broadcasts with v, t and eps_c like one more of them; a column of
    another length than the rows is a ValueError naming n0. Every row's
    bound comes from one batched pass, a float for scalar params and n0,
    otherwise a 1-D column.
    """
    if model is CalibrationModel.CONVENTIONAL_TTE:
        eve = conventional_channel_stack(params, n0)
        measured = conventional_stack(params, eve)
        _require_finite(measured, n0, "measured matrix")
        what = "channel"
    elif model is CalibrationModel.ONE_TIME_THREE_MODE:
        eve = measured = three_mode_stack(params, n0)
        what = "three-mode"
    elif model is CalibrationModel.ONE_TIME_TWO_MODE:
        receiver = replace(params, t=np.asarray(params.t) * params.eta_d * params.eta_e,
                           eta_d=1.0, v_ele=0.0, v_rin=0.0)
        eve = measured = conventional_channel_stack(receiver, n0)
        what = "two-mode"
    else:
        raise ValueError(f"unknown calibration model {model!r}")
    spectra = _spectra(eve, n0, what)
    if model is CalibrationModel.ONE_TIME_THREE_MODE:
        lost = np.min(np.abs(spectra - 1.0), axis=-1) > _UNIT_EIGENVALUE_TOL
        if lost.any():
            i = int(np.argmax(lost))
            raise NumericalError(
                f"three-mode matrix lost its unit eigenvalue at n0 = "
                f"{float(np.broadcast_to(n0, lost.shape)[i])!r}: "
                f"spectrum {tuple(float(x) for x in spectra[i])}", row=i)
    cond = homodyne_conditioned(measured, 1)
    chi = entropy_of_spectra(spectra) - entropy_of_spectra(_spectra(cond, n0, "conditional"))
    return _as_given(chi, params, n0)


def closed_form_model(params: SystemParams, model: CalibrationModel,
                      fs: FiniteSizeParams | None = None) -> np.ndarray:
    """The model as closed_form_rate takes it, the row [T / t, eta, v_el,
    n0, ...]: Lodewyck's trusted detector of efficiency eta and electronic
    noise v_el behind a channel of transmittance T, and the SNU ratios the
    rate's worst case is taken over. (T, eta, v_el) is (t, eta_d, v_ele +
    v_rin) for conventional, (t eta_e, eta_d, 0) for three-mode and
    (t eta_d eta_e, 1, 0) for two-mode. The ratio is 1 asymptotically, and
    with fs key_rate's grid: N0_SCAN_POINTS ratios across the model's
    snu_interval, normalized by its point estimate.
    """
    if model is CalibrationModel.CONVENTIONAL_TTE:
        detector = [1.0, params.eta_d, params.v_ele + params.v_rin]
    elif model is CalibrationModel.ONE_TIME_THREE_MODE:
        detector = [params.eta_e, params.eta_d, 0.0]
    elif model is CalibrationModel.ONE_TIME_TWO_MODE:
        detector = [params.eta_d * params.eta_e, 1.0, 0.0]
    else:
        raise ValueError(f"unknown calibration model {model!r}")
    if fs is None:
        return np.concatenate([detector, [1.0]])
    calib = snu_interval(params, model, fs)
    return np.concatenate([detector, np.linspace(calib.lower / calib.point,
                                                 calib.upper / calib.point, N0_SCAN_POINTS)])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def closed_form_rate(params: SystemParams, model: np.ndarray,
                     fs: FiniteSizeParams | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The key rate and chi_BE from the closed form of Lodewyck et al., PRA
    76, 042305 (2007), in one vectorised pass without an eigensolve, each
    of shape (rows, SNU ratios).

    model is a closed_form_model row for all rows of params, or one for
    each, so that one call takes rows of several models. A model's state
    at SNU ratio n0 is its n0 = 1 state at t / n0 and eps_c + (1 - n0) /
    (t eta_d eta_e), and I_AB does not move, so the rate at n0 is beta *
    I_AB - chi_BE at those parameters, and with fs key_fraction * (that -
    Delta(n)), whose first lowest value over the grid is key_rate's
    worst ratio.
    They are evaluated as raw columns, since t / n0 exceeds 1 at 0 km for
    n0 < 1. Each symplectic pair is taken as the moduli symplectic_spectra
    reports, so unphysical states have a value too. Only where the
    arithmetic overflows is a value not finite; there is no error, and no
    warning.
    """
    model = np.reshape(model, (-1, np.shape(model)[-1]))
    gain, eta, v_el, n0 = model[:, :1], model[:, 1:2], model[:, 2:3], model[:, 3:]
    v, t, eps_c = (np.reshape(x, (-1, 1)) for x in (params.v, params.t, params.eps_c))
    eps_c = eps_c + (1.0 - n0) / (t * params.eta_d * params.eta_e)
    t = gain * (t / n0)
    # Noise referred to the channel input: the line's, the detector's, the total.
    line = 1.0 / t - 1.0 + eps_c
    hom = (1.0 - eta) / eta + v_el / eta
    total = line + hom / t
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + line) ** 2
    sqrt_b = t * (v * line + 1.0)
    denom = t * (v + total)
    c = (a * hom + v * sqrt_b + t * (v + line)) / denom
    d = sqrt_b * (v + sqrt_b * hom) / denom
    # Eve's symplectic pair has nu1^2 + nu2^2 = a and (nu1 nu2)^2 = b, her
    # conditional one the same with (c, d): nu^2 are the roots of x^2 - s x + p.
    # Of an unphysical state they are taken as the moduli symplectic_spectra
    # reports. A complex pair (s^2 < 4p) has both nu^2 = sqrt(p); else the
    # larger is (|s| + sqrt(s^2 - 4p)) / 2; and nu1 nu2 = sqrt(|p|) throughout.
    # Selecting on disc < 0 leaves an overflow's NaN a NaN. A pure pair's disc
    # is 0 but may round up to 4u s^2 (u = 2^-53), so up to 16u s^2 counts as 0.
    s, p = np.stack([a, c]), np.stack([sqrt_b * sqrt_b, d])
    ss = s * s
    disc = ss - 4.0 * p
    disc[(disc > 0.0) & (disc <= 2.0 ** -49 * ss)] = 0.0
    nu1 = np.sqrt(np.where(disc < 0.0, np.sqrt(p), (np.abs(s) + np.sqrt(disc)) / 2.0))
    eve, conditional = entropy_of_spectra(np.stack([nu1, np.sqrt(np.abs(p)) / nu1], axis=-1))
    chi = eve - conditional
    rate = params.beta * np.reshape(mutual_information(params), (-1, 1)) - chi
    if fs is not None:
        rate = fs.key_fraction * (rate - finite_size_penalty(fs))
    return rate, chi


def finite_size_penalty(fs: FiniteSizeParams) -> float:
    """Rate correction Delta(n) for finite raw-key length.

    (2 dim_hx + 3) sqrt(log2(2/eps_smooth)/n) + (2/n) log2(1/eps_pa),
    vanishing as n grows.
    """
    n = fs.n_key
    return (2.0 * fs.dim_hx + 3.0) * math.sqrt(math.log2(2.0 / fs.eps_smooth) / n) \
        + (2.0 / n) * math.log2(1.0 / fs.eps_pa)


def snu_interval(params: SystemParams, model: CalibrationModel,
                 fs: FiniteSizeParams) -> CalibrationEstimate:
    """SNU confidence interval of the model's calibration procedure, in
    true-SNU units, from fs.calib_samples_m samples per measurement step.

    The one-time unit is the full LO-on variance 1 + v_ele + v_rin; the
    two-time unit subtracts a separately measured v_ele (the LO-off
    measurement sees no RIN), so its interval carries both fluctuations.
    """
    v_ele = params.v_ele if model is CalibrationModel.CONVENTIONAL_TTE else 0.0
    return confidence_interval(1.0 + params.v_ele + params.v_rin, v_ele,
                               fs.calib_samples_m, fs.eps_pe)


def key_rate(params: SystemParams, model: CalibrationModel,
             fs: FiniteSizeParams | None = None,
             delta: float | np.ndarray = 0.0) -> KeyRateResult:
    """Secret key rate, asymptotic for fs None and finite-size otherwise.

    The SNU estimates are those :func:`apply_miscalibration` makes under
    a fractional SNU error delta. Asymptotically the rate is beta*I_AB -
    chi_BE at n0 = 1. In the finite-size regime the calibrated-over-true
    SNU ratio n0 runs over a grid of N0_SCAN_POINTS across the model's
    :func:`snu_interval` normalized by its point estimate, beta*I_AB -
    chi_BE is minimized over that grid, the penalty Delta(n) is
    subtracted and the result scaled by the key fraction n/N.
    Channel-parameter fluctuation is out of scope; only the SNU-bearing
    matrix entries move.

    Asymptotically the rate and chi_BE are closed_form_rate's at n0 = 1,
    and no eigensolve runs. Finite-size, the worst ratio of each row is
    the first of the lowest closed_form_rate values over the grid, and
    chi_BE there comes from holevo_bound, so the eigensolver runs at one
    ratio per row and a fault of its route at any other ratio raises
    nothing. Either regime makes one closed_form_rate call, and a
    closed-form rate that is not finite, at any ratio, is an error naming
    its ratio.

    One row for scalar params and delta. A block of rows, with v, t,
    eps_c or delta as 1-D columns, gives a column per result field, from
    at most one holevo_bound call over every row at its worst ratio, so
    an error names the first failing row; each row equals its own one-row
    evaluation.
    """
    eff = apply_miscalibration(params, delta)
    i_ab = mutual_information(eff)
    cf = closed_form_model(params, model, fs)  # ends with the n0 grid
    n0 = cf[3:]
    rate, chi = closed_form_rate(eff, cf, fs)
    _require_finite(rate, np.broadcast_to(n0, rate.shape), "key rate")
    # argmin takes the first of equal minima, as a strict-< scan would.
    worst = np.argmin(rate, axis=1)
    rows = np.arange(worst.size)
    rate, chi, penalty = rate[rows, worst], chi[rows, worst], 0.0
    if fs is not None:
        chi = np.reshape(holevo_bound(eff, model, n0[worst]), -1)
        values = eff.beta * np.reshape(i_ab, -1) - chi
        _require_finite(values, n0[worst], "key rate")
        penalty = finite_size_penalty(fs)
        rate = fs.key_fraction * (values - penalty)
    return KeyRateResult(
        rate_bits_per_pulse=_as_given(rate, eff),
        i_ab=i_ab,
        chi_be=_as_given(chi, eff),
        delta_n=penalty,
        worst_n0=_as_given(n0[worst], eff),
    )


def _lowest_rate(params: SystemParams, model: np.ndarray,
                 fs: FiniteSizeParams | None = None) -> np.ndarray:
    """rate_at of the TEN search: each row's lowest closed-form rate over
    the SNU ratios of its closed_form_model row in model. A rate that is
    not finite is an error naming its ratio and carrying its row."""
    rate, _ = closed_form_rate(params, model, fs)
    _require_finite(rate, model[:, 3:], "key rate")
    return np.min(rate, axis=1)


def tolerable_excess_noise(params: SystemParams, models: Sequence[CalibrationModel],
                           fs: FiniteSizeParams | None = None) -> dict:
    """Each model's tolerable-excess-noise column at the rows of params, v
    and t columns of one length: the largest eps_c with a positive rate
    at delta 0, as a bisection to TEN_TOLERANCE finds it, from one
    _tolerable_noise search over every model's rows stacked in sorted
    model order, each row with its own model's closed_form_model row. The
    rate is _lowest_rate's, the closed form's worst case over the SNU
    ratios, which is key_rate's asymptotically and, finite-size, is taken
    at key_rate's worst ratio, so it has key_rate's sign wherever |rate|
    exceeds the two routes' difference there. An error of the search
    carries its model as exc.model and its row of params as exc.row."""
    models = sorted(models, key=lambda m: m.value)
    n, k = np.size(params.v), len(models)
    stack = replace(params, v=np.tile(params.v, k), t=np.tile(params.t, k))
    cf = np.repeat([closed_form_model(params, m, fs) for m in models], n, axis=0)
    try:
        ten = _tolerable_noise(lambda rows, eps_c: _lowest_rate(
            replace(stack, v=stack.v[rows], t=stack.t[rows], eps_c=eps_c), cf[rows], fs), k * n)
    except NumericalError as exc:  # a row of the stack -> model and row
        i, exc.row = divmod(exc.row, n)
        exc.model = models[i]
        raise
    return dict(zip(models, np.split(ten, k)))


def _tolerable_noise(rate_at, n: int) -> np.ndarray:
    """Largest excess noise with positive rate for each of n rows: the
    value a bisection to TEN_TOLERANCE gives, found from fewer evaluations.

    rate_at(rows, eps_c) gives the rate of each listed row at its eps_c,
    and a NumericalError it raises carries its listed row, which becomes
    that row's index among the n. The bisection doubles hi from 0.5 while
    the rate is positive, halves [hi / 2, hi] (or [0, 0.5]) to a cell of
    width w, the largest power of two <= TEN_TOLERANCE, and returns the
    centre of the cell whose lower edge has a positive rate and whose
    upper edge has not, or 0.0 where the rate at 0 is not positive. This
    search evaluates such cell edges only, exact dyadic floats, and each
    row keeps the highest edge known positive (lo) and the lowest known
    not (hi); it is done once they are one cell apart, or once hi is 0.

    Each row evaluates 0 while no edge is known positive, then, until one
    is known not to be, doubles its probe from lo (from 0.5 at lo = 0) up
    to the cap, where a positive rate is an error. The bracket [lo, hi]
    then shrinks: each step takes the edge nearest the inverse quadratic
    interpolation of the values at lo, hi and the place an end last moved
    from, or nearest the secant root where that estimate is missing or
    outside the bracket, or the floored midpoint edge where the secant
    root is not finite. Once the steps taken plus the bisection steps the
    bracket still needs reach twice those of the bracket it started from,
    the midpoint edge is taken instead. Each step evaluates every open
    row in one call. The magnitudes only choose the next edge; the sign
    of the value alone decides which end moves to it. So where the sign
    changes once over the edges up to the cap, the result is the
    bisection's, bit for bit, and so are the probes, whatever the
    magnitudes.
    """
    width = 2.0 ** (math.frexp(TEN_TOLERANCE)[1] - 1)
    cap = _TEN_BRACKET_CAP
    # An end not known yet has lo one cell below 0 or hi at inf, with a NaN value.
    lo, f_lo = np.full(n, -width), np.full(n, np.nan)
    hi, f_hi = np.full(n, np.inf), np.full(n, np.nan)
    # The third point of the interpolation: the place an end last moved from.
    x_c, f_c = np.full(n, np.nan), np.full(n, np.nan)
    steps, budget = np.zeros(n, dtype=int), np.full(n, -1)

    while True:
        capped = lo == cap
        if capped.any():
            raise NumericalError("rate stayed positive up to the excess-noise cap",
                                 row=int(np.argmax(capped)))
        r = np.flatnonzero(hi - lo > width)
        if not r.size:
            return np.where(lo >= 0.0, 0.5 * (lo + hi), 0.0)
        # A row evaluates 0, then probes, then steps into its bracket.
        at = np.where(lo[r] < 0.0, 0.0, np.clip(2.0 * lo[r], 0.5, cap))
        s = np.flatnonzero((lo[r] >= 0.0) & (hi[r] < np.inf))
        rows = r[s]
        # In cells from lo: hi at span, the third point at c.
        span = (hi[rows] - lo[rows]) / width
        c = (x_c[rows] - lo[rows]) / width
        fa, fb, fc = f_lo[rows], f_hi[rows], f_c[rows]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            iqi = (span * fa * fc / ((fb - fa) * (fb - fc))
                   + c * fa * fb / ((fc - fa) * (fc - fb)))
            estimate = np.rint(np.where((iqi > 0.0) & (iqi < span), iqi,
                                        span * fa / (fa - fb)))
        # frexp(c - 1)[1] is ceil(log2(c)), the bisection steps c cells need.
        needed = np.frexp(span - 1.0)[1]
        budget[rows] = np.where(budget[rows] < 0, 2 * needed, budget[rows])
        midpoint = (steps[rows] + needed >= budget[rows]) | ~np.isfinite(estimate)
        step = np.where(midpoint, np.floor(0.5 * span), np.clip(estimate, 1.0, span - 1.0))
        at[s] = lo[rows] + step * width
        steps[rows] += 1
        try:
            f = rate_at(r, at)
        except NumericalError as exc:  # a listed row -> its row of the n
            exc.row = int(r[exc.row])
            raise
        up = f > 0.0
        # Each point lies strictly inside its row's bracket. Its sign says
        # which end moves there; a known end's old place is the third point.
        old = np.where(up, lo[r], hi[r])
        known = (old >= 0.0) & (old < np.inf)
        x_c[r[known]], f_c[r[known]] = old[known], np.where(up, f_lo[r], f_hi[r])[known]
        lo[r[up]], f_lo[r[up]] = at[up], f[up]
        hi[r[~up]], f_hi[r[~up]] = at[~up], f[~up]
