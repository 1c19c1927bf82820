"""Gaussian-state linear algebra on quadrature covariance matrices.

All states are represented by their second-moment (covariance) matrix in
shot-noise units, vacuum variance normalized to 1. Quadratures are stored
interleaved as (x1, p1, x2, p2, ...) so each mode owns a contiguous 2x2
block, which keeps beamsplitter and measurement updates local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

# Relative tolerance for the symmetry check on construction.
SYMMETRY_RTOL = 1e-12

# A physical covariance matrix has every symplectic eigenvalue >= 1 up to
# this slack (uncertainty principle).
PHYSICALITY_TOL = 1e-9

# Singular values below this fraction of the largest one are treated as
# zero when pseudo-inverting the homodyne-projected block, which is
# rank-deficient by construction.
_PINV_RCOND = 1e-12

ENTROPY_ARG_TOL = 1e-12


class NumericalError(RuntimeError):
    """Raised when an eigensolve or a conditioning step breaks down."""


class MeasurementBasis(Enum):
    X_QUADRATURE = "x"
    P_QUADRATURE = "p"


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2n x 2n quadrature covariance matrix in shot-noise units.

    Construction validates shape and symmetry only. Physicality (all
    symplectic eigenvalues >= 1) is deliberately not enforced here, so
    that intentionally miscalibrated states can be represented; use
    :func:`is_physical` to check it explicitly.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
            raise ValueError(f"covariance matrix dimension must be even, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.T).max()) > SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric within tolerance")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n_modes(self) -> int:
        return self.data.shape[0] // 2

    def mode_block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling mode i to mode j."""
        return self.data[2 * i:2 * i + 2, 2 * j:2 * j + 2]


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues, one per mode, sorted descending.

    Physical states satisfy values >= 1; spectra of miscalibrated
    matrices may dip below.
    """

    values: tuple[float, ...]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def min(self) -> float:
        return min(self.values)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form, block-diagonal [[0, 1], [-1, 0]] per mode."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return out


def _g(x: float) -> float:
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x) if x > 0.0 else 0.0


def entropy_g(x: float) -> float:
    """Thermal-state entropy function (x+1)log2(x+1) - x log2 x.

    Continuous at x = 0 with value 0 (vacuum carries no entropy). Tiny
    negative arguments from floating-point noise clamp to 0; anything
    below -1e-12 is a genuine domain violation.
    """
    x = float(x)
    if x < -ENTROPY_ARG_TOL:
        raise ValueError(f"entropy argument must be nonnegative, got {x}")
    return _g(x)


def entropy_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits from symplectic spectra of shape (..., n).

    Eigenvalues may dip marginally below 1 for miscalibrated matrices;
    those modes carry no entropy and clamp to the vacuum value. Each
    mode's term takes libm's log2, summed in spectrum order: numpy's SIMD
    log2 differs from it in the last ulp on a few inputs in 10^4, which
    would move published rates.
    """
    x = np.maximum(0.0, (spectra - 1.0) / 2.0)
    rows = x.reshape(-1, x.shape[-1]).tolist()
    return np.array([sum(map(_g, row)) for row in rows]).reshape(x.shape[:-1])


def symplectic_spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a stack of covariance matrices (..., 2n, 2n).

    Computed as the moduli of the eigenvalues of i*Omega*gamma with a
    general dense eigensolver, one batched call for the whole stack. The
    eigenvalues come in +/- pairs; each pair is collapsed to a single
    entry (averaged, which is exact up to solver noise), giving n values
    per matrix sorted descending, shape (..., n).
    """
    n = stack.shape[-1] // 2
    m = 1j * symplectic_form(n) @ stack
    try:
        ev = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.max(np.linalg.cond(stack)))
        except np.linalg.LinAlgError:
            cond = float("inf")
        raise NumericalError(
            f"eigenvalue solve did not converge (matrix condition number {cond:.3e})"
        ) from exc
    mags = np.sort(np.abs(ev), axis=-1)
    paired = (mags[..., 0::2] + mags[..., 1::2]) / 2.0
    return paired[..., ::-1]


def symplectic_eigenvalues(gamma: CovarianceMatrix) -> SymplecticSpectrum:
    """Symplectic spectrum of one covariance matrix; see :func:`symplectic_spectra`."""
    return SymplecticSpectrum(tuple(float(v) for v in symplectic_spectra(gamma.data)))


def beamsplitter_symplectic(n_modes: int, mode_a: int, mode_b: int,
                            transmittance: float) -> np.ndarray:
    """Symplectic matrix of a beamsplitter on (mode_a, mode_b).

    Identity outside the two modes; on them, sqrt(eta) on the diagonal
    and +/- sqrt(1 - eta) off-diagonal.
    """
    eta = float(transmittance)
    t = math.sqrt(eta) * np.eye(2)
    r = math.sqrt(1.0 - eta) * np.eye(2)
    y = np.eye(2 * n_modes)
    a, b = 2 * mode_a, 2 * mode_b
    y[a:a + 2, a:a + 2] = t
    y[a:a + 2, b:b + 2] = r
    y[b:b + 2, a:a + 2] = -r
    y[b:b + 2, b:b + 2] = t
    return y


def mix_on_beamsplitter(stack: np.ndarray, mode_a: int, mode_b: int,
                        transmittance: float) -> np.ndarray:
    """Y^T gamma Y over a stack (..., 2n, 2n), symmetrised; arguments unchecked."""
    y = beamsplitter_symplectic(stack.shape[-1] // 2, mode_a, mode_b, transmittance)
    out = y.T @ stack @ y
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def apply_beamsplitter(gamma: CovarianceMatrix, mode_a: int, mode_b: int,
                       transmittance: float) -> CovarianceMatrix:
    """Mix two modes on a beamsplitter: gamma -> Y^T gamma Y."""
    n = gamma.n_modes
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    if mode_a == mode_b:
        raise ValueError("beamsplitter modes must be distinct")
    for m in (mode_a, mode_b):
        if not 0 <= m < n:
            raise ValueError(f"mode index {m} out of range for {n} modes")
    return CovarianceMatrix(mix_on_beamsplitter(gamma.data, mode_a, mode_b, transmittance))


def with_vacuum(data: np.ndarray) -> np.ndarray:
    """Block-diagonal gamma (+) I2 of one plain 2n x 2n matrix."""
    d = data.shape[0]
    out = np.zeros((d + 2, d + 2))
    out[:d, :d] = data
    out[d:, d:] = np.eye(2)
    return out


def attach_vacuum(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """Append one vacuum mode: gamma -> gamma (+) I2."""
    return CovarianceMatrix(with_vacuum(gamma.data))


def keep_modes(gamma: CovarianceMatrix, modes: Sequence[int]) -> CovarianceMatrix:
    """Partial trace: keep only the listed modes, in the given order."""
    n = gamma.n_modes
    if len(modes) == 0:
        raise ValueError("must keep at least one mode")
    if len(set(modes)) != len(modes):
        raise ValueError("mode list contains duplicates")
    for m in modes:
        if not 0 <= m < n:
            raise ValueError(f"mode index {m} out of range for {n} modes")
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    return CovarianceMatrix(gamma.data[np.ix_(idx, idx)])


def homodyne_conditioned(stack: np.ndarray, measured_mode: int,
                         basis: MeasurementBasis) -> np.ndarray:
    """Conditional covariances after ideal homodyne, over a stack (..., 2n, 2n).

    Returns A - C (X B X)^+ C^T per matrix, where B is the measured
    mode's block, C the cross block, and X projects onto the measured
    quadrature; one batched pseudoinverse handles the rank-1 projected
    blocks. The result does not depend on the measurement outcome.
    """
    n = stack.shape[-1] // 2
    q = 0 if basis is MeasurementBasis.X_QUADRATURE else 1
    kept = np.array([i for m in range(n) if m != measured_mode for i in (2 * m, 2 * m + 1)])
    measured = slice(2 * measured_mode, 2 * measured_mode + 2)
    a = stack[..., kept[:, None], kept]
    b = stack[..., measured, measured]
    c = stack[..., kept, measured]
    bqq = b[..., q, q]
    if np.any(bqq <= 0.0):
        raise NumericalError(
            f"measured quadrature variance must be positive, got {np.min(bqq)}"
        )
    proj = np.zeros((2, 2))
    proj[q, q] = 1.0
    pinv = np.linalg.pinv(proj @ b @ proj, rcond=_PINV_RCOND)
    out = a - c @ pinv @ np.swapaxes(c, -1, -2)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def condition_on_homodyne(gamma: CovarianceMatrix, measured_mode: int,
                          basis: MeasurementBasis) -> CovarianceMatrix:
    """Covariance of the remaining modes after ideal homodyne detection.

    One matrix through :func:`homodyne_conditioned`.
    """
    n = gamma.n_modes
    if n < 2:
        raise ValueError("conditioning requires at least two modes")
    if not 0 <= measured_mode < n:
        raise ValueError(f"mode index {measured_mode} out of range for {n} modes")
    return CovarianceMatrix(homodyne_conditioned(gamma.data, measured_mode, basis))


def is_physical(gamma: CovarianceMatrix, tol: float = PHYSICALITY_TOL) -> bool:
    """True if every symplectic eigenvalue is >= 1 - tol."""
    return symplectic_eigenvalues(gamma).min() >= 1.0 - tol
