"""Gaussian-state kernels on stacks of quadrature covariance matrices.

A state is its second-moment (covariance) matrix in shot-noise units,
vacuum variance normalized to 1, held as a plain array; every kernel takes
a stack of shape (..., 2n, 2n) and handles all of it in one batched pass.
Quadratures are stored interleaved as (x1, p1, x2, p2, ...) so each mode
owns a contiguous 2x2 block, which keeps beamsplitter and measurement
updates local; homodyne conditioning is an exact rank-1 update, with no
matrix inverse. homodyne_conditioned refuses a non-positive measured
variance, and symplectic_spectra raises NumericalError when its solver
fails; the key-rate layer checks the builders' stacks for finiteness.
"""

from __future__ import annotations

import functools
import math

import numpy as np

class NumericalError(RuntimeError):
    """A failed eigensolve or conditioning, a non-finite matrix, spectrum, key
    rate or rate_bits_per_s, a lost three-mode unit eigenvalue or a TEN bracket
    at its cap. row is the index of the failing row of the block, where known."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form, block-diagonal [[0, 1], [-1, 0]] per mode."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return out


def entropy_of_spectra(spectra: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits from symplectic spectra of shape (..., n).

    Each mode contributes g((nu - 1)/2) with the thermal-state entropy
    function g(x) = (x+1)log2(x+1) - x log2 x, continuous at x = 0 with
    value 0 (vacuum carries no entropy). A mode with nu < 1 contributes
    no entropy either: such modes come from unphysical reconstructions at
    some SNU ratios n0, with nu down to 0.03 at 1e4 calibration samples.
    """
    x = np.maximum((spectra - 1.0) / 2.0, 0.0)
    y = x + 1.0
    terms = y * np.log2(y) - x * np.log2(np.where(x > 0.0, x, 1.0))
    # Mode by mode, in spectrum order: a reduction over the short last axis
    # costs more than adding its columns.
    return functools.reduce(np.add, (terms[..., i] for i in range(terms.shape[-1])))


def symplectic_spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra of a stack of covariance matrices (..., 2n, 2n).

    Computed as the moduli of the eigenvalues of i*Omega*gamma with a
    general dense eigensolver, one batched call for the whole stack. The
    eigenvalues come in +/- pairs; each pair is collapsed to a single
    entry (averaged, which is exact up to solver noise), giving n values
    per matrix sorted descending, shape (..., n). Physical states have
    every value >= 1; spectra of miscalibrated matrices may dip below.
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


def mix_on_beamsplitter(stack: np.ndarray, mode_a: int, mode_b: int,
                        transmittance: float) -> np.ndarray:
    """Mix two modes on a beamsplitter over a stack (..., 2n, 2n).

    gamma -> Y^T gamma Y, symmetrised, where Y is the identity outside
    the two modes and, on them, sqrt(eta) on the diagonal and
    +/- sqrt(1 - eta) off-diagonal.
    """
    t = math.sqrt(transmittance) * np.eye(2)
    r = math.sqrt(1.0 - transmittance) * np.eye(2)
    y = np.eye(stack.shape[-1])
    a, b = 2 * mode_a, 2 * mode_b
    y[a:a + 2, a:a + 2] = t
    y[a:a + 2, b:b + 2] = r
    y[b:b + 2, a:a + 2] = -r
    y[b:b + 2, b:b + 2] = t
    out = y.T @ stack @ y
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def with_vacuum(stack: np.ndarray) -> np.ndarray:
    """Append one vacuum mode to each matrix of a stack (..., 2n, 2n): gamma (+) I2."""
    d = stack.shape[-1]
    out = np.zeros(stack.shape[:-2] + (d + 2, d + 2))
    out[..., :d, :d] = stack
    out[..., d, d] = out[..., d + 1, d + 1] = 1.0
    return out


def homodyne_conditioned(stack: np.ndarray, measured_mode: int) -> np.ndarray:
    """Conditional covariances after ideal x-homodyne, over a stack (..., 2n, 2n).

    Returns A - C (X B X)^+ C^T per matrix, where B is the measured
    mode's block, C the cross block, and X projects onto its x
    quadrature. (X B X)^+ is exactly diag(1/b_xx, 0), so this is the
    rank-1 update A - (c / b_xx) c^T with c the measured x-column. The
    reciprocal is taken first and then multiplied, c * (1/b_xx), as the
    pseudoinverse product does: dividing c by b_xx rounds differently
    and would move published rates in the last digits. The result does
    not depend on the measurement outcome.
    """
    kept = np.array([i for m in range(stack.shape[-1] // 2) if m != measured_mode
                     for i in (2 * m, 2 * m + 1)])
    x = 2 * measured_mode
    a = stack[..., kept[:, None], kept]
    c = stack[..., kept, x]
    bxx = stack[..., x, x]
    if np.any(bxx <= 0.0):
        raise NumericalError(
            f"measured quadrature variance must be positive, got {np.min(bxx)}"
        )
    out = a - (c * (1.0 / bxx)[..., None])[..., :, None] * c[..., None, :]
    return (out + np.swapaxes(out, -1, -2)) / 2.0
