"""Tests for the Gaussian-state kernels on covariance stacks.

Independent oracles used here: explicit 4x4/6x6 matrix products for the
beamsplitter, the analytic two-mode symplectic formula, a full-matrix
Schur-complement reimplementation of homodyne conditioning, the
per-matrix pseudoinverse pipeline of tests/oracles.py, and states
with a known Williamson spectrum built by conjugating diagonal thermal
matrices with random symplectics.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from cvqkd_calib import NumericalError, SystemParams, apply_miscalibration
from cvqkd_calib.gaussian import (
    entropy_of_spectra,
    homodyne_conditioned,
    mix_on_beamsplitter,
    symplectic_form,
    symplectic_spectra,
    with_vacuum,
)
from cvqkd_calib.models import (
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
)
from oracles import (
    _x_conditioned,
    entropy_by_row,
    entropy_exact,
    epr_state,
    grid_pairs,
    two_mode_stack,
)

SZ = np.diag([1.0, -1.0])


# ---------------------------------------------------------------------------
# oracles


def two_mode_spectrum_oracle(gamma: np.ndarray) -> tuple[float, float]:
    """Analytic two-mode formula: lam^2 = (D +/- sqrt(D^2 - 4 det g))/2
    with D = det A + det B + 2 det C."""
    a = gamma[:2, :2]
    b = gamma[2:, 2:]
    c = gamma[:2, 2:]
    disc = np.linalg.det(a) + np.linalg.det(b) + 2 * np.linalg.det(c)
    root = math.sqrt(disc * disc - 4 * np.linalg.det(gamma))
    return math.sqrt((disc + root) / 2), math.sqrt((disc - root) / 2)


def conditioning_oracle(gamma: np.ndarray, mode: int, quad: int) -> np.ndarray:
    """Homodyne conditioning done on the full matrix: subtract the rank-1
    update gamma[:,k] gamma[k,:] / gamma[k,k], then drop the measured mode."""
    k = 2 * mode + quad
    out = gamma - np.outer(gamma[:, k], gamma[k, :]) / gamma[k, k]
    keep = [i for i in range(gamma.shape[0]) if i not in (2 * mode, 2 * mode + 1)]
    return out[np.ix_(keep, keep)]


def random_two_mode_physical(rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """Physical 2-mode matrix with a known Williamson spectrum."""
    nu1, nu2 = sorted(rng.uniform(1.0, 8.0, size=2), reverse=True)
    d = np.diag([nu1, nu1, nu2, nu2])
    s = np.eye(4)
    for _ in range(3):
        mode = rng.integers(0, 2)
        theta = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(-0.8, 0.8)
        local = np.eye(4)
        rot = np.array([[np.cos(theta), np.sin(theta)],
                        [-np.sin(theta), np.cos(theta)]])
        sq = np.diag([np.exp(r), np.exp(-r)])
        local[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = rot @ sq
        s = local @ s
        eta = rng.uniform(0.05, 0.95)
        t, rr = math.sqrt(eta), math.sqrt(1 - eta)
        bs = np.block([[t * np.eye(2), rr * np.eye(2)],
                       [-rr * np.eye(2), t * np.eye(2)]])
        s = bs @ s
    g = s @ d @ s.T
    return (g + g.T) / 2, nu1, nu2


def conditioning_stacks() -> dict[str, tuple[np.ndarray, int]]:
    """Stacks and the mode measured on them. Each model's measured stack
    holds 900 matrices: 100 rows with V 1.01-80, t 1e-8-1 and eps_c 0-0.3
    under an SNU error delta of up to +/-5% and RIN noise, each at 9
    values of n0 in 0.7-1.3. 300 generic symmetric 6x6 matrices are
    measured at their first and last mode."""
    rng = np.random.default_rng(18)
    true = SystemParams(v=rng.uniform(1.01, 80.0, 100), t=10 ** rng.uniform(-8.0, 0.0, 100),
                        eps_c=rng.uniform(0.0, 0.3, 100), eta_d=0.6, v_ele=0.05,
                        beta=0.95, v_rin=0.01)
    p, n0 = grid_pairs(apply_miscalibration(true, rng.uniform(-0.05, 0.05, 100)),
                       np.linspace(0.7, 1.3, 9))
    r = rng.uniform(-1.0, 1.0, (300, 6, 6))
    generic = r + np.swapaxes(r, -1, -2) + 3.0 * np.eye(6)
    return {"two-mode": (two_mode_stack(p, n0), 1),
            "three-mode": (three_mode_stack(p, n0), 1),
            "conventional": (conventional_stack(p, conventional_channel_stack(p, n0)), 1),
            "generic-mode-0": (generic, 0), "generic-mode-2": (generic, 2)}


# ---------------------------------------------------------------------------
# entropy_of_spectra: one mode of symplectic eigenvalue nu carries
# g((nu - 1)/2) with g(x) = (x+1) log2(x+1) - x log2 x

def entropy_g(x: float) -> float:
    return float(entropy_of_spectra(np.array([2.0 * x + 1.0])))


class TestEntropyG:
    def test_zero_at_zero(self):
        assert entropy_g(0.0) == 0.0

    def test_closed_form_at_one(self):
        # (1+1) log2 2 - 1 log2 1 = 2
        assert entropy_g(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_half_against_high_precision_oracle(self):
        # 1.5 log2 1.5 - 0.5 log2 0.5, evaluated at 40 significant digits
        assert entropy_g(0.5) == pytest.approx(1.3774437510817343, abs=1e-12)

    def test_tiny_negative_clamps(self):
        assert entropy_g(-1e-13) == 0.0

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 10.0, 50)
        vals = entropy_of_spectra(2.0 * xs[:, None] + 1.0)
        assert vals.shape == (50,)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (5000,), (50, 100)])
    def test_rows_within_float_error_of_40_digits(self, shape, n):
        # Each row is within 2 eps of the sum of its terms' magnitudes,
        # (x+1) log2(x+1) + x |log2 x|, plus 1e-15 bits for x + 1 rounding
        # where x is below 1e-15.
        nu, exact = spectra_with_exact_entropies(n)
        size = math.prod(shape)
        got = entropy_of_spectra(nu[:size].reshape(shape + (n,)))
        assert got.shape == shape
        x = np.maximum((nu[:size] - 1.0) / 2.0, 0.0)
        magnitude = ((x + 1.0) * np.log2(x + 1.0)
                     + x * np.abs(np.log2(np.where(x > 0.0, x, 1.0)))).sum(axis=1)
        error = errors(got.ravel(), exact[:size])
        assert np.all(error <= 2.0 * np.finfo(float).eps * magnitude + 1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_as_close_to_40_digits_as_the_per_element_sum(self, n):
        # Against oracles.entropy_by_row, the per-element libm loop, on the
        # inputs above.
        nu, exact = spectra_with_exact_entropies(n)
        ours, loop = (errors(f(nu), exact) for f in (entropy_of_spectra, entropy_by_row))
        assert ours.max() <= loop.max()
        assert np.median(ours) <= np.median(loop)


@functools.cache
def spectra_with_exact_entropies(n: int) -> tuple[np.ndarray, list]:
    """5000 spectra of n modes, nu below 1, within 1e-15 of it, and up to
    1e3, with their entropies to 40 digits (oracles.entropy_exact)."""
    rng = np.random.default_rng(n)
    nu = 10.0 ** rng.uniform(-1.5, 3.0, (5000, n))
    nu.flat[::61] = 1.0 - 1e-15
    nu.flat[1::59] = 1.0 + 1e-15
    nu.flat[2::53] = 1.0
    nu.flat[3::47] = 1e3
    nu.flags.writeable = False
    return nu, entropy_exact(nu)


def errors(got: np.ndarray, exact: list) -> np.ndarray:
    """|got - exact| of each row, computed in mpmath."""
    with mpmath.workdps(40):
        return np.array([float(abs(mpmath.mpf(g) - e)) for g, e in zip(got.tolist(), exact)])


# ---------------------------------------------------------------------------
# symplectic_spectra

class TestSymplecticEigenvalues:
    def test_two_vacuum_modes(self):
        assert symplectic_spectra(np.eye(4)) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_two_thermal_modes(self):
        assert symplectic_spectra(40.0 * np.eye(4)) == pytest.approx((40.0, 40.0), abs=1e-9)

    def test_two_mode_squeezed_is_pure(self):
        assert symplectic_spectra(epr_state(40.0)) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_sorted_descending(self):
        vals = list(symplectic_spectra(np.diag([5.0, 5.0, 2.0, 2.0, 9.0, 9.0])))
        assert vals == sorted(vals, reverse=True)

    def test_channel_output_matches_analytic_two_mode_formula(self):
        # Lossy noisy channel point with eta_e = 1/1.01
        v, t, eps_c, eta_d = 40.0, 0.5, 0.01, 0.6
        eta_e = SystemParams(v=v, t=t, eps_c=eps_c, eta_d=eta_d, v_ele=0.01,
                             beta=0.956).eta_e
        assert eta_e == pytest.approx(0.990099, abs=1e-6)
        tau = t * eta_d * eta_e
        g = np.zeros((4, 4))
        g[:2, :2] = v * np.eye(2)
        g[2:, 2:] = (tau * (v - 1 + eps_c) + 1) * np.eye(2)
        g[:2, 2:] = g[2:, :2] = math.sqrt(tau * (v * v - 1)) * SZ
        got = symplectic_spectra(g)
        expect = two_mode_spectrum_oracle(g)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_random_physical_matrices_match_formula_and_construction(self):
        # All 200 matrices go through the eigensolver as one stack.
        rng = np.random.default_rng(2024)
        draws = [random_two_mode_physical(rng) for _ in range(200)]
        spectra = symplectic_spectra(np.stack([g for g, _, _ in draws]))
        assert spectra.shape == (200, 2)
        for got, (g, nu1, nu2) in zip(spectra, draws):
            assert got == pytest.approx((nu1, nu2), rel=1e-9)
            assert got == pytest.approx(two_mode_spectrum_oracle(g), rel=1e-9)

    def test_vacuum_extension_appends_unit_eigenvalue(self):
        rng = np.random.default_rng(5)
        g, nu1, nu2 = random_two_mode_physical(rng)
        extended = symplectic_spectra(with_vacuum(g))
        assert sorted(extended) == pytest.approx(sorted([nu1, nu2, 1.0]), rel=1e-9)

    def test_solver_failure_is_a_numerical_error(self, monkeypatch):
        def no_convergence(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(NumericalError, match=(
                r"^eigenvalue solve did not converge \(matrix condition number 1\.000e\+00\)$")):
            symplectic_spectra(np.eye(4))


# ---------------------------------------------------------------------------
# mix_on_beamsplitter

class TestApplyBeamsplitter:
    def test_identity_at_full_transmission(self):
        g = epr_state(7.0)
        out = mix_on_beamsplitter(g, 0, 1, 1.0)
        np.testing.assert_allclose(out, g, atol=1e-14)

    def test_full_reflection_swaps_modes(self):
        out = mix_on_beamsplitter(np.diag([1.0, 1.0, 9.0, 9.0]), 0, 1, 0.0)
        np.testing.assert_allclose(np.diag(out), [9.0, 9.0, 1.0, 1.0], atol=1e-14)

    def test_vacuum_thermal_mixing_against_matrix_product(self):
        # Direct 4x4 multiplication Y^T g Y is the oracle.
        v = 11.0
        eta = 0.6
        g = np.diag([1.0, 1.0, v, v])
        t, r = math.sqrt(eta), math.sqrt(1 - eta)
        y = np.block([[t * np.eye(2), r * np.eye(2)],
                      [-r * np.eye(2), t * np.eye(2)]])
        expect = y.T @ g @ y
        out = mix_on_beamsplitter(g, 0, 1, eta)
        np.testing.assert_allclose(out, expect, atol=1e-12)
        # The mixed blocks are eta-weighted averages, cross block
        # -sqrt(eta(1-eta)) (v - 1) on the vacuum-first convention.
        diag_blocks = sorted([out[0, 0], out[2, 2]])
        assert diag_blocks == pytest.approx(sorted([0.6 * v + 0.4, 0.4 * v + 0.6]))
        np.testing.assert_allclose(out[:2, 2:], -math.sqrt(0.24) * (v - 1) * np.eye(2),
                                   atol=1e-12)

    def test_preserves_purity(self):
        out = mix_on_beamsplitter(with_vacuum(epr_state(15.0)), 1, 2, 0.37)
        assert symplectic_spectra(out) == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_preserves_symplectic_spectrum(self):
        # A stack mixes matrix by matrix.
        rng = np.random.default_rng(11)
        draws = [random_two_mode_physical(rng) for _ in range(5)]
        out = mix_on_beamsplitter(np.stack([g for g, _, _ in draws]), 0, 1, 0.42)
        for spectrum, (_, nu1, nu2) in zip(symplectic_spectra(out), draws):
            assert spectrum == pytest.approx((nu1, nu2), rel=1e-9)

    @pytest.mark.parametrize("dim,a,b,eta", [(6, 1, 2, 1.0 / 1.01), (6, 1, 2, 0.6),
                                             (8, 1, 2, 0.6), (4, 0, 1, 0.0)])
    def test_mixes_with_the_exact_beamsplitter_matrix(self, dim, a, b, eta):
        # bytes, not values: the golden outputs depend on Y to the last bit
        y = np.eye(dim)
        t, r = math.sqrt(eta) * np.eye(2), math.sqrt(1.0 - eta) * np.eye(2)
        y[2 * a:2 * a + 2, 2 * a:2 * a + 2] = t
        y[2 * a:2 * a + 2, 2 * b:2 * b + 2] = r
        y[2 * b:2 * b + 2, 2 * a:2 * a + 2] = -r
        y[2 * b:2 * b + 2, 2 * b:2 * b + 2] = t
        g = np.random.default_rng(dim).uniform(-1.0, 1.0, (3, dim, dim))
        g = g + np.swapaxes(g, -1, -2)
        expect = y.T @ g @ y
        expect = (expect + np.swapaxes(expect, -1, -2)) / 2.0
        assert mix_on_beamsplitter(g, a, b, eta).tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# with_vacuum

class TestAttachVacuum:
    def test_vacuum_on_vacuum(self):
        np.testing.assert_allclose(with_vacuum(np.eye(2)), np.eye(4))

    def test_block_structure(self):
        g = epr_state(4.0)
        out = with_vacuum(g)
        assert out.shape == (6, 6)
        np.testing.assert_allclose(out[:4, :4], g)
        np.testing.assert_allclose(out[4:, 4:], np.eye(2))
        np.testing.assert_allclose(out[:4, 4:], 0.0)


# ---------------------------------------------------------------------------
# homodyne_conditioned

class TestConditionOnHomodyne:
    def test_uncorrelated_modes_unchanged(self):
        g = np.diag([3.0, 3.0, 5.0, 5.0])
        out = homodyne_conditioned(g, 1)
        np.testing.assert_allclose(out, np.diag([3.0, 3.0]), atol=1e-14)

    def test_two_mode_conditional_matches_symbolic_form(self):
        """Measuring x on Bob's mode leaves Alice in diag((V chi + 1)/(V + chi), V).

        A commonly quoted closed form for this conditional eigenvalue
        carries a (V + V chi) denominator; the conditioning identity gives
        (V + chi), which the kernel reproduces. The variant is
        documented here as inconsistent and is not used anywhere.
        """
        v, t, eps_c, eta_d, v_ele = 40.0, 0.5, 0.01, 0.6, 0.01
        tau = t * eta_d * SystemParams(v=v, t=t, eps_c=eps_c, eta_d=eta_d, v_ele=v_ele,
                                       beta=0.956).eta_e
        chi = 1.0 / tau - 1.0 + eps_c
        g = np.zeros((4, 4))
        g[:2, :2] = v * np.eye(2)
        g[2:, 2:] = (tau * (v - 1 + eps_c) + 1) * np.eye(2)
        g[:2, 2:] = g[2:, :2] = math.sqrt(tau * (v * v - 1)) * SZ
        out = homodyne_conditioned(g, 1)
        expect = np.diag([(v * chi + 1) / (v + chi), v])
        np.testing.assert_allclose(out, expect, rtol=1e-12)
        lam = symplectic_spectra(out)[0]
        assert lam == pytest.approx(math.sqrt(v * (v * chi + 1) / (v + chi)), rel=1e-12)
        printed_variant = math.sqrt(v * (v * chi + 1) / (v + v * chi))
        assert abs(lam - printed_variant) > 1.0  # inconsistent printed denominator

    def test_matches_full_matrix_oracle_on_three_modes(self):
        # Kernel on a stack of 25 vs the oracle that updates the whole
        # matrix first and drops the measured mode afterwards, one matrix
        # at a time.
        rng = np.random.default_rng(33)
        stack = np.stack([
            mix_on_beamsplitter(with_vacuum(random_two_mode_physical(rng)[0]), 1, 2,
                                rng.uniform(0.1, 0.9))
            for _ in range(25)
        ])
        for mode in range(3):
            out = homodyne_conditioned(stack, mode)
            assert out.shape == (25, 4, 4)
            for got, g in zip(out, stack):
                np.testing.assert_allclose(got, conditioning_oracle(g, mode, 0), atol=1e-10)

    def test_result_independent_of_measured_outcome_convention(self):
        # x- and p-homodyne give the same conditional spectrum for the
        # sigma_z-correlated states used throughout, which is why the
        # kernel measures x only; the p side comes from the full-matrix oracle.
        g = mix_on_beamsplitter(with_vacuum(epr_state(12.0)), 1, 2, 0.7)
        sx = symplectic_spectra(homodyne_conditioned(g, 1))
        sp = symplectic_spectra(conditioning_oracle(g, 1, 1))
        assert sx == pytest.approx(sp, rel=1e-10)

    def test_local_phase_flip_invariance(self):
        # Flipping the sign of every correlation involving one unmeasured
        # mode cannot change the conditional spectrum.
        rng = np.random.default_rng(17)
        for _ in range(20):
            g2, _, _ = random_two_mode_physical(rng)
            g = mix_on_beamsplitter(with_vacuum(g2), 1, 2, rng.uniform(0.1, 0.9))
            flipped = g.copy()
            flipped[4:6, :4] *= -1.0
            flipped[:4, 4:6] *= -1.0
            a, b = symplectic_spectra(homodyne_conditioned(np.stack([g, flipped]), 1))
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("n,measured", [(2, 1), (3, 1), (4, 1), (3, 2)])
    def test_keeps_every_other_quadrature_in_order(self, n, measured):
        # With the measured mode uncorrelated, conditioning only drops its
        # two quadratures; the rest stay exactly, in their original order.
        kept = [i for i in range(2 * n) if i // 2 != measured]
        g = np.random.default_rng(n).uniform(-1.0, 1.0, (2 * n, 2 * n))
        g = g + g.T
        g[2 * measured:2 * measured + 2, :] = g[:, 2 * measured:2 * measured + 2] = 0.0
        g[2 * measured, 2 * measured] = g[2 * measured + 1, 2 * measured + 1] = 2.0
        out = homodyne_conditioned(g, measured)
        assert out.tobytes() == g[np.ix_(kept, kept)].tobytes()

    def test_reduces_mode_count(self):
        out = homodyne_conditioned(with_vacuum(epr_state(3.0)), 2)
        assert out.shape == (4, 4)

    @pytest.mark.parametrize("name", ["two-mode", "three-mode", "conventional",
                                      "generic-mode-0", "generic-mode-2"])
    def test_same_bytes_as_the_pinv_pipeline(self, name):
        """The kernel multiplies c by 1/b_xx, in the pseudoinverse's own
        operation order, so it reproduces the per-matrix pinv pipeline of
        tests/oracles.py bit for bit, signed zeros included; c / b_xx would
        not."""
        stack, mode = conditioning_stacks()[name]
        out = homodyne_conditioned(stack, mode)
        for got, g in zip(out, stack):
            assert got.tobytes() == _x_conditioned(g, mode).tobytes()

    @pytest.mark.parametrize("stack,minimum", [
        (np.diag([1.0, 1.0, 0.0, 4.0]), "0.0"),
        (np.stack([np.diag([1.0, 1.0, 2.0, 4.0]), np.diag([1.0, 1.0, -0.5, 4.0])]), "-0.5"),
    ], ids=["zero", "negative-in-second"])
    def test_nonpositive_variance_quadrature_raises(self, stack, minimum):
        with pytest.raises(NumericalError, match=(
                rf"^measured quadrature variance must be positive, got {minimum}$")):
            homodyne_conditioned(stack, 1)


# ---------------------------------------------------------------------------
# physicality: every symplectic eigenvalue >= 1 up to 1e-9

class TestPhysicality:
    def test_vacuum_and_epr_are_physical(self):
        assert symplectic_spectra(np.eye(4)).min() >= 1.0 - 1e-9
        assert symplectic_spectra(epr_state(40.0)).min() >= 1.0 - 1e-9

    def test_subunity_matrix_is_not(self):
        assert symplectic_spectra(0.5 * np.eye(2)).min() < 1.0 - 1e-9

    def test_symplectic_form_squares_to_minus_identity(self):
        w = symplectic_form(3)
        np.testing.assert_allclose(w @ w, -np.eye(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symplectic_form_is_exact(self, n):
        expect = np.zeros((2 * n, 2 * n))
        for i in range(n):
            expect[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, 1.0], [-1.0, 0.0]]
        w = symplectic_form(n)
        # bytes, not values: a kron-built form would carry -0.0 entries
        assert w.tobytes() == expect.tobytes()
