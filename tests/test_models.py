"""Tests for the calibration-model covariance builders and conversions."""

import math

import numpy as np
import pytest
from hypothesis import given

from cvqkd_calib import (
    CalibrationModel,
    SnuScenario,
    SystemParams,
    apply_miscalibration,
    confidence_interval_ote,
    confidence_interval_tte,
    eta_e_from_noise,
    key_rate_asymptotic,
    transmittance_from_km,
)
from cvqkd_calib.gaussian import symplectic_spectra
from cvqkd_calib.models import (
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
    two_mode_stack,
)
from oracles import epr_state
from strategies import PROPERTY, system_params

SZ = np.diag([1.0, -1.0])
I2 = np.eye(2)

TWO = CalibrationModel.ONE_TIME_TWO_MODE
THREE = CalibrationModel.ONE_TIME_THREE_MODE
CONV = CalibrationModel.CONVENTIONAL_TTE


def params(v=40.0, t=0.5, eps_c=0.01, eta_d=0.6, v_ele=0.01, beta=0.956, v_rin=0.0):
    return SystemParams(v=v, t=t, eps_c=eps_c, eta_d=eta_d, v_ele=v_ele,
                        beta=beta, v_rin=v_rin)


def three_mode_closed_form(p: SystemParams) -> np.ndarray:
    """Entry-by-entry symbolic expressions for the 6x6 matrix (A, B3, C)."""
    v, t, ec, ed = p.v, p.t, p.eps_c, p.eta_d
    ee = p.eta_e
    g = np.zeros((6, 6))
    g[:2, :2] = v * I2
    g[2:4, 2:4] = (t * ee * ed * (v - 1 + ec) + 1) * I2
    g[4:, 4:] = (t * ee * (1 - ed) * (v - 1 + ec) + 1) * I2
    g[:2, 2:4] = g[2:4, :2] = math.sqrt(t * ee * ed * (v * v - 1)) * SZ
    g[:2, 4:] = g[4:, :2] = math.sqrt(t * ee * (1 - ed) * (v * v - 1)) * SZ
    g[2:4, 4:] = g[4:, 2:4] = math.sqrt(ed * (1 - ed)) * t * ee * (v - 1 + ec) * I2
    return g


def conventional(p: SystemParams, n0=1.0) -> np.ndarray:
    return conventional_stack(p, conventional_channel_stack(p, n0))


# A physical matrix has every symplectic eigenvalue >= 1 up to this slack.
PHYSICALITY_TOL = 1e-9


def random_params(rng) -> SystemParams:
    return params(
        v=rng.uniform(1.5, 60.0),
        t=10 ** rng.uniform(-3, 0),
        eps_c=rng.uniform(0.0, 0.15),
        eta_d=rng.uniform(0.3, 0.99),
        v_ele=rng.uniform(0.0, 0.4),
        beta=rng.uniform(0.8, 1.0),
    )


# ---------------------------------------------------------------------------
# parameter objects

class TestParamTypes:
    def test_system_params_validation(self):
        with pytest.raises(ValueError, match="EPR variance"):
            params(v=1.0)
        with pytest.raises(ValueError, match="transmittance"):
            params(t=0.0)
        with pytest.raises(ValueError, match="transmittance"):
            params(t=1.2)
        with pytest.raises(ValueError, match="excess noise"):
            params(eps_c=-0.01)
        with pytest.raises(ValueError, match="detection efficiency"):
            params(eta_d=0.0)
        with pytest.raises(ValueError, match="electronic noise"):
            params(v_ele=-1e-9)
        with pytest.raises(ValueError, match="reconciliation"):
            params(beta=0.0)
        with pytest.raises(ValueError, match="RIN"):
            params(v_rin=-0.1)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="no signal"):
            SnuScenario(model=TWO, calib_error=-1.0)


# ---------------------------------------------------------------------------
# eta_e

class TestEtaE:
    def test_perfect_detector(self):
        assert eta_e_from_noise(0.0, 0.0) == 1.0

    def test_standard_point(self):
        assert eta_e_from_noise(0.01) == pytest.approx(1 / 1.01, rel=1e-15)
        assert eta_e_from_noise(0.01) == pytest.approx(0.990099, abs=1e-6)

    def test_measured_detector_ratio(self):
        # Total variance 2.3768 with 0.421 electronic noise: renormalize so
        # the shot-noise unit 2.3768 - 0.421 = 1.9558 maps to 1, then
        # eta_e = 1.9558/2.3768.
        v_ele_snu = 0.421 / 1.9558
        assert eta_e_from_noise(v_ele_snu) == pytest.approx(1.9558 / 2.3768, rel=1e-12)
        assert eta_e_from_noise(v_ele_snu) == pytest.approx(0.82287, abs=1e-5)

    def test_rin_adds_to_denominator(self):
        assert eta_e_from_noise(0.01, 0.02) == pytest.approx(1 / 1.03, rel=1e-15)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            eta_e_from_noise(-0.01)
        with pytest.raises(ValueError):
            eta_e_from_noise(0.0, -0.01)


# ---------------------------------------------------------------------------
# two-mode builder

class TestBuildTwoMode:
    def test_lossless_noiseless_is_pure(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        (g,) = two_mode_stack(p, 1.0)
        np.testing.assert_allclose(g, epr_state(40.0), atol=1e-12)
        assert symplectic_spectra(g) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_bob_variance_arithmetic(self):
        (g,) = two_mode_stack(params(), 1.0)
        expect = 0.5 * 0.6 * (1 / 1.01) * 39.01 + 1
        assert expect == pytest.approx(12.5871287128712, rel=1e-12)
        assert g[2, 2] == pytest.approx(expect, rel=1e-14)
        assert g[0, 2] == pytest.approx(
            math.sqrt(0.5 * 0.6 * (1 / 1.01) * (40.0 ** 2 - 1)), rel=1e-14)

    def test_snu_ratio_scales_bob_entries(self):
        base, scaled = two_mode_stack(params(), np.array([1.0, 1.001]))
        np.testing.assert_allclose(scaled[2:, 2:], base[2:, 2:] / 1.001, rtol=1e-14)
        np.testing.assert_allclose(scaled[:2, 2:], base[:2, 2:] / math.sqrt(1.001),
                                   rtol=1e-14)
        np.testing.assert_allclose(scaled[:2, :2], base[:2, :2], rtol=1e-14)

    @PROPERTY
    @given(system_params)
    def test_physical_at_unit_ratio(self, p):
        assert symplectic_spectra(two_mode_stack(p, 1.0)).min() >= 1.0 - PHYSICALITY_TOL


# ---------------------------------------------------------------------------
# three-mode builder

class TestBuildThreeMode:
    def test_matches_closed_form_entries(self):
        p = params()
        np.testing.assert_allclose(three_mode_stack(p, 1.0)[0], three_mode_closed_form(p),
                                   atol=1e-12)

    def test_transparent_detector_decouples_mode_c(self):
        p = params(eta_d=1.0)
        (g,) = three_mode_stack(p, 1.0)
        assert np.abs(g[:4, 4:]).max() <= 1e-10
        np.testing.assert_allclose(g[4:, 4:], I2, atol=1e-10)
        np.testing.assert_allclose(g[:4, :4], two_mode_stack(p, 1.0)[0], atol=1e-12)

    def test_marginal_consistency_over_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = random_params(rng)
            n0 = rng.uniform(0.99, 1.01)
            g3 = three_mode_stack(p, n0)
            g2 = two_mode_stack(p, n0)
            np.testing.assert_allclose(g3[:, :4, :4], g2, atol=1e-12)

    def test_unit_eigenvalue_present_for_any_ratio(self):
        spectra = symplectic_spectra(three_mode_stack(params(), np.array([1.0, 0.995, 1.005])))
        assert np.abs(spectra - 1.0).min(axis=-1).max() < 1e-9

    @PROPERTY
    @given(system_params)
    def test_physical_at_unit_ratio(self, p):
        assert symplectic_spectra(three_mode_stack(p, 1.0)).min() >= 1.0 - PHYSICALITY_TOL


# ---------------------------------------------------------------------------
# conventional builder

class TestBuildConventional:
    def test_bob_variance(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=0.6, v_ele=0.01)
        assert conventional(p)[0, 2, 2] == pytest.approx(0.6 * 39.0 + 1.01, rel=1e-12)

    def test_bob_variance_general_point(self):
        assert conventional(params())[0, 2, 2] == pytest.approx(0.6 * 0.5 * 39.01 + 1.01,
                                                               rel=1e-12)

    def test_perfect_detector_gives_pure_epr(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        (g,) = conventional(p)
        np.testing.assert_allclose(g[:4, :4], epr_state(40.0), atol=1e-12)
        assert symplectic_spectra(g) == pytest.approx((1.0,) * 4, abs=1e-9)

    def test_degenerate_epr_variance_rejected(self):
        with pytest.raises(ValueError, match="eta_d < 1 or v_ele = 0"):
            conventional(params(eta_d=1.0, v_ele=0.01))

    def test_channel_reconstruction_at_unit_ratio(self):
        # At n0 = 1 the reconstruction is the physical channel output.
        p = params()
        expect = np.zeros((4, 4))
        expect[:2, :2] = p.v * I2
        expect[2:, 2:] = (p.t * (p.v - 1 + p.eps_c) + 1) * I2
        expect[:2, 2:] = expect[2:, :2] = math.sqrt(p.t * (p.v ** 2 - 1)) * SZ
        np.testing.assert_allclose(conventional_channel_stack(p, 1.0)[0], expect, atol=1e-12)

    @PROPERTY
    @given(system_params)
    def test_physical_at_unit_ratio(self, p):
        channel = conventional_channel_stack(p, 1.0)
        for stack in (channel, conventional_stack(p, channel)):
            assert symplectic_spectra(stack).min() >= 1.0 - PHYSICALITY_TOL


# ---------------------------------------------------------------------------
# SNU conversions, as the calibration point estimates carry them: the
# two-time unit is total minus electronic noise, the one-time unit the
# total variance itself

def snu_tte(v_tot: float, v_ele: float) -> float:
    return confidence_interval_tte(v_tot, v_ele, 10 ** 6, 10 ** 6, 1e-10).point


def snu_ote(v_tot: float) -> float:
    return confidence_interval_ote(v_tot, 10 ** 6, 1e-10).point


class TestSnuConversions:
    def test_tte_measured_values(self):
        assert snu_tte(2.3768, 0.421) == pytest.approx(1.9558, rel=1e-12)

    def test_tte_trivial(self):
        assert snu_tte(1.0, 0.0) == 1.0
        assert snu_tte(2.0, 1.0) == 1.0

    def test_tte_unphysical(self):
        with pytest.raises(ValueError, match="exceed"):
            snu_tte(1.0, 1.0)

    def test_ote_identity(self):
        assert snu_ote(2.3768) == 2.3768
        assert snu_ote(1.0) == 1.0

    def test_ote_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            snu_ote(0.0)

    def test_conventions_related_exactly(self):
        for v_tot, v_ele in ((2.3768, 0.421), (1.01, 0.01), (3.0, 0.5)):
            assert snu_tte(snu_ote(v_tot), v_ele) + v_ele == pytest.approx(
                snu_ote(v_tot), rel=1e-15)


class TestWorstCaseSplit:
    """Only the product t*eta_e of channel and electronic-noise loss is
    observable. The one-time models depend on the two only through that
    product, so they already embody the worst-case split that hands all of
    it to the untrusted channel (t*eta_e, 1)."""

    @staticmethod
    def rate(model, t, v_ele):
        p = params(v=4.0, t=t, v_ele=v_ele)
        return key_rate_asymptotic(p, SnuScenario(model=model)).rate_bits_per_pulse

    def test_all_loss_to_channel(self):
        for t in (1.0, 0.5, transmittance_from_km(60.0)):
            eta_e = eta_e_from_noise(0.01)
            for model in (TWO, THREE):
                assert self.rate(model, t, 0.01) == pytest.approx(
                    self.rate(model, t * eta_e, 0.0), rel=1e-12)

    def test_product_preserved(self):
        product = 0.3 * 0.99
        rates = []
        for v_ele in (0.0, 0.01, 0.1, 0.3):
            t = product / eta_e_from_noise(v_ele)
            rates.append(self.rate(THREE, t, v_ele))
        assert rates == pytest.approx([rates[0]] * len(rates), rel=1e-12)


# ---------------------------------------------------------------------------
# miscalibration

class TestApplyMiscalibration:
    def test_identity_at_zero(self):
        p = params()
        assert apply_miscalibration(p, 0.0) is p

    def test_apparent_noise_grows_past_true_budget(self):
        # 0.1% SNU error at 50 km more than doubles the apparent excess noise.
        p = params(t=transmittance_from_km(50.0))
        out = apply_miscalibration(p, 0.001)
        assert out.eps_c - p.eps_c > 0.01
        assert out.eps_c == pytest.approx(
            0.01 + 0.001 * 1.01 / (1.001 * 0.6 * p.t), rel=1e-12)
        assert out.t == pytest.approx(1.001 * p.t, rel=1e-15)

    def test_monotone_and_continuous_in_delta(self):
        p = params(t=transmittance_from_km(30.0))
        deltas = np.linspace(0.0, 0.01, 21)
        eps = [apply_miscalibration(p, d).eps_c for d in deltas]
        assert all(b > a for a, b in zip(eps, eps[1:]))
        assert apply_miscalibration(p, 1e-9).eps_c == pytest.approx(p.eps_c, abs=1e-6)

    def test_transmittance_estimate_clamped_at_unity(self):
        # At t = 1 the scaled covariance implies t_hat > 1; the constrained
        # estimate pins t_hat = 1 and still inflates the apparent noise.
        p = params(t=1.0)
        out = apply_miscalibration(p, 0.001)
        assert out.t == 1.0
        assert out.eps_c > p.eps_c

    def test_negative_delta_clamps_noise_at_zero(self):
        p = params(eps_c=0.001, t=1.0)
        out = apply_miscalibration(p, -0.01)
        assert out.eps_c == 0.0

    def test_rejects_total_signal_loss(self):
        with pytest.raises(ValueError, match="no signal"):
            apply_miscalibration(params(), -1.0)


class TestTransmittance:
    def test_standard_fiber(self):
        assert transmittance_from_km(0.0) == 1.0
        assert transmittance_from_km(50.0) == pytest.approx(10 ** -1.0, rel=1e-12)
        assert transmittance_from_km(100.0) == pytest.approx(10 ** -2.0, rel=1e-12)

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            transmittance_from_km(-1.0)
