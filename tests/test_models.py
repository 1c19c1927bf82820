"""Tests for the calibration-model covariance builders and conversions."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given

from cvqkd_calib import (
    CalibrationModel,
    SystemParams,
    apply_miscalibration,
    confidence_interval,
    key_rate,
    transmittance_from_km,
)
from cvqkd_calib.gaussian import symplectic_spectra
from cvqkd_calib.models import (
    conventional_channel_stack,
    conventional_stack,
    three_mode_stack,
)
from oracles import epr_state, physical_three_mode, two_mode_stack
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field,message", [
        ("v", "EPR variance"), ("t", "transmittance"), ("eps_c", "excess noise"),
        ("eta_d", "detection efficiency"), ("v_ele", "electronic noise"),
        ("beta", "reconciliation"), ("v_rin", "RIN"),
    ])
    def test_every_field_refuses_non_finite_values(self, field, bad, message):
        # A NaN fails every comparison, so a check written as "refuse if
        # below the bound" would let it through.
        with pytest.raises(ValueError, match=rf"^{message}"):
            params(**{field: bad})

    @pytest.mark.parametrize("field,bad,message", [
        ("v", 1.0, "EPR variance"), ("t", 0.0, "transmittance"), ("t", 1.2, "transmittance"),
        ("eps_c", -0.01, "excess noise"),
    ])
    def test_every_element_of_a_column_is_checked(self, field, bad, message):
        good = {"v": 4.0, "t": 0.5, "eps_c": 0.01}[field]
        params(**{field: np.array([good, good])})
        with pytest.raises(ValueError, match=message):
            params(**{field: np.array([good, bad, good])})

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="no signal"):
            key_rate(params(), TWO, delta=-1.0)


# ---------------------------------------------------------------------------
# eta_e

class TestEtaE:
    def test_perfect_detector(self):
        assert params(v_ele=0.0, v_rin=0.0).eta_e == 1.0

    def test_standard_point(self):
        assert params(v_ele=0.01).eta_e == pytest.approx(1 / 1.01, rel=1e-15)
        assert params(v_ele=0.01).eta_e == pytest.approx(0.990099, abs=1e-6)

    def test_measured_detector_ratio(self):
        # Total variance 2.3768 with 0.421 electronic noise: renormalize so
        # the shot-noise unit 2.3768 - 0.421 = 1.9558 maps to 1, then
        # eta_e = 1.9558/2.3768.
        v_ele_snu = 0.421 / 1.9558
        assert params(v_ele=v_ele_snu).eta_e == pytest.approx(1.9558 / 2.3768, rel=1e-12)
        assert params(v_ele=v_ele_snu).eta_e == pytest.approx(0.82287, abs=1e-5)

    def test_rin_adds_to_denominator(self):
        assert params(v_ele=0.01, v_rin=0.02).eta_e == pytest.approx(1 / 1.03, rel=1e-15)


# ---------------------------------------------------------------------------
# two-mode builder: the direct one of tests/oracles.py, which holevo_bound's
# route through conventional_channel_stack matches bit for bit

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
    def test_unit_ratio_is_the_physical_build(self, p):
        # three_mode_stack rebuilds mode C through the trusted eta_d
        # relations at every n0; at n0 = 1 that is the beamsplitter build up
        # to rounding. 1.7 ulps of the largest entry is the worst seen on
        # 250000 rows of this box with v_rin up to 0.1.
        want = physical_three_mode(p)
        assert np.abs(three_mode_stack(p, 1.0) - want).max() <= (
            4.0 * np.finfo(float).eps * np.abs(want).max())

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
# SNU ratio as a channel

def unit_ratio_twin(p: SystemParams, n0: float) -> SystemParams:
    """p's parameters at n0 = 1 that give its state at SNU ratio n0: t / n0
    and eps_c + (1 - n0) / (t eta_d eta_e). SystemParams refuses the t > 1
    of n0 < 1 near 0 km and the eps_c < 0 of n0 > 1 at low excess noise,
    so only such a twin is built without its checks."""
    t, eps_c = p.t / n0, p.eps_c + (1.0 - n0) / (p.t * p.eta_d * p.eta_e)
    if t <= 1.0 and eps_c >= 0.0:
        return dataclasses.replace(p, t=t, eps_c=eps_c)
    twin = copy.copy(p)
    object.__setattr__(twin, "t", t)
    object.__setattr__(twin, "eps_c", eps_c)
    return twin


class TestSnuRatioAsChannel:
    """Each builder's state at SNU ratio n0 is its n0 = 1 state at the
    parameters of unit_ratio_twin, the identity keyrate.closed_form_rate
    evaluates the finite-size rates by. The three-mode twin is built by
    physical_three_mode, the beamsplitter sequence alone."""

    BUILDERS = {
        "two_mode": two_mode_stack,
        "three_mode": three_mode_stack,
        "conventional_channel": conventional_channel_stack,
        "conventional": conventional,
    }
    TWINS = {"three_mode": lambda p, n0: physical_three_mode(p)}

    @staticmethod
    def draws(seed, n=200):
        rng = np.random.default_rng(seed)
        for i in range(n):
            p = params(
                v=rng.uniform(1.5, 60.0), t=1.0 if i % 4 == 0 else 10 ** rng.uniform(-3, 0),
                eps_c=rng.uniform(0.0, 0.1), eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(1e-3, 0.3), v_rin=rng.uniform(0.0, 0.1))
            yield p, rng.uniform(0.9, 1.1)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_state_at_n0_is_the_unit_ratio_state_of_the_twin(self, builder):
        build = self.BUILDERS[builder]
        bypassed = 0
        for p, n0 in self.draws(31):
            twin = unit_ratio_twin(p, n0)
            bypassed += twin.t > 1.0 or twin.eps_c < 0.0
            (got,), (want,) = build(p, n0), self.TWINS.get(builder, build)(twin, 1.0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (p, n0)
        assert 50 <= bypassed < 200


# ---------------------------------------------------------------------------
# SNU conversions, as the calibration point estimates carry them: the
# two-time unit is total minus electronic noise, the one-time unit the
# total variance itself

def snu_tte(v_tot: float, v_ele: float) -> float:
    return confidence_interval(v_tot, v_ele, 10 ** 6, 1e-10).point


def snu_ote(v_tot: float) -> float:
    return confidence_interval(v_tot, 0.0, 10 ** 6, 1e-10).point


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
        return key_rate(p, model).rate_bits_per_pulse

    def test_all_loss_to_channel(self):
        for t in (1.0, 0.5, transmittance_from_km(60.0)):
            eta_e = params(v_ele=0.01).eta_e
            for model in (TWO, THREE):
                assert self.rate(model, t, 0.01) == pytest.approx(
                    self.rate(model, t * eta_e, 0.0), rel=1e-12)

    def test_product_preserved(self):
        product = 0.3 * 0.99
        rates = []
        for v_ele in (0.0, 0.01, 0.1, 0.3):
            t = product / params(v_ele=v_ele).eta_e
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

    def test_rejects_an_excess_noise_that_overflows(self):
        # delta / t overflows at t = 1e-320; a negative delta clamps at 0.
        with pytest.raises(ValueError, match="^miscalibration delta 0.003 overflows"):
            apply_miscalibration(params(t=1e-320), 0.003)
        assert apply_miscalibration(params(t=1e-320), -0.003).eps_c == 0.0
        # 1.003 * 0.4 * 5e-324 rounds to 0, so eps_hat divides by zero, though
        # 1.003 * 5e-324 does not, so the signal is still there.
        for t in (5e-324, np.array([0.5, 5e-324])):
            with pytest.raises(ValueError, match="^miscalibration delta 0.003 overflows"):
                apply_miscalibration(params(t=t, eta_d=0.4), 0.003)


class TestTransmittance:
    def test_standard_fiber(self):
        assert transmittance_from_km(0.0) == 1.0
        assert transmittance_from_km(50.0) == pytest.approx(10 ** -1.0, rel=1e-12)
        assert transmittance_from_km(100.0) == pytest.approx(10 ** -2.0, rel=1e-12)

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            transmittance_from_km(-1.0)
