"""Tests for mutual information, Holevo bounds and key rates.

The published two-mode closed forms (symplectic pair plus conditional
eigenvalue) act as the independent oracle for the generic eigensolver
pipeline. The Lodewyck et al. trusted-detector closed form is the oracle
for the conventional model and, at transmittance t*eta_e without
electronic noise, for the three-mode model.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqkd_calib import (
    CalibrationModel,
    FiniteSizeParams,
    NumericalError,
    Regime,
    SnuScenario,
    SystemParams,
    apply_miscalibration,
    confidence_interval_ote,
    confidence_interval_tte,
    finite_size_penalty,
    holevo_conventional,
    holevo_three_mode,
    holevo_two_mode,
    key_rate_asymptotic,
    key_rate_finite,
    keyrate,
    models,
    mutual_information,
    transmittance_from_km,
)
from cvqkd_calib.gaussian import (
    MeasurementBasis,
    entropy_of_spectra,
    homodyne_conditioned,
    symplectic_spectra,
)
from cvqkd_calib.models import three_mode_stack, two_mode_stack
from oracles import entropy_g, holevo_lodewyck, holevo_pointwise, mutual_information_from_matrix
from strategies import PROPERTY, at_km, distances_km, link_fields, system_params

TWO = CalibrationModel.ONE_TIME_TWO_MODE
THREE = CalibrationModel.ONE_TIME_THREE_MODE
CONV = CalibrationModel.CONVENTIONAL_TTE
HOLEVO = {TWO: holevo_two_mode, THREE: holevo_three_mode, CONV: holevo_conventional}


def params(v=40.0, t=0.5, eps_c=0.01, eta_d=0.6, v_ele=0.01, beta=0.956):
    return SystemParams(v=v, t=t, eps_c=eps_c, eta_d=eta_d, v_ele=v_ele, beta=beta)


def random_params(rng):
    return params(
        v=rng.uniform(1.5, 60.0),
        t=10 ** rng.uniform(-2.5, 0),
        eps_c=rng.uniform(0.0, 0.1),
        eta_d=rng.uniform(0.3, 0.99),
        v_ele=rng.uniform(0.0, 0.3),
        beta=rng.uniform(0.85, 1.0),
    )


def two_mode_closed_form_holevo(p: SystemParams, n0: float = 1.0) -> float:
    """Published two-mode pipeline: symplectic pair from the quadratic
    invariants, conditional eigenvalue from the conditioning identity."""
    tau = p.t * p.eta_d * p.eta_e
    chi = 1.0 / tau - 1.0 + p.eps_c
    v = p.v
    vb = (tau * (v - 1 + p.eps_c) + 1) / n0
    c2 = tau * (v * v - 1) / n0
    disc = v * v + vb * vb - 2 * c2
    det = (v * vb - c2) ** 2
    l1 = math.sqrt((disc + math.sqrt(disc * disc - 4 * det)) / 2)
    l2 = math.sqrt((disc - math.sqrt(disc * disc - 4 * det)) / 2)
    if n0 == 1.0:
        # cross-check the printed A/B coefficients at perfect calibration
        a_printed = v * v * (1 - 2 * tau) + 2 * tau + (tau * (v + chi)) ** 2
        b_printed = (tau * (v * chi + 1)) ** 2
        assert disc == pytest.approx(a_printed, rel=1e-12)
        assert det == pytest.approx(b_printed, rel=1e-12)
    # conditional matrix is diag(v - c^2/vb, v) after x-homodyne on Bob
    l3 = math.sqrt(v * (v - c2 / vb))
    g = lambda lam: entropy_g(max(0.0, (lam - 1) / 2))
    return g(l1) + g(l2) - g(l3)


class TestMutualInformation:
    def test_perfect_system(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert mutual_information(p) == pytest.approx(0.5 * math.log2(40.0), rel=1e-12)
        assert mutual_information(p) == pytest.approx(2.66096, abs=1e-5)

    def test_vanishes_without_modulation(self):
        p = params(v=1.0 + 1e-9)
        assert mutual_information(p) == pytest.approx(0.0, abs=1e-8)

    def test_matches_conditional_variance_from_matrix(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = random_params(rng)
            (g,) = two_mode_stack(p, 1.0)
            assert mutual_information_from_matrix(g) == pytest.approx(
                mutual_information(p), rel=1e-12)

    def test_invariant_under_snu_ratio(self):
        # Both Bob moments scale together, so the information cannot move.
        p = params()
        for g in two_mode_stack(p, np.array([0.99, 1.0, 1.01])):
            assert mutual_information_from_matrix(g) == pytest.approx(
                mutual_information(p), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        assert all(mutual_information(random_params(rng)) >= 0.0 for _ in range(100))


class TestHolevoTwoMode:
    def test_pure_state_leaks_nothing(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert holevo_two_mode(p) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_form_pipeline(self):
        p = params()
        assert holevo_two_mode(p) == pytest.approx(
            two_mode_closed_form_holevo(p), rel=1e-8)

    def test_closed_form_over_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_params(rng)
            generic = holevo_two_mode(p)
            closed = two_mode_closed_form_holevo(p)
            assert generic == pytest.approx(closed, rel=1e-8, abs=1e-10)

    def test_monotone_in_excess_noise(self):
        base = dict(v=20.0, t=0.3, eta_d=0.6, v_ele=0.01, beta=0.956)
        values = [holevo_two_mode(params(eps_c=e, **base))
                  for e in np.linspace(0.0, 0.2, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_nonnegative_over_draws(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            assert holevo_two_mode(random_params(rng)) >= -1e-11


class TestHolevoThreeMode:
    def test_zero_for_perfect_system(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert holevo_three_mode(p) == pytest.approx(0.0, abs=1e-9)

    def test_equals_conventional_without_electronic_noise(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            p = random_params(rng)
            p = SystemParams(v=p.v, t=p.t, eps_c=p.eps_c, eta_d=min(p.eta_d, 0.99),
                             v_ele=0.0, beta=p.beta)
            assert holevo_three_mode(p) == pytest.approx(
                holevo_conventional(p), rel=1e-9, abs=1e-11)

    def test_never_exceeds_two_mode(self):
        # Trusting the detection loss can only shrink the eavesdropper bound.
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = random_params(rng)
            assert holevo_three_mode(p) <= holevo_two_mode(p) + 1e-9


class TestHolevoConventional:
    def test_zero_for_perfect_system(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert holevo_conventional(p) == pytest.approx(0.0, abs=1e-9)

    def test_positive_rate_at_fifty_km(self):
        p = params(t=transmittance_from_km(50.0))
        chi = holevo_conventional(p)
        assert 0.0 < chi < p.beta * mutual_information(p)

    def test_nonnegative_over_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            p = random_params(rng)
            if p.eta_d == 1.0 and p.v_ele > 0:
                continue
            assert holevo_conventional(p) >= -1e-11

    def test_builds_channel_stack_once(self, monkeypatch):
        # The (A, B1) stack feeds both Eve's entropy and the 8x8 model.
        calls = []
        original = models.conventional_channel_stack

        def counted(p, n0):
            calls.append(n0)
            return original(p, n0)

        monkeypatch.setattr(models, "conventional_channel_stack", counted)
        monkeypatch.setattr(keyrate, "conventional_channel_stack", counted)
        holevo_conventional(params(), 1.0)
        holevo_conventional(params(), np.linspace(0.99, 1.01, 21))
        assert len(calls) == 2


class TestLodewyckOracle:
    """Both trusted-detector models against Lodewyck et al., PRA 76, 042305 (2007)."""

    @staticmethod
    def draws(seed, n=300):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            yield params(
                v=rng.uniform(1.5, 60.0),
                t=10 ** rng.uniform(-3, 0),
                eps_c=rng.uniform(0.0, 0.1),
                eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(1e-3, 0.3),
            )

    def test_conventional_matches_closed_form(self):
        for p in self.draws(21):
            expect = holevo_lodewyck(p.v, p.t, p.eps_c, p.eta_d, p.v_ele)
            assert holevo_conventional(p) == pytest.approx(expect, rel=1e-9)

    def test_three_mode_concedes_exactly_the_electronic_noise_loss(self):
        # Trusted eta_d, untrusted eta_e: the closed form at transmittance
        # t*eta_e with no electronic noise left on the trusted side.
        for p in self.draws(22):
            expect = holevo_lodewyck(p.v, p.t * p.eta_e, p.eps_c, p.eta_d, 0.0)
            assert holevo_three_mode(p) == pytest.approx(expect, rel=1e-9)


class TestKeyRateAsymptotic:
    def test_composition_at_zero_distance(self):
        p = params(t=1.0)
        res = key_rate_asymptotic(p, SnuScenario(model=THREE))
        chi = 1 / (p.eta_d * p.eta_e) - 1 + p.eps_c
        i_ab = 0.5 * math.log2((p.v + chi) / (chi + 1))
        assert res.i_ab == pytest.approx(i_ab, rel=1e-12)
        assert res.rate_bits_per_pulse == pytest.approx(
            p.beta * i_ab - res.chi_be, rel=1e-12)
        assert res.regime is Regime.ASYMPTOTIC
        assert res.delta_n == 0.0
        assert res.worst_n0 == 1.0

    def test_three_mode_close_to_conventional_at_low_variance(self):
        # Divergence at V = 4, 25 km is well below one percent.
        p = params(v=4.0, t=transmittance_from_km(25.0))
        r3 = key_rate_asymptotic(p, SnuScenario(model=THREE)).rate_bits_per_pulse
        rc = key_rate_asymptotic(p, SnuScenario(model=CONV)).rate_bits_per_pulse
        assert rc > 0
        assert abs(r3 - rc) / rc < 0.01

    @PROPERTY
    @given(system_params)
    def test_model_ordering_over_draws(self, p):
        rates = {m: key_rate_asymptotic(p, SnuScenario(model=m)).rate_bits_per_pulse
                 for m in (TWO, THREE, CONV)}
        assert rates[TWO] <= rates[THREE] + 1e-12
        # Without electronic noise the three-mode and conventional models
        # coincide analytically, and eigensolver noise alone then leaves
        # them up to 2.7e-11 apart (near-pure states at 0 km).
        assert rates[THREE] <= rates[CONV] + 1e-9

    def test_monotone_decreasing_in_distance_while_positive(self):
        # Negative rates creep back toward zero as everything attenuates,
        # so monotonicity is a property of the positive branch.
        for v in (4.0, 20.0, 40.0):
            rates = []
            for km in np.arange(0.0, 101.0, 5.0):
                p = params(v=v, t=transmittance_from_km(km))
                rates.append(key_rate_asymptotic(
                    p, SnuScenario(model=THREE)).rate_bits_per_pulse)
            positive = [r for r in rates if r > 0]
            assert len(positive) >= 2
            assert all(b < a for a, b in zip(positive, positive[1:]))

    @PROPERTY
    @given(link_fields, distances_km, distances_km, st.sampled_from([TWO, THREE, CONV]))
    def test_rate_never_rises_with_distance_while_positive(self, fields, km1, km2, model):
        near, far = sorted((km1, km2))
        scenario = SnuScenario(model=model)
        r_near = key_rate_asymptotic(at_km(fields, near), scenario).rate_bits_per_pulse
        r_far = key_rate_asymptotic(at_km(fields, far), scenario).rate_bits_per_pulse
        if r_near > 0.0:
            assert r_far <= r_near + 1e-12

    def test_small_step_continuity(self):
        p0 = params(v=4.0, t=transmittance_from_km(30.0))
        p1 = params(v=4.0, t=transmittance_from_km(30.01))
        r0 = key_rate_asymptotic(p0, SnuScenario(model=THREE)).rate_bits_per_pulse
        r1 = key_rate_asymptotic(p1, SnuScenario(model=THREE)).rate_bits_per_pulse
        assert abs(r1 - r0) < 1e-4

    def test_miscalibration_lowers_apparent_rate(self):
        p = params(t=transmittance_from_km(40.0))
        clean = key_rate_asymptotic(p, SnuScenario(model=CONV)).rate_bits_per_pulse
        skewed = key_rate_asymptotic(
            p, SnuScenario(model=CONV, calib_error=0.002)).rate_bits_per_pulse
        assert skewed < clean

    def test_sign_convention_invariance(self):
        # Negating every correlation involving the trusted loss mode C
        # (the printed finite-size matrix uses the opposite sign) moves
        # no key-rate ingredient by more than 1e-10.
        (g,) = three_mode_stack(params(), 1.002)
        flipped = g.copy()
        flipped[4:6, :4] *= -1.0
        flipped[:4, 4:6] *= -1.0
        both = np.stack([g, flipped])
        cond = homodyne_conditioned(both, 1, MeasurementBasis.X_QUADRATURE)
        chi = (entropy_of_spectra(symplectic_spectra(both))
               - entropy_of_spectra(symplectic_spectra(cond)))
        assert abs(chi[0] - chi[1]) < 1e-10


class TestFiniteSizeParams:
    def test_validation(self):
        good = dict(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                    eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 8)
        FiniteSizeParams(**good)
        with pytest.raises(ValueError, match="key fraction"):
            FiniteSizeParams(**{**good, "key_fraction": 1.0})
        with pytest.raises(ValueError, match="eps_pa"):
            FiniteSizeParams(**{**good, "eps_pa": 0.0})
        with pytest.raises(ValueError, match="block length"):
            FiniteSizeParams(**{**good, "block_length": 0})
        with pytest.raises(ValueError, match="calibration samples"):
            FiniteSizeParams(**{**good, "calib_samples_m": 10 ** 11})


class TestFiniteSizePenalty:
    def fs(self, n, key_fraction=0.5, eps=1e-10, m=10 ** 8):
        return FiniteSizeParams(block_length=n, key_fraction=key_fraction,
                                eps_pe=eps, eps_pa=eps, eps_smooth=eps,
                                calib_samples_m=m)

    def test_reference_value(self):
        # n = 5e9, dim 2, eps = 1e-10: 7 sqrt(log2(2e10)/5e9) + (2/5e9) log2(1e10)
        fs = self.fs(10 ** 10)
        expect = 7.0 * math.sqrt(math.log2(2e10) / 5e9) + (2 / 5e9) * math.log2(1e10)
        assert finite_size_penalty(fs) == pytest.approx(expect, rel=1e-12)
        assert finite_size_penalty(fs) == pytest.approx(5.791065041283219e-4, rel=1e-12)
        assert finite_size_penalty(fs) == pytest.approx(5.8e-4, rel=0.01)

    def test_strictly_decreasing_in_n(self):
        vals = [finite_size_penalty(self.fs(n, m=10 ** 6))
                for n in (10 ** 6, 10 ** 8, 10 ** 10, 10 ** 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_vanishes_asymptotically(self):
        assert finite_size_penalty(self.fs(10 ** 18)) < 1e-7

    def test_too_short_block_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            finite_size_penalty(FiniteSizeParams(
                block_length=3, key_fraction=0.5, eps_pe=1e-10, eps_pa=1e-10,
                eps_smooth=1e-10, calib_samples_m=2))


class TestKeyRateFinite:
    def fs(self, n=10 ** 10, m=5 * 10 ** 9):
        return FiniteSizeParams(block_length=n, key_fraction=0.5, eps_pe=1e-10,
                                eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=m)

    def collapsed_interval(self):
        return confidence_interval_ote(1.01, 10 ** 18, 1e-10)

    def test_collapsed_interval_and_huge_block_recovers_asymptotic(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        scenario = SnuScenario(model=THREE)
        asym = key_rate_asymptotic(p, scenario)
        fs = FiniteSizeParams(block_length=10 ** 16, key_fraction=0.999999,
                              eps_pe=1e-10, eps_pa=1e-10, eps_smooth=1e-10,
                              calib_samples_m=10 ** 16)
        fin = key_rate_finite(p, scenario, fs, self.collapsed_interval())
        assert fin.rate_bits_per_pulse == pytest.approx(
            asym.rate_bits_per_pulse, rel=1e-4)
        # the interval at m = 1e18 is not exactly a point: chi moves by
        # O(interval width) around the asymptotic value
        assert fin.chi_be == pytest.approx(asym.chi_be, rel=1e-6)

    def test_rate_formula_decomposition(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        fs = self.fs()
        calib = confidence_interval_ote(1.01, fs.calib_samples_m, fs.eps_pe)
        res = key_rate_finite(p, SnuScenario(model=THREE), fs, calib)
        assert res.regime is Regime.FINITE_SIZE
        assert res.rate_bits_per_pulse == pytest.approx(
            fs.key_fraction * (p.beta * res.i_ab - res.chi_be - res.delta_n),
            rel=1e-12)
        lo, hi = calib.lower / calib.point, calib.upper / calib.point
        assert lo <= res.worst_n0 <= hi

    def test_worst_case_no_better_than_perfect_calibration(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        fs = self.fs(m=10 ** 6)
        calib = confidence_interval_ote(1.01, fs.calib_samples_m, fs.eps_pe)
        fin = key_rate_finite(p, SnuScenario(model=THREE), fs, calib)
        asym = key_rate_asymptotic(p, SnuScenario(model=THREE))
        assert fin.chi_be >= asym.chi_be - 1e-12

    def test_finite_below_asymptotic_when_interval_contains_unity(self):
        # Meaningful for nonnegative rates: the key-fraction scaling makes
        # negative values less negative.
        rng = np.random.default_rng(31)
        fs = self.fs(m=10 ** 8)
        checked = 0
        while checked < 25:
            p = random_params(rng)
            scenario = SnuScenario(model=TWO)
            asym = key_rate_asymptotic(p, scenario)
            if asym.rate_bits_per_pulse < 0:
                continue
            calib = confidence_interval_ote(1.0 + p.v_ele, fs.calib_samples_m, fs.eps_pe)
            fin = key_rate_finite(p, scenario, fs, calib)
            assert fin.rate_bits_per_pulse <= asym.rate_bits_per_pulse + 1e-12
            checked += 1

    def test_monotone_in_block_length(self):
        p = params(v=4.0, t=transmittance_from_km(40.0))
        scenario = SnuScenario(model=THREE)
        calib = confidence_interval_ote(1.01, 10 ** 8, 1e-10)
        rates = []
        for n in (10 ** 8, 10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12):
            fs = FiniteSizeParams(block_length=n, key_fraction=0.5, eps_pe=1e-10,
                                  eps_pa=1e-10, eps_smooth=1e-10,
                                  calib_samples_m=10 ** 8)
            rates.append(key_rate_finite(p, scenario, fs, calib).rate_bits_per_pulse)
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_invalid_interval_rejected(self):
        p = params()
        fs = self.fs()
        calib = confidence_interval_ote(1.01, fs.calib_samples_m, fs.eps_pe)
        bad = type(calib)(method=calib.method, m_samples=calib.m_samples,
                          point=calib.point, lower=calib.lower, upper=calib.upper,
                          eps_pe=calib.eps_pe)
        object.__setattr__(bad, "lower", -1.0)
        with pytest.raises(ValueError, match="interval"):
            key_rate_finite(p, SnuScenario(model=TWO), fs, bad)


class TestBatchedScan:
    """The n0 scan evaluates all N0_SCAN_POINTS bounds in one batched
    kernel call; the per-point pipeline of tests/oracles.py is its oracle."""

    FS = FiniteSizeParams(block_length=10 ** 8, key_fraction=0.5, eps_pe=1e-10,
                          eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 6)

    @staticmethod
    def draws(seed, n=20):
        rng = np.random.default_rng(seed)
        for i in range(n):
            km = 200.0 if i == 0 else rng.uniform(0.0, 200.0)
            yield params(
                v=rng.uniform(1.5, 60.0),
                t=transmittance_from_km(km),
                eps_c=rng.uniform(0.0, 0.1),
                eta_d=rng.uniform(0.3, 0.99),
                v_ele=0.0 if i % 4 == 0 else rng.uniform(0.0, 0.3),
                beta=rng.uniform(0.85, 1.0),
            )

    def calib(self, p, model):
        v_tot, m, eps = 1.0 + p.v_ele, self.FS.calib_samples_m, self.FS.eps_pe
        if model is CONV:
            return confidence_interval_tte(v_tot, p.v_ele, m, m, eps)
        return confidence_interval_ote(v_tot, m, eps)

    @pytest.mark.parametrize("model,seed", [(TWO, 1), (THREE, 2), (CONV, 3)])
    def test_batched_holevo_matches_pointwise(self, model, seed):
        for p in self.draws(seed):
            n0 = np.append(np.linspace(0.99, 1.01, 20), 1.0)
            batched = HOLEVO[model](p, n0)
            assert batched.shape == n0.shape
            for got, x in zip(batched, n0):
                expect = holevo_pointwise(model, p, float(x))
                assert got == pytest.approx(expect, rel=1e-13, abs=1e-15)
            assert HOLEVO[model](p, 1.0) == batched[-1]

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_finite_rate_is_pointwise_minimum(self, model):
        for p in self.draws(seed=7, n=8):
            scenario = SnuScenario(model=model, calib_error=0.001)
            calib = self.calib(p, model)
            res = key_rate_finite(p, scenario, self.FS, calib)
            eff = apply_miscalibration(p, scenario.calib_error)
            grid = np.linspace(calib.lower / calib.point, calib.upper / calib.point, 21)
            worst_value = math.inf
            for g in grid:
                n0 = float(g)
                chi = holevo_pointwise(model, eff, n0)
                value = eff.beta * res.i_ab - chi
                if value < worst_value:
                    worst_value, worst_n0, worst_chi = value, n0, chi
            assert res.worst_n0 == worst_n0
            assert res.chi_be == pytest.approx(worst_chi, rel=1e-13, abs=1e-15)
            assert res.rate_bits_per_pulse == pytest.approx(
                self.FS.key_fraction * (worst_value - res.delta_n), rel=1e-13, abs=1e-15)

    def scan_n0(self, p):
        calib = confidence_interval_ote(1.0 + p.v_ele, self.FS.calib_samples_m, self.FS.eps_pe)
        grid = np.linspace(calib.lower / calib.point, calib.upper / calib.point, 21)
        return calib, grid

    @pytest.mark.parametrize("model,builder", [(TWO, "two_mode_stack"),
                                               (THREE, "three_mode_stack"),
                                               (CONV, "conventional_stack")])
    def test_nonfinite_stack_element_names_its_n0(self, monkeypatch, model, builder):
        original = getattr(keyrate, builder)

        def poisoned(p, n0):
            out = original(p, n0)
            out[7, 2, 2] = np.nan
            return out

        monkeypatch.setattr(keyrate, builder, poisoned)
        p = params(v=4.0, t=transmittance_from_km(20.0))
        scenario = SnuScenario(model=model)
        calib, n0 = self.scan_n0(p)
        named = re.escape(repr(float(n0[7])))
        with pytest.raises(NumericalError, match=f"non-finite .* at n0 = {named}$"):
            key_rate_finite(p, scenario, self.FS, calib)

    def test_lost_unit_eigenvalue_names_its_n0(self, monkeypatch):
        original = keyrate.three_mode_stack

        def inflated(p, n0):
            out = original(p, n0)
            out[5] *= 1.5
            return out

        monkeypatch.setattr(keyrate, "three_mode_stack", inflated)
        p = params(v=4.0, t=transmittance_from_km(20.0))
        scenario = SnuScenario(model=THREE)
        calib, n0 = self.scan_n0(p)
        named = re.escape(repr(float(n0[5])))
        with pytest.raises(NumericalError, match=f"unit eigenvalue at n0 = {named}:"):
            key_rate_finite(p, scenario, self.FS, calib)

    def test_n0_must_be_positive_scalar_or_vector(self):
        p = params()
        for bad in (0.0, -1.0, np.array([1.0, -0.5]), np.ones((2, 2))):
            with pytest.raises(ValueError, match="n0"):
                holevo_two_mode(p, bad)
