"""Tests for mutual information, Holevo bounds and key rates.

The Lodewyck et al. trusted-detector closed form is the independent
oracle for the generic eigensolver pipeline: for the two-mode model at
transmittance t*eta_d*eta_e with an ideal detector, for the conventional
model as it stands and, at transmittance t*eta_e without electronic
noise, for the three-mode model.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cvqkd_calib import (
    CalibrationModel,
    FiniteSizeParams,
    KeyRateResult,
    NumericalError,
    SystemParams,
    apply_miscalibration,
    confidence_interval,
    finite_size_penalty,
    holevo_bound,
    key_rate,
    keyrate,
    models,
    mutual_information,
    transmittance_from_km,
)
from cvqkd_calib.gaussian import entropy_of_spectra, homodyne_conditioned, symplectic_spectra
from cvqkd_calib.keyrate import snu_interval
from cvqkd_calib.models import three_mode_stack, two_mode_stack
from oracles import (
    dense_worst_case,
    holevo_lodewyck,
    holevo_pointwise,
    mutual_information_from_matrix,
)
from strategies import PROPERTY, at_km, distances_km, link_fields, system_params

TWO = CalibrationModel.ONE_TIME_TWO_MODE
THREE = CalibrationModel.ONE_TIME_THREE_MODE
CONV = CalibrationModel.CONVENTIONAL_TTE
N0 = keyrate.N0_SCAN_POINTS


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


def two_mode_closed_form_holevo(p: SystemParams) -> float:
    """The two-mode bound in closed form: everything between Alice and the
    detected mode is channel, so Lodewyck et al. apply at transmittance
    t*eta_d*eta_e with an ideal detector. Checks on the way that the
    printed A/B coefficients equal the quadratic symplectic invariants of
    the (A, B3) matrix at perfect calibration."""
    tau = p.t * p.eta_d * p.eta_e
    chi = 1.0 / tau - 1.0 + p.eps_c
    v = p.v
    vb = tau * (v - 1 + p.eps_c) + 1
    c2 = tau * (v * v - 1)
    disc = v * v + vb * vb - 2 * c2
    det = (v * vb - c2) ** 2
    a_printed = v * v * (1 - 2 * tau) + 2 * tau + (tau * (v + chi)) ** 2
    b_printed = (tau * (v * chi + 1)) ** 2
    assert disc == pytest.approx(a_printed, rel=1e-12)
    assert det == pytest.approx(b_printed, rel=1e-12)
    return holevo_lodewyck(v, tau, p.eps_c, 1.0, 0.0)


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
        assert holevo_bound(p, TWO) == pytest.approx(0.0, abs=1e-9)

    def test_matches_closed_form_pipeline(self):
        p = params()
        assert holevo_bound(p, TWO) == pytest.approx(
            two_mode_closed_form_holevo(p), rel=1e-8)

    def test_closed_form_over_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_params(rng)
            generic = holevo_bound(p, TWO)
            closed = two_mode_closed_form_holevo(p)
            assert generic == pytest.approx(closed, rel=1e-8, abs=1e-10)

    def test_monotone_in_excess_noise(self):
        base = dict(v=20.0, t=0.3, eta_d=0.6, v_ele=0.01, beta=0.956)
        values = [holevo_bound(params(eps_c=e, **base), TWO)
                  for e in np.linspace(0.0, 0.2, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_nonnegative_over_draws(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            assert holevo_bound(random_params(rng), TWO) >= -1e-11


class TestHolevoThreeMode:
    def test_zero_for_perfect_system(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert holevo_bound(p, THREE) == pytest.approx(0.0, abs=1e-9)

    def test_equals_conventional_without_electronic_noise(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            p = random_params(rng)
            p = SystemParams(v=p.v, t=p.t, eps_c=p.eps_c, eta_d=min(p.eta_d, 0.99),
                             v_ele=0.0, beta=p.beta)
            assert holevo_bound(p, THREE) == pytest.approx(
                holevo_bound(p, CONV), rel=1e-9, abs=1e-11)

    def test_never_exceeds_two_mode(self):
        # Trusting the detection loss can only shrink the eavesdropper bound.
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = random_params(rng)
            assert holevo_bound(p, THREE) <= holevo_bound(p, TWO) + 1e-9


class TestHolevoConventional:
    def test_zero_for_perfect_system(self):
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=1.0, v_ele=0.0)
        assert holevo_bound(p, CONV) == pytest.approx(0.0, abs=1e-9)

    def test_positive_rate_at_fifty_km(self):
        p = params(t=transmittance_from_km(50.0))
        chi = holevo_bound(p, CONV)
        assert 0.0 < chi < p.beta * mutual_information(p)

    def test_nonnegative_over_draws(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            p = random_params(rng)
            if p.eta_d == 1.0 and p.v_ele > 0:
                continue
            assert holevo_bound(p, CONV) >= -1e-11

    def test_builds_channel_stack_once(self, monkeypatch):
        # The (A, B1) stack feeds both Eve's entropy and the 8x8 model.
        calls = []
        original = models.conventional_channel_stack

        def counted(p, n0):
            calls.append(n0)
            return original(p, n0)

        monkeypatch.setattr(models, "conventional_channel_stack", counted)
        monkeypatch.setattr(keyrate, "conventional_channel_stack", counted)
        holevo_bound(params(), CONV, 1.0)
        holevo_bound(params(), CONV, np.linspace(0.99, 1.01, 21))
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
            assert holevo_bound(p, CONV) == pytest.approx(expect, rel=1e-9)

    def test_three_mode_concedes_exactly_the_electronic_noise_loss(self):
        # Trusted eta_d, untrusted eta_e: the closed form at transmittance
        # t*eta_e with no electronic noise left on the trusted side.
        for p in self.draws(22):
            expect = holevo_lodewyck(p.v, p.t * p.eta_e, p.eps_c, p.eta_d, 0.0)
            assert holevo_bound(p, THREE) == pytest.approx(expect, rel=1e-9)


class TestKeyRateAsymptotic:
    def test_composition_at_zero_distance(self):
        p = params(t=1.0)
        res = key_rate(p, THREE)
        chi = 1 / (p.eta_d * p.eta_e) - 1 + p.eps_c
        i_ab = 0.5 * math.log2((p.v + chi) / (chi + 1))
        assert res.i_ab == pytest.approx(i_ab, rel=1e-12)
        assert res.rate_bits_per_pulse == pytest.approx(
            p.beta * i_ab - res.chi_be, rel=1e-12)
        assert res.delta_n == 0.0
        assert res.worst_n0 == 1.0

    def test_three_mode_close_to_conventional_at_low_variance(self):
        # Divergence at V = 4, 25 km is well below one percent.
        p = params(v=4.0, t=transmittance_from_km(25.0))
        r3 = key_rate(p, THREE).rate_bits_per_pulse
        rc = key_rate(p, CONV).rate_bits_per_pulse
        assert rc > 0
        assert abs(r3 - rc) / rc < 0.01

    @PROPERTY
    @given(system_params)
    def test_model_ordering_over_draws(self, p):
        rates = {m: key_rate(p, m).rate_bits_per_pulse
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
                rates.append(key_rate(p, THREE).rate_bits_per_pulse)
            positive = [r for r in rates if r > 0]
            assert len(positive) >= 2
            assert all(b < a for a, b in zip(positive, positive[1:]))

    @PROPERTY
    @given(link_fields, distances_km, distances_km, st.sampled_from([TWO, THREE, CONV]))
    def test_rate_never_rises_with_distance_while_positive(self, fields, km1, km2, model):
        near, far = sorted((km1, km2))
        r_near = key_rate(at_km(fields, near), model).rate_bits_per_pulse
        r_far = key_rate(at_km(fields, far), model).rate_bits_per_pulse
        if r_near > 0.0:
            assert r_far <= r_near + 1e-12

    def test_small_step_continuity(self):
        p0 = params(v=4.0, t=transmittance_from_km(30.0))
        p1 = params(v=4.0, t=transmittance_from_km(30.01))
        r0 = key_rate(p0, THREE).rate_bits_per_pulse
        r1 = key_rate(p1, THREE).rate_bits_per_pulse
        assert abs(r1 - r0) < 1e-4

    def test_miscalibration_lowers_apparent_rate(self):
        p = params(t=transmittance_from_km(40.0))
        clean = key_rate(p, CONV).rate_bits_per_pulse
        skewed = key_rate(p, CONV, delta=0.002).rate_bits_per_pulse
        assert skewed < clean

    # 1/(t eta_d eta_e) overflows in I_AB, so the rate would be NaN.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_non_finite_rate_names_its_n0(self, model):
        with pytest.raises(NumericalError, match=r"^non-finite key rate at n0 = 1\.0$") as err:
            key_rate(params(t=1e-310), model)
        assert err.value.row == 0

    def test_sign_convention_invariance(self):
        # Negating every correlation involving the trusted loss mode C
        # (the printed finite-size matrix uses the opposite sign) moves
        # no key-rate ingredient by more than 1e-10.
        (g,) = three_mode_stack(params(), 1.002)
        flipped = g.copy()
        flipped[4:6, :4] *= -1.0
        flipped[:4, 4:6] *= -1.0
        both = np.stack([g, flipped])
        cond = homodyne_conditioned(both, 1)
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
        for m in (1, 10 ** 11):
            with pytest.raises(ValueError, match="calibration samples"):
                FiniteSizeParams(**{**good, "calib_samples_m": m})
        with pytest.raises(ValueError, match=r"n >= 2, got 1\.5"):
            FiniteSizeParams(**{**good, "block_length": 3, "calib_samples_m": 2})


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

    def test_collapsed_interval_and_huge_block_recovers_asymptotic(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        asym = key_rate(p, THREE)
        fs = FiniteSizeParams(block_length=10 ** 18, key_fraction=0.999999,
                              eps_pe=1e-10, eps_pa=1e-10, eps_smooth=1e-10,
                              calib_samples_m=10 ** 18)
        fin = key_rate(p, THREE, fs)
        assert fin.rate_bits_per_pulse == pytest.approx(
            asym.rate_bits_per_pulse, rel=1e-4)
        # the interval at m = 1e18 is not exactly a point: chi moves by
        # O(interval width) around the asymptotic value
        assert fin.chi_be == pytest.approx(asym.chi_be, rel=1e-6)

    def test_rate_formula_decomposition(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        fs = self.fs()
        calib = snu_interval(p, THREE, fs)
        res = key_rate(p, THREE, fs)
        assert res.rate_bits_per_pulse == pytest.approx(
            fs.key_fraction * (p.beta * res.i_ab - res.chi_be - res.delta_n),
            rel=1e-12)
        lo, hi = calib.lower / calib.point, calib.upper / calib.point
        assert lo <= res.worst_n0 <= hi

    def test_worst_case_no_better_than_perfect_calibration(self):
        p = params(v=4.0, t=transmittance_from_km(20.0))
        fs = self.fs(m=10 ** 6)
        fin = key_rate(p, THREE, fs)
        asym = key_rate(p, THREE)
        assert fin.chi_be >= asym.chi_be - 1e-12

    def test_finite_below_asymptotic_when_interval_contains_unity(self):
        # Meaningful for nonnegative rates: the key-fraction scaling makes
        # negative values less negative.
        rng = np.random.default_rng(31)
        fs = self.fs(m=10 ** 8)
        checked = 0
        while checked < 25:
            p = random_params(rng)
            asym = key_rate(p, TWO)
            if asym.rate_bits_per_pulse < 0:
                continue
            fin = key_rate(p, TWO, fs)
            assert fin.rate_bits_per_pulse <= asym.rate_bits_per_pulse + 1e-12
            checked += 1

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    @PROPERTY
    @given(p=system_params, m=st.sampled_from([10 ** 6, 5 * 10 ** 9]))
    def test_finite_never_exceeds_asymptotic_over_draws(self, model, p, m):
        asym = key_rate(p, model).rate_bits_per_pulse
        assume(asym >= 0.0)
        fin = key_rate(p, model, self.fs(m=m))
        assert fin.rate_bits_per_pulse <= asym + 1e-12

    def test_monotone_in_block_length(self):
        p = params(v=4.0, t=transmittance_from_km(40.0))
        rates = []
        for n in (10 ** 8, 10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12):
            fs = FiniteSizeParams(block_length=n, key_fraction=0.5, eps_pe=1e-10,
                                  eps_pa=1e-10, eps_smooth=1e-10,
                                  calib_samples_m=10 ** 8)
            rates.append(key_rate(p, THREE, fs).rate_bits_per_pulse)
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_invalid_interval_rejected(self):
        # The frozen interval type checks itself, so no interval that
        # key_rate derives has a nonpositive lower bound.
        calib = snu_interval(params(), THREE, self.fs())
        with pytest.raises(ValueError, match="interval"):
            type(calib)(point=calib.point, lower=-1.0, upper=calib.upper)
        with pytest.raises(dataclasses.FrozenInstanceError):
            calib.lower = -1.0


class TestBlockEvaluation:
    """A block of rows, v, t, eps_c and delta given as columns, goes through
    one key_rate call; every row equals its own one-row evaluation bit for
    bit, clamp branch of apply_miscalibration included."""

    FS = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                          eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=5 * 10 ** 9)
    DELTAS = (0.0, 0.001, 0.5, 2.0)

    @pytest.mark.parametrize("regime", ["asymptotic", "finite_size"])
    @pytest.mark.parametrize("v_rin", [0.0, 0.02])
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_block_equals_its_rows(self, model, v_rin, regime):
        fs = self.FS if regime == "finite_size" else None
        rng = np.random.default_rng([list(CalibrationModel).index(model), int(v_rin * 100),
                                     fs is None])
        for _ in range(3):
            n = 4 * len(self.DELTAS)
            # Half the rows within 5 km, where delta 0.5 and 2.0 imply t_hat > 1.
            km = np.where(np.arange(n) % 2 == 0, rng.uniform(0.0, 5.0, n),
                          rng.uniform(0.0, 200.0, n))
            t = np.array([transmittance_from_km(x) for x in km])
            v = rng.uniform(1.5, 60.0, n)
            eps_c = rng.uniform(0.0, 0.1, n)
            delta = np.tile(self.DELTAS, n // len(self.DELTAS))
            assert np.any((1.0 + delta) * t > 1.0)
            detector = dict(eta_d=rng.uniform(0.3, 0.99), v_ele=rng.uniform(0.0, 0.3),
                            beta=rng.uniform(0.85, 1.0), v_rin=v_rin)
            block = key_rate(SystemParams(v=v, t=t, eps_c=eps_c, **detector), model, fs,
                             delta)
            columns = [np.broadcast_to(getattr(block, f.name), (n,)).tolist()
                       for f in dataclasses.fields(KeyRateResult)]
            expect = [key_rate(SystemParams(v=v[i], t=t[i], eps_c=eps_c[i], **detector),
                               model, fs, delta[i]) for i in range(n)]
            assert [KeyRateResult(*row) for row in zip(*columns)] == expect


class TestSnuInterval:
    """Each model implies its calibration procedure: two steps for the
    conventional receiver, one for the one-time receivers, all on the
    true unit 1 + v_ele + v_rin."""

    @pytest.mark.parametrize("v_ele,v_rin", [(0.01, 0.0), (0.1, 0.02), (0.0, 0.0)])
    def test_matches_explicit_procedure(self, v_ele, v_rin):
        p = SystemParams(v=4.0, t=0.5, eps_c=0.01, eta_d=0.6, v_ele=v_ele, beta=0.956,
                         v_rin=v_rin)
        fs = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-8,
                              eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 6)
        v_tot = 1.0 + v_ele + v_rin
        assert snu_interval(p, CONV, fs) == confidence_interval(
            v_tot, v_ele, 10 ** 6, 1e-8)
        for model in (TWO, THREE):
            assert snu_interval(p, model, fs) == confidence_interval(v_tot, 0.0, 10 ** 6, 1e-8)

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_degenerate_interval_fails_by_name(self, model):
        # At eps_pe 1e-10 the one-time interval crosses zero for m <= 83.
        fs = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                              eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=50)
        message = (r"^degenerate SNU interval: calib_samples_m = 50 is too few for "
                   r"eps_pe = 1e-10, so the interval's lower bound crosses zero$")
        with pytest.raises(ValueError, match=message):
            snu_interval(params(), model, fs)
        with pytest.raises(ValueError, match=message):
            key_rate(params(), model, fs)
        # The asymptotic rate takes no interval.
        assert key_rate(params(), model).rate_bits_per_pulse > 0.0


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

    @pytest.mark.parametrize("model,seed", [(TWO, 1), (THREE, 2), (CONV, 3)])
    def test_batched_holevo_matches_pointwise(self, model, seed):
        for p in self.draws(seed):
            n0 = np.append(np.linspace(0.99, 1.01, 20), 1.0)
            batched = holevo_bound(p, model, n0)
            assert batched.shape == n0.shape
            for got, x in zip(batched, n0):
                expect = holevo_pointwise(model, p, float(x))
                assert got == pytest.approx(expect, rel=1e-13, abs=1e-15)
            assert holevo_bound(p, model, 1.0) == batched[-1]

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_finite_rate_is_pointwise_minimum(self, model):
        for p in self.draws(seed=7, n=8):
            calib = snu_interval(p, model, self.FS)
            res = key_rate(p, model, self.FS, delta=0.001)
            eff = apply_miscalibration(p, 0.001)
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

    def scan_n0(self, p, model):
        calib = snu_interval(p, model, self.FS)
        return np.linspace(calib.lower / calib.point, calib.upper / calib.point, 21)

    @staticmethod
    def block(rows):
        """One row at 20 km, or a block of rows at 10, 20, 30, ... km whose
        middle row is at 20 km."""
        km = [20.0] if rows == 1 else [10.0 * (i + 1) for i in range(rows)]
        t = [transmittance_from_km(x) for x in km]
        return params(v=4.0, t=t[0] if rows == 1 else np.array(t)), rows // 2

    @staticmethod
    def damage_at(monkeypatch, builder, n0, row, damage):
        """Patch keyrate.<builder>(params, n0) so that damage(stack, i) hits
        element i of every stack it builds that holds `row` at SNU ratio n0,
        whichever subset of the grid the call evaluates."""
        original = getattr(keyrate, builder)

        def damaged(p, scan):
            out = original(p, scan)
            for k in np.flatnonzero(scan == n0):
                damage(out, row * scan.size + k)
            return out

        monkeypatch.setattr(keyrate, builder, damaged)

    # (grid index, fallback forced): a probe of the certified pass, and a
    # point that only the full scan evaluates.
    @pytest.mark.parametrize("index,fallback", [(N0 - 2, False), (7, True)])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("model,builder", [(TWO, "two_mode_stack"),
                                               (THREE, "three_mode_stack"),
                                               (CONV, "conventional_channel_stack")])
    def test_nonfinite_stack_element_names_its_n0(self, monkeypatch, model, builder, rows,
                                                  index, fallback):
        p, middle = self.block(rows)
        n0 = self.scan_n0(p, model)

        def poison(out, i):
            out[i, 2, 2] = np.nan

        self.damage_at(monkeypatch, builder, n0[index], middle, poison)
        if fallback:
            monkeypatch.setattr(keyrate, "_interior_max_excluded", lambda chi: False)
        named = re.escape(repr(float(n0[index])))
        with pytest.raises(NumericalError, match=f"non-finite .* at n0 = {named}$") as err:
            key_rate(p, model, self.FS)
        assert err.value.row == middle

    @pytest.mark.parametrize("index,fallback", [(1, False), (5, True)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_lost_unit_eigenvalue_names_its_n0(self, monkeypatch, rows, index, fallback):
        p, middle = self.block(rows)
        n0 = self.scan_n0(p, THREE)

        def inflate(out, i):
            out[i] *= 1.5

        self.damage_at(monkeypatch, "three_mode_stack", n0[index], middle, inflate)
        if fallback:
            monkeypatch.setattr(keyrate, "_interior_max_excluded", lambda chi: False)
        named = re.escape(repr(float(n0[index])))
        with pytest.raises(NumericalError, match=f"unit eigenvalue at n0 = {named}:") as err:
            key_rate(p, THREE, self.FS)
        assert err.value.row == middle

    def test_n0_must_be_positive_scalar_or_vector(self):
        p = params()
        for bad in (0.0, -1.0, np.array([1.0, -0.5]), np.ones((2, 2))):
            with pytest.raises(ValueError, match="n0"):
                holevo_bound(p, TWO, bad)

    @pytest.mark.parametrize("evaluate", [holevo_bound, key_rate])
    def test_model_must_be_a_calibration_model(self, evaluate):
        # A model's value string is not the model: no branch may take it.
        with pytest.raises(ValueError, match="^unknown calibration model 'three_mode'$"):
            evaluate(params(), "three_mode")


class TestProbedWorstCase:
    """key_rate evaluates chi_BE at five probes of the n0 grid and falls back
    to the whole grid when they cannot exclude an interior maximum; the full
    21-point scan of tests/oracles.py is its oracle, field for field."""

    FS = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                          eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 6)

    # Conventional, m = 2564: chi_BE peaks inside the interval above both
    # endpoints (2.1236 and 1.9740), between the probes.
    PEAKED = params(v=39.23, t=0.9523, eps_c=0.0644, eta_d=0.51, v_ele=0.0741)
    PEAKED_FS = dataclasses.replace(FS, calib_samples_m=2564)

    @staticmethod
    def outcome(rate):
        try:
            return rate()
        except (NumericalError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    @PROPERTY
    @given(p=system_params, delta=st.sampled_from([0.0, 0.001]),
           log_m=st.floats(1.0, 10.0))
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_equals_dense_scan(self, model, p, delta, log_m):
        # m from 10, where the interval is degenerate and both refuse it, to 1e10.
        fs = dataclasses.replace(self.FS, calib_samples_m=round(10 ** log_m))
        assert (self.outcome(lambda: key_rate(p, model, fs, delta))
                == self.outcome(lambda: dense_worst_case(p, model, fs, delta)))

    def spy(self, monkeypatch):
        """Record each verdict of the probe certificate."""
        verdicts = []
        certify = keyrate._interior_max_excluded

        def recorded(chi):
            verdicts.append(certify(chi))
            return verdicts[-1]

        monkeypatch.setattr(keyrate, "_interior_max_excluded", recorded)
        return verdicts

    def test_interior_peak_falls_back_to_the_full_scan(self, monkeypatch):
        verdicts = self.spy(monkeypatch)
        res = key_rate(self.PEAKED, CONV, self.PEAKED_FS)
        assert verdicts == [False]
        assert res.chi_be == 2.414488341933574
        assert res.worst_n0 == 1.1451680844332404
        assert res == dense_worst_case(self.PEAKED, CONV, self.PEAKED_FS)
        calib = snu_interval(self.PEAKED, CONV, self.PEAKED_FS)
        grid = np.linspace(calib.lower / calib.point, calib.upper / calib.point, N0)
        assert res.worst_n0 not in grid[keyrate._PROBES]
        assert res.chi_be > np.max(holevo_bound(self.PEAKED, CONV, grid[keyrate._PROBES]))

    def test_interior_peak_lies_in_unphysical_states(self):
        # The peak sits where the reconstructed states violate the
        # uncertainty relation (smallest symplectic eigenvalue nu < 1, here
        # on (A, B1)); on the physical grid points chi_BE falls from the
        # lower endpoint, so the grid's value is not optimistic against them.
        res = key_rate(self.PEAKED, CONV, self.PEAKED_FS)
        calib = snu_interval(self.PEAKED, CONV, self.PEAKED_FS)
        grid = np.linspace(calib.lower / calib.point, calib.upper / calib.point, N0)
        eve = models.conventional_channel_stack(self.PEAKED, grid)
        cond = homodyne_conditioned(models.conventional_stack(self.PEAKED, eve), 1)
        nu = np.minimum(symplectic_spectra(eve).min(axis=-1),
                        symplectic_spectra(cond).min(axis=-1))
        assert nu[0] >= 1.0 - 1e-9
        assert nu[list(grid).index(res.worst_n0)] == pytest.approx(0.1435, abs=1e-4)
        physical = nu >= 1.0 - 1e-9
        assert physical.tolist() == [True] * 12 + [False] * 9
        chi = holevo_bound(self.PEAKED, CONV, grid[physical])
        assert chi[0] == pytest.approx(2.1236, abs=1e-4)
        assert np.all(np.diff(chi) < 0.0)

    def test_one_peaked_row_scans_its_whole_block(self, monkeypatch):
        verdicts = self.spy(monkeypatch)
        block = dataclasses.replace(self.PEAKED, v=np.array([4.0, 39.23, 20.0]))
        res = key_rate(block, CONV, self.PEAKED_FS)
        assert verdicts == [False]
        assert res.chi_be[1] == 2.414488341933574
        for i, v in enumerate(block.v):
            row = key_rate(dataclasses.replace(self.PEAKED, v=float(v)), CONV, self.PEAKED_FS)
            assert (res.chi_be[i], res.worst_n0[i]) == (row.chi_be, row.worst_n0)

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_narrow_interval_is_certified(self, monkeypatch, model):
        verdicts = self.spy(monkeypatch)
        key_rate(params(), model, self.FS)
        assert verdicts == [True]

    @pytest.mark.parametrize("chi,excluded", [
        ([3.0, 2.0, 1.0, 2.0, 3.0], True),   # valley
        ([1.0, 1.0, 2.0, 3.0, 3.0], True),   # flat, then rising
        ([3.0, 2.0, 2.0, 2.0, 1.0], True),   # falling
        ([1.0, 2.0, 1.0, 1.0, 1.0], False),  # peak at the left neighbour
        ([1.0, 2.0, 3.0, 2.0, 1.0], False),  # peak at the midpoint
        ([2.0, 2.0, 2.0, 3.0, 2.0], False),  # peak at the right neighbour
        ([2.0, 1.0, 1.5, 1.0, 2.0], False),  # rise then fall inside a valley
    ])
    def test_certificate_rejects_any_rise_then_fall(self, chi, excluded):
        rows = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], chi])
        assert keyrate._interior_max_excluded(rows) is excluded
