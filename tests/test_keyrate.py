"""Tests for mutual information, Holevo bounds and key rates.

The Lodewyck et al. trusted-detector closed form is the independent
oracle for the generic eigensolver pipeline: for the two-mode model at
transmittance t*eta_d*eta_e with an ideal detector, for the conventional
model as it stands and, at transmittance t*eta_e without electronic
noise, for the three-mode model.
"""

import collections
import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cvqkd_calib import (
    CalibrationModel,
    FiniteSizeParams,
    KeyRateResult,
    NumericalError,
    SystemParams,
    apply_miscalibration,
    confidence_interval,
    holevo_bound,
    key_rate,
    keyrate,
    models,
    transmittance_from_km,
)
from cvqkd_calib.gaussian import entropy_of_spectra, homodyne_conditioned, symplectic_spectra
from cvqkd_calib.keyrate import (
    _TEN_BRACKET_CAP,
    finite_size_penalty,
    mutual_information,
    snu_interval,
)
from cvqkd_calib.models import three_mode_stack
from oracles import (
    RATE_MARGIN_ABS,
    RATE_MARGIN_REL,
    dense_worst_case,
    entropies_pointwise,
    holevo_grid,
    holevo_lodewyck,
    holevo_pointwise,
    holevo_two_mode_exact,
    mutual_information_from_matrix,
    two_mode_stack,
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


def rows_of(p: SystemParams, rows: np.ndarray) -> SystemParams:
    """The listed rows of params whose v, t and eps_c are columns."""
    return dataclasses.replace(p, v=p.v[rows], t=p.t[rows], eps_c=p.eps_c[rows])


def flat(monkeypatch, row):
    """Make keyrate.closed_form_rate's rate 0 at every SNU ratio of the
    given row, or rows, of each call: a tie at every ratio."""
    closed_form = keyrate.closed_form_rate

    def tied(params, model, fs=None):
        rate, chi = closed_form(params, model, fs)
        rate[row] = 0.0
        return rate, chi

    monkeypatch.setattr(keyrate, "closed_form_rate", tied)


def fields_of(res: KeyRateResult) -> list[list[float]]:
    """A result's fields as lists, for == comparison of blocks."""
    return [np.ravel(getattr(res, f.name)).tolist() for f in dataclasses.fields(res)]


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

    def test_same_bits_as_the_direct_builder_pipeline(self):
        # holevo_bound builds (A, B3) as the conventional channel state at
        # t*eta_d*eta_e behind an ideal detector; oracles.two_mode_stack
        # builds it directly. Through the same kernels both give the same
        # bound bit for bit, at SNU ratios off 1, under an SNU error and
        # with RIN, 20 blocks of 50 rows.
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = 50
            true = SystemParams(
                v=rng.uniform(1.5, 60.0, n), t=10 ** rng.uniform(-3, 0, n),
                eps_c=rng.uniform(0.0, 0.1, n), eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(0.0, 0.3), beta=0.956, v_rin=rng.uniform(1e-3, 0.1))
            p = apply_miscalibration(true, rng.uniform(-0.05, 0.05, n))
            n0 = rng.uniform(0.9, 1.1, n)
            g = two_mode_stack(p, n0)
            expect = (entropy_of_spectra(symplectic_spectra(g))
                      - entropy_of_spectra(symplectic_spectra(homodyne_conditioned(g, 1))))
            assert holevo_bound(p, TWO, n0).tolist() == expect.tolist()

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
    """The models against Lodewyck et al., PRA 76, 042305 (2007)."""

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

    @pytest.mark.parametrize("model", [CONV, THREE, TWO])
    @pytest.mark.parametrize("with_rin", [False, True])
    def test_closed_form_rate_equals_key_rate(self, model, with_rin):
        # 20 detectors with 10 channel rows each, as one block per detector,
        # in each regime, compared at every SNU ratio of key_rate's grid
        # (the one ratio 1 asymptotically), where the eigensolver's rate is
        # share * (beta * I_AB - holevo_bound - Delta(n)): finite-size
        # key_rate's worst ratio, the closed form's, relies on agreement at
        # each ratio.
        # key_rate prints the closed form's rate and chi_BE asymptotically,
        # and finite-size the eigensolver's at its worst ratio. Finite-size,
        # the first row is at t = 1, where the interval's lower end n0 < 1
        # puts t / n0 past 1. The closed form is finite at every (row, ratio)
        # pair, one of conventional with v_rin among them: at t = 1 and the
        # interval's upper end, where the excess noise the ratio implies is
        # negative, it takes the moduli the eigensolver reports.
        for finite in (False, True):
            rng = np.random.default_rng([24 + finite, with_rin])
            for _ in range(20):
                t = 10 ** rng.uniform(-3, 0, 10)
                p = SystemParams(
                    v=rng.uniform(1.5, 60.0, 10), t=np.append(1.0, t[1:]) if finite else t,
                    eps_c=rng.uniform(0.0, 0.1, 10), eta_d=rng.uniform(0.3, 0.99),
                    v_ele=rng.uniform(1e-3, 0.3), beta=rng.uniform(0.85, 1.0),
                    v_rin=rng.uniform(1e-3, 0.1) if with_rin else 0.0)
                fs = None if not finite else FiniteSizeParams(
                    block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10, eps_pa=1e-10,
                    eps_smooth=1e-10, calib_samples_m=int(10 ** rng.uniform(5, 9)))
                model_row = keyrate.closed_form_model(p, model, fs)
                share, penalty = (1.0, 0.0) if fs is None else (
                    fs.key_fraction, finite_size_penalty(fs))
                chi = holevo_grid(p, model, model_row[3:])
                expect = share * (p.beta * np.reshape(mutual_information(p), (-1, 1))
                                  - chi - penalty)
                res = key_rate(p, model, fs)
                rate, closed_chi = keyrate.closed_form_rate(p, model_row, fs)
                assert np.isfinite(rate).all()
                if fs is None:
                    assert res.rate_bits_per_pulse.tolist() == rate[:, 0].tolist()
                    assert res.chi_be.tolist() == closed_chi[:, 0].tolist()
                else:
                    # key_rate's rate is the eigensolver's at the closed
                    # form's worst ratio.
                    worst = np.argmin(rate, axis=1)
                    assert (res.rate_bits_per_pulse.tolist()
                            == expect[np.arange(worst.size), worst].tolist())
                scale = np.maximum(np.abs(rate), np.abs(closed_chi))
                error = np.abs(rate - expect)
                assert np.all(error <= RATE_MARGIN_REL * scale), (p, fs, error / scale)

    @pytest.mark.parametrize("model", [CONV, THREE, TWO])
    @pytest.mark.parametrize("with_rin", [False, True])
    def test_closed_form_rate_within_margin_at_small_m(self, model, with_rin):
        # key_rate evaluates the eigensolver only at the closed form's worst
        # ratio, which lies within RATE_MARGIN_REL of it at each ratio, so
        # the margin must also hold where m from 1e3 to 1e5 gives wide SNU
        # intervals reaching unphysical states. 20 detectors of 10 rows,
        # the first at t = 1; 7.2e-12 is the worst seen here. At 152 of the
        # 25200 (row, ratio) pairs the state is so unphysical that the
        # closed form takes its symplectic pairs' moduli.
        rng = np.random.default_rng([26, with_rin])
        for _ in range(20):
            t = 10 ** rng.uniform(-3, 0, 10)
            p = SystemParams(
                v=rng.uniform(1.5, 60.0, 10), t=np.append(1.0, t[1:]),
                eps_c=rng.uniform(0.0, 0.1, 10), eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(1e-3, 0.3), beta=rng.uniform(0.85, 1.0),
                v_rin=rng.uniform(1e-3, 0.1) if with_rin else 0.0)
            fs = FiniteSizeParams(
                block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10, eps_pa=1e-10,
                eps_smooth=1e-10, calib_samples_m=int(10 ** rng.uniform(3, 5)))
            model_row = keyrate.closed_form_model(p, model, fs)
            chi = holevo_grid(p, model, model_row[3:])
            expect = fs.key_fraction * (p.beta * np.reshape(mutual_information(p), (-1, 1))
                                        - chi - finite_size_penalty(fs))
            rate, closed_chi = keyrate.closed_form_rate(p, model_row, fs)
            scale = np.maximum(np.abs(rate), np.abs(closed_chi))
            error = np.abs(rate - expect)
            assert np.all(error <= RATE_MARGIN_REL * scale), (p, fs, error / scale)


class TestRateSign:
    """keyrate._lowest_rate gives each TEN edge the closed form's worst case
    over the SNU ratios, with no eigensolve, and the search moves an end
    by its sign: key_rate's rate asymptotically, and finite-size
    key_rate's sign wherever |rate| exceeds the margin between the two
    routes."""

    @staticmethod
    def closed_form_root(p, model, fs):
        """Each row's eps_c in [0, cap] where the closed form's lowest rate
        over the SNU grid turns from positive to not, to within a few ulps:
        0 where it is not positive at 0, the cap where it stays positive."""
        cf = keyrate.closed_form_model(p, model, fs)

        def positive(eps_c):
            rate, _ = keyrate.closed_form_rate(dataclasses.replace(p, eps_c=eps_c), cf, fs)
            return np.min(rate, axis=1) > 0.0

        lo, hi = np.zeros(p.v.size), np.full(p.v.size, _TEN_BRACKET_CAP)
        lo[positive(hi)] = _TEN_BRACKET_CAP
        hi[~positive(lo)] = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            up = positive(mid)
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        return lo

    @staticmethod
    def lowest(monkeypatch, p, models, which, fs=None):
        """_lowest_rate over every row of p, at its own eps_c, row i with the
        closed_form_model row of models[which[i]], with holevo_bound made to
        fail."""
        def no_eigensolve(*args):
            raise AssertionError("_lowest_rate ran the eigensolver")

        monkeypatch.setattr(keyrate, "holevo_bound", no_eigensolve)
        cf = np.array([keyrate.closed_form_model(p, m, fs) for m in models])
        return keyrate._lowest_rate(p, cf[which], fs)

    @staticmethod
    def gap(p, model, fs):
        """Each row's margin at the closed form's worst SNU ratio, the one
        at which key_rate evaluates its rate: key_rate's rate lies within it
        of the closed form's worst case."""
        rate, chi = keyrate.closed_form_rate(p, keyrate.closed_form_model(p, model, fs), fs)
        worst = np.argmin(rate, axis=1)
        rows = np.arange(worst.size)
        return (RATE_MARGIN_REL * np.maximum(np.abs(rate[rows, worst]), np.abs(chi[rows, worst]))
                + RATE_MARGIN_ABS)

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("with_rin", [False, True])
    @pytest.mark.parametrize("model", [CONV, THREE, TWO])
    def test_sign_is_key_rates(self, monkeypatch, model, with_rin, finite):
        # 8 detectors of 40 rows each: 0-2000 km, denser near 0, and eps_c
        # at 0, log-uniform up to the cap, a relative step of 1e-15 to 0.1
        # either side of the closed form's root, or next to that root. Near
        # a root or from about 600 km the rate is within float error of 0;
        # m from 1e4 gives wide SNU intervals, with the worst case inside
        # some of them. Asymptotically the value is key_rate's rate, so
        # every sign is key_rate's; finite-size key_rate prints the
        # eigensolver's rate, whose sign may differ only within the gap.
        rng = np.random.default_rng([30, list(CalibrationModel).index(model), with_rin, finite])
        near_zero = 0
        for _ in range(8):
            n = 40
            km = 2000.0 * rng.uniform(0.0, 1.0, n) ** 2
            p = SystemParams(
                v=rng.uniform(1.5, 60.0, n), t=10.0 ** (-0.02 * km), eps_c=np.zeros(n),
                eta_d=rng.uniform(0.3, 0.99), v_ele=rng.uniform(1e-3, 0.3),
                beta=rng.uniform(0.85, 1.0), v_rin=rng.uniform(1e-3, 0.1) if with_rin else 0.0)
            fs = None if not finite else FiniteSizeParams(
                block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10, eps_pa=1e-10,
                eps_smooth=1e-10, calib_samples_m=int(10 ** rng.uniform(4, 10)))
            root = self.closed_form_root(p, model, fs)
            step = 10.0 ** rng.uniform(-15, -1, n) * rng.choice([-1.0, 1.0], n)
            eps_c = np.choose(rng.integers(0, 4, n), [
                np.zeros(n),
                10.0 ** rng.uniform(-4, math.log10(_TEN_BRACKET_CAP), n),
                np.clip(root * (1.0 + step), 0.0, _TEN_BRACKET_CAP),
                np.nextafter(root, np.where(step > 0.0, np.inf, 0.0)),
            ])
            p = dataclasses.replace(p, eps_c=eps_c)
            rate = key_rate(p, model, fs).rate_bits_per_pulse
            gap = self.gap(p, model, fs)
            with monkeypatch.context() as patched:
                value = self.lowest(patched, p, [model], np.zeros(n, dtype=int), fs)
            if fs is None:
                assert value.tolist() == rate.tolist()
            else:
                assert np.all(np.abs(value - rate) <= gap), (p, fs)
            clear = np.ones(n, dtype=bool) if fs is None else np.abs(rate) > gap
            assert np.array_equal(value[clear] > 0.0, rate[clear] > 0.0), (
                p, fs, np.flatnonzero((value[clear] > 0.0) != (rate[clear] > 0.0)))
            near_zero += np.sum(np.abs(rate) <= gap)
        # The draws reach rates within the gap of 0.
        assert near_zero >= 5

    @pytest.mark.parametrize("regime", ["asymptotic 300-900 km", "finite-size m = 1e4"])
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_models_take_each_rows_own_closed_form(self, monkeypatch, regime, seed):
        # 60 rows of all three models in random order, on the README system,
        # with eps_c at 0, log-uniform, or within 1e-9 relative of the
        # closed form's root. Asymptotically at 300-900 km many rates are
        # within float error of 0; finite-size at m = 1e4, with a fifth of
        # the rows at 0 km, the SNU interval reaches unphysical states. Each
        # row's value is its own model's closed-form worst case, and its
        # sign is key_rate's as test_sign_is_key_rates states it.
        rng = np.random.default_rng([32, seed, regime.startswith("finite")])
        n, models = 60, sorted(CalibrationModel, key=lambda m: m.value)
        far = regime.startswith("asymptotic")
        fs = None if far else FiniteSizeParams(
            block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10, eps_pa=1e-10,
            eps_smooth=1e-10, calib_samples_m=10 ** 4)
        km = (rng.uniform(300.0, 900.0, n) if far else
              np.where(rng.uniform(size=n) < 0.2, 0.0, 200.0 * rng.uniform(0.0, 1.0, n) ** 2))
        which = rng.integers(0, len(models), n)
        p = SystemParams(v=rng.uniform(1.5, 60.0, n), t=10.0 ** (-0.02 * km),
                         eps_c=np.zeros(n), eta_d=0.6, v_ele=0.01, beta=0.956)
        eps_c = np.where(rng.uniform(size=n) < 0.5, 0.0, 10.0 ** rng.uniform(-5.0, -0.5, n))
        near = rng.uniform(size=n) < 0.4
        for i, model in enumerate(models):
            own = np.flatnonzero((which == i) & near)
            root = self.closed_form_root(rows_of(p, own), model, fs)
            eps_c[own] = root * (1.0 + 10.0 ** rng.uniform(-15, -9, own.size)
                                 * rng.choice([-1.0, 1.0], own.size))
        p = dataclasses.replace(p, eps_c=eps_c)
        expect, rate, gap = np.zeros(n), np.zeros(n), np.zeros(n)
        for i, model in enumerate(models):
            own = np.flatnonzero(which == i)
            part = rows_of(p, own)
            closed, _ = keyrate.closed_form_rate(
                part, keyrate.closed_form_model(part, model, fs), fs)
            expect[own] = np.min(closed, axis=1)
            rate[own] = key_rate(part, model, fs).rate_bits_per_pulse
            gap[own] = self.gap(part, model, fs)
        value = self.lowest(monkeypatch, p, models, which, fs)
        assert value.tolist() == expect.tolist()
        clear = np.ones(n, dtype=bool) if far else np.abs(rate) > gap
        assert np.array_equal(value[clear] > 0.0, rate[clear] > 0.0), np.flatnonzero(
            (value[clear] > 0.0) != (rate[clear] > 0.0))
        assert np.sum(np.abs(rate) <= gap) >= 5

    @pytest.mark.parametrize("rate,sign", [
        ([[2e-12, 3e-12, 2e-12]], True),            # no margin: a positive value is positive
        ([[2e-12, 3e-12, 5e-13]], True),
        ([[1.0, -2e-12, 1.0]], False),              # the lowest ratio decides
        ([[5e-7, 1.0, 5e-7]], True),
        ([[-1.0, -np.finfo(float).max, -1.0]], False),
        ([[0.0, 1.0, 1.0]], False),                 # 0 is not positive
    ])
    def test_value_is_the_lowest_rate_and_its_sign(self, monkeypatch, rate, sign):
        # The 3 ratios stand for a grid; the search takes the value's sign.
        monkeypatch.setattr(keyrate, "closed_form_rate",
                            lambda *args: (np.array(rate), np.ones((1, 3))))
        value = self.lowest(monkeypatch, params(v=np.array([40.0]), t=np.array([0.5])),
                            [TWO], np.zeros(1, dtype=int))
        assert value.tolist() == np.min(rate, axis=1).tolist()
        assert (value > 0.0).tolist() == [sign]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_names_its_ratio_and_row_of_the_stack(self, monkeypatch, bad):
        # Rows 0 and 2 are not positive at eps_c = 0, so the search's second
        # step lists rows 1 and 3 only. There the listed row 1, row 3 of the
        # stack, is not finite at grid index 7: the error names that ratio
        # and carries row 3.
        fs = TestCandidateWorstCase.FS

        def closed_form(params, model, fs=None):
            rate = np.ones((params.v.size, N0))
            rate[np.isin(params.v, [40.0, 42.0]) & (params.eps_c == 0.0)] = -1.0
            rate[(params.v == 43.0) & (params.eps_c > 0.0), 7] = bad
            return rate, np.ones_like(rate)

        monkeypatch.setattr(keyrate, "closed_form_rate", closed_form)
        p = params(v=np.array([40.0, 41.0, 42.0, 43.0]), t=np.full(4, 0.5))
        named = re.escape(repr(float(keyrate.closed_form_model(p, TWO, fs)[3 + 7])))
        with pytest.raises(NumericalError, match=f"^non-finite key rate at n0 = {named}$") as err:
            keyrate.tolerable_excess_noise(p, [TWO], fs)
        assert err.value.row == 3
        assert err.value.model is TWO

    def test_positive_needs_every_grid_ratio_and_non_positive_any_one(self, monkeypatch):
        # The worst case is the whole grid's, so a rate below 0 at any one
        # ratio, an interior one included, makes the row non-positive, and
        # one just above 0 there leaves it positive.
        fs = TestCandidateWorstCase.FS
        dip = np.ones((3, N0))
        dip[0, 7] = -1.0
        dip[1, 7] = 5e-10
        dip[2, 7] = 2e-9
        monkeypatch.setattr(keyrate, "closed_form_rate",
                            lambda *args: (dip, np.ones_like(dip)))
        value = self.lowest(monkeypatch, params(v=np.full(3, 40.0), t=np.full(3, 0.5)),
                            [TWO], np.zeros(3, dtype=int), fs)
        assert value.tolist() == [-1.0, 5e-10, 2e-9]
        assert (value > 0.0).tolist() == [False, True, True]


class TestClosedFormModuli:
    """closed_form_rate where a symplectic pair's nu^2, the roots of
    x^2 - s x + p, are complex (s^2 < 4p) or one is negative (p < 0): it
    takes the moduli that symplectic_spectra reports, so it agrees there
    with the eigensolver route."""

    FS = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                          eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 4)

    @staticmethod
    def pair_invariants(p, model_row):
        """(s, p) of Eve's and of the conditional pair at each (row, ratio),
        stacked as closed_form_rate forms them."""
        gain, eta, v_el, n0 = model_row[0], model_row[1], model_row[2], model_row[3:]
        v, t, eps_c = (np.reshape(x, (-1, 1)) for x in (p.v, p.t, p.eps_c))
        eps_c = eps_c + (1.0 - n0) / (t * p.eta_d * p.eta_e)
        t = gain * (t / n0)
        line = 1.0 / t - 1.0 + eps_c
        hom = (1.0 - eta) / eta + v_el / eta
        a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + line) ** 2
        sqrt_b = t * (v * line + 1.0)
        denom = t * (v + line + hom / t)
        c = (a * hom + v * sqrt_b + t * (v + line)) / denom
        d = sqrt_b * (v + sqrt_b * hom) / denom
        return np.stack([a, c]), np.stack([sqrt_b * sqrt_b, d])

    def negative_pairs(self, p, model, fs):
        """closed_form_rate's chi_BE against holevo_bound at the SNU ratios
        where a pair has p < 0, or s < 0 < p (both nu^2 negative), held to
        1e-12 relative; the number of ratios of each kind."""
        row = keyrate.closed_form_model(p, model, fs)
        pair_s, pair_p = self.pair_invariants(p, row)
        negative = np.any(pair_p < 0.0, axis=0)[0]
        both = np.any((pair_s < 0.0) & (pair_p > 0.0), axis=0)[0]
        _, chi = keyrate.closed_form_rate(p, row, fs)
        eigen = holevo_bound(p, model, row[3:])
        hit = negative | both
        assert np.all(np.abs(chi[0] - eigen)[hit] <= 1e-12 * np.abs(eigen[hit]))
        return negative.sum(), both.sum()

    @pytest.mark.parametrize("m", [10 ** 4, 3000])
    def test_negative_pairs_match_the_eigensolver(self, m):
        # The README system at 0 km and eps_c 0, whose SNU intervals reach
        # states with p < 0. 3.4e-13 is the worst relative difference seen.
        fs = dataclasses.replace(self.FS, calib_samples_m=m)
        negative = sum(self.negative_pairs(params(v=v, t=1.0, eps_c=0.0), model, fs)[0]
                       for v in (20.0, 40.0) for model in (CONV, THREE))
        assert negative >= 10

    @pytest.mark.parametrize("model", [CONV, THREE])
    def test_pairs_of_negative_sum_match_the_eigensolver(self, model):
        # At m = 100 the interval's upper end n0 = 1.91 implies an excess
        # noise of -2.4, where the conditional pair has s < 0 < p: both
        # nu^2 are negative, and the larger modulus is (|s| + sqrt(s^2 -
        # 4p)) / 2.
        fs = dataclasses.replace(self.FS, calib_samples_m=100)
        p = params(v=3.0, t=1.0, eps_c=0.0, eta_d=0.375, v_ele=0.0)
        assert self.negative_pairs(p, model, fs)[1] >= 1

    def test_complex_pair_of_a_pure_state_gives_no_information(self):
        # The conventional state at 0 km and eps_c 0 is pure, so chi_BE is
        # exactly 0. Here s^2 - 4p of one pair rounds below 0, to a complex
        # pair of modulus sqrt(p) = 1 up to rounding; the eigensolver gives
        # 4.0e-12.
        p = params(v=40.0, t=1.0, eps_c=0.0, eta_d=0.9, v_ele=0.2)
        row = keyrate.closed_form_model(p, CONV)
        s, pair_p = self.pair_invariants(p, row)
        assert np.any(s * s < 4.0 * pair_p)
        rate, chi = keyrate.closed_form_rate(p, row)
        assert chi.tolist() == [[0.0]]
        assert abs(holevo_bound(p, CONV)) <= 1e-11
        assert rate.tolist() == [[p.beta * mutual_information(p)]]

    @PROPERTY
    @given(fields=link_fields, model=st.sampled_from([CONV, THREE]))
    @example(fields={"v": 40.0, "eps_c": 0.0, "eta_d": 0.6, "v_ele": 0.01, "beta": 0.956},
             model=CONV)
    @example(fields={"v": 4.0, "eps_c": 0.0, "eta_d": 0.9, "v_ele": 0.2, "beta": 0.956},
             model=CONV)
    def test_pure_state_gives_no_information(self, fields, model):
        # At t = 1 and eps_c 0 the conventional state is pure, and so is the
        # three-mode state without electronic noise: chi_BE is exactly 0. A
        # pure pair's s^2 - 4p is 0 and can round up to 4u s^2, which would
        # put nu1 about 1e-8 above 1 and chi_BE near -1.5e-7, an optimistic
        # rate; the examples are README-system rows where it did. The
        # eigensolver's own error here reaches 3.7e-11.
        p = SystemParams(**{**fields, "eps_c": 0.0, "v_ele": fields["v_ele"] * (model is CONV)},
                         t=1.0)
        _, chi = keyrate.closed_form_rate(p, keyrate.closed_form_model(p, model))
        assert abs(chi[0, 0]) <= 1e-12
        assert abs(holevo_bound(p, model)) <= 1e-10

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_overflow_stays_non_finite(self, model):
        # From about 7700 km on the README system the arithmetic overflows;
        # the complex-pair branch must not take the resulting NaN for a
        # modulus (selected on s^2 - 4p >= 0 instead, every rate from 8500 km
        # reads 0.0 asymptotically).
        for km in (8000.0, 8500.0, 12000.0, 15000.0):
            p = params(v=np.array([4.0, 20.0, 40.0]), t=transmittance_from_km(km))
            for fs in (None, self.FS):
                rate, _ = keyrate.closed_form_rate(p, keyrate.closed_form_model(p, model, fs), fs)
                assert not np.isfinite(rate).any(), (km, fs)
        assert np.isfinite(keyrate.closed_form_rate(
            dataclasses.replace(p, t=transmittance_from_km(7600.0)),
            keyrate.closed_form_model(p, model))[0]).all()


class TestTwoModeExactOracle:
    """The two-mode bound at SNU ratios n0 around 1 against a 40-digit
    evaluation of its closed-form spectra (oracles.holevo_two_mode_exact)."""

    def test_within_1e_12_of_the_exact_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            fields = dict(
                v=rng.uniform(1.5, 60.0),
                t=transmittance_from_km(rng.uniform(0.0, 200.0)),
                eps_c=rng.uniform(0.0, 0.1),
                eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(0.0, 0.3),
                v_rin=0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.05),
            )
            n0 = np.append(rng.uniform(0.8, 1.2, 5), 1.0)
            chi = holevo_bound(SystemParams(beta=0.956, **fields), TWO, n0)
            for got, ratio in zip(chi.tolist(), n0.tolist()):
                exact = holevo_two_mode_exact(n0=ratio, **fields)
                assert abs(mpmath.mpf(got) - exact) <= 1e-12, (fields, ratio)


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
        # In a block the closed form is finite on the other rows, and its
        # error names the one row where it is not.
        with pytest.raises(NumericalError, match=r"^non-finite key rate at n0 = 1\.0$") as err:
            key_rate(params(t=np.array([0.5, 0.1, 1e-310, 0.01])), model)
        assert err.value.row == 2

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
                # chi is the difference of two entropies, each computed to
                # about 1e-14 of itself, so it is held to their sum.
                eve, conditional = entropies_pointwise(model, p, float(x))
                assert abs(got - (eve - conditional)) <= 1e-13 * (eve + conditional)
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
    def route_t(model, p, row):
        """The t that the model's builder sees for a row of p: the two-mode
        route builds the conventional channel state at t*eta_d*eta_e."""
        t = np.atleast_1d(p.t)[row]
        return t * p.eta_d * p.eta_e if model is TWO else t

    @staticmethod
    def damage_at(monkeypatch, builder, n0, t, damage):
        """Patch keyrate.<builder>(params, n0) so that damage(stack, i) hits
        element i of every stack it builds for the row at transmittance t
        at SNU ratio n0, whichever (row, ratio) pairs the call evaluates."""
        original = getattr(keyrate, builder)

        def damaged(p, ratios):
            out = original(p, ratios)
            rows = out.shape[:1]
            hit = (np.broadcast_to(p.t, rows) == t) & (np.broadcast_to(ratios, rows) == n0)
            for i in np.flatnonzero(hit):
                damage(out, i)
            return out

        monkeypatch.setattr(keyrate, builder, damaged)

    @staticmethod
    def lowest_at(monkeypatch, worst):
        """Make the closed form's rate of each row of every key_rate block
        that worst maps to a grid index lowest at that index, so that the
        row's worst ratio is there."""
        closed_form = keyrate.closed_form_rate

        def placed(params, model, fs=None):
            rate, chi = closed_form(params, model, fs)
            for row, k in worst.items():
                rate[row] = 1.0
                rate[row, k] = 0.0
            return rate, chi

        monkeypatch.setattr(keyrate, "closed_form_rate", placed)

    def damaged_ratio(self, monkeypatch, p, model, middle, index, moved):
        """The n0 to damage: the middle row's worst ratio, or with the
        closed form's lowest rate moved there on that row, grid index
        `index`."""
        n0 = self.scan_n0(p, model)
        if not moved:
            return float(np.atleast_1d(key_rate(p, model, self.FS).worst_n0)[middle])
        self.lowest_at(monkeypatch, {middle: index})
        return float(n0[index])

    # (grid index, lowest rate moved): the middle row's worst ratio, and a
    # ratio that is its worst only when the closed form's lowest rate is
    # moved there.
    @pytest.mark.parametrize("index,moved", [(None, False), (7, True)])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("model,builder", [(TWO, "conventional_channel_stack"),
                                               (THREE, "three_mode_stack"),
                                               (CONV, "conventional_channel_stack")])
    def test_nonfinite_stack_element_names_its_n0(self, monkeypatch, model, builder, rows,
                                                  index, moved):
        p, middle = self.block(rows)
        n0 = self.damaged_ratio(monkeypatch, p, model, middle, index, moved)

        def poison(out, i):
            out[i, 2, 2] = np.nan

        self.damage_at(monkeypatch, builder, n0, self.route_t(model, p, middle), poison)
        named = re.escape(repr(n0))
        with pytest.raises(NumericalError, match=f"non-finite .* at n0 = {named}$") as err:
            key_rate(p, model, self.FS)
        assert err.value.row == middle

    @pytest.mark.parametrize("index,moved", [(None, False), (5, True)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_lost_unit_eigenvalue_names_its_n0(self, monkeypatch, rows, index, moved):
        p, middle = self.block(rows)
        n0 = self.damaged_ratio(monkeypatch, p, THREE, middle, index, moved)

        def inflate(out, i):
            out[i] *= 1.5

        self.damage_at(monkeypatch, "three_mode_stack", n0, self.route_t(THREE, p, middle),
                       inflate)
        named = re.escape(repr(n0))
        with pytest.raises(NumericalError, match=f"unit eigenvalue at n0 = {named}:") as err:
            key_rate(p, THREE, self.FS)
        assert err.value.row == middle

    def test_damage_at_a_ratio_that_is_not_the_worst_is_not_evaluated(self, monkeypatch):
        # Only each row's worst ratio is built, so a fault at any other
        # ratio raises nothing.
        p, middle = self.block(3)
        n0 = self.scan_n0(p, TWO)
        expect = dense_worst_case(p, TWO, self.FS)
        assert 7 not in [list(n0).index(x) for x in expect.worst_n0]

        def poison(out, i):
            out[i, 2, 2] = np.nan

        self.damage_at(monkeypatch, "conventional_channel_stack", n0[7],
                       self.route_t(TWO, p, middle), poison)
        assert fields_of(key_rate(p, TWO, self.FS)) == fields_of(expect)
        # The same damage raises once the ratio is the row's worst.
        self.lowest_at(monkeypatch, {middle: 7})
        with pytest.raises(NumericalError, match="^non-finite two-mode matrix at n0 = "):
            key_rate(p, TWO, self.FS)

    @pytest.mark.parametrize("model,builder", [(TWO, "conventional_channel_stack"),
                                               (THREE, "three_mode_stack"),
                                               (CONV, "conventional_channel_stack")])
    def test_error_names_the_first_failing_pair_in_row_major_order(self, monkeypatch, model,
                                                                   builder):
        # Row 0's worst ratio is grid index 9 and row 1's index 2, and both
        # fail there. One holevo_bound call takes the rows in order, so the
        # error names row 0 and its ratio. (Taken ratio by ratio, it would
        # name row 1.)
        p, _ = self.block(3)
        n0 = self.scan_n0(p, model)
        self.lowest_at(monkeypatch, {0: 9, 1: 2})

        def poison(out, i):
            out[i, 2, 2] = np.nan

        for row, k in ((0, 9), (1, 2)):
            self.damage_at(monkeypatch, builder, n0[k], self.route_t(model, p, row), poison)
        named = re.escape(repr(float(n0[9])))
        with pytest.raises(NumericalError, match=f"^non-finite .* matrix at n0 = {named}$") as err:
            key_rate(p, model, self.FS)
        assert err.value.row == 0

    def test_n0_must_be_positive_scalar_or_vector(self):
        # A column on a block of rows must hold one ratio per row.
        p, block = params(), params(v=np.array([4.0, 20.0, 40.0]))
        for rows, bad in ((p, 0.0), (p, -1.0), (p, np.array([1.0, -0.5])),
                          (p, np.ones((2, 2))), (block, np.ones(2)), (block, np.ones(4))):
            for model in (TWO, THREE, CONV):
                with pytest.raises(ValueError, match="^n0 must be"):
                    holevo_bound(rows, model, bad)

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_n0_column_takes_one_ratio_per_row(self, model):
        # One ratio for every row, or one per row, each row's as on its own.
        block = params(v=np.array([4.0, 20.0, 40.0]))
        n0 = np.array([1.0, 0.999, 1.001])
        per_row = holevo_bound(block, model, n0)
        assert per_row.shape == (3,)
        same = holevo_bound(block, model, np.ones(1))
        assert same.tolist() == holevo_bound(block, model).tolist()
        for i in range(3):
            row = params(v=float(block.v[i]))
            assert holevo_bound(row, model, n0[i]) == per_row[i]

    @pytest.mark.parametrize("evaluate", [holevo_bound, key_rate])
    def test_model_must_be_a_calibration_model(self, evaluate):
        # A model's value string is not the model: no branch may take it.
        with pytest.raises(ValueError, match="^unknown calibration model 'three_mode'$"):
            evaluate(params(), "three_mode")


class TestCandidateWorstCase:
    """key_rate evaluates chi_BE only at each row's worst SNU ratio by the
    closed form, the first of its lowest rates over the grid; the full
    21-point scan of tests/oracles.py is its oracle, field for field
    wherever the two routes rank the grid alike, and within the two
    ratios' margins where they do not."""

    FS = FiniteSizeParams(block_length=10 ** 10, key_fraction=0.5, eps_pe=1e-10,
                          eps_pa=1e-10, eps_smooth=1e-10, calib_samples_m=10 ** 6)

    # Conventional, m = 2564: chi_BE peaks inside the interval above both
    # endpoints (2.1236 and 1.9740).
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

    @staticmethod
    def spy(monkeypatch):
        """Record, per holevo_bound call, the (v, n0) of each row it
        evaluates, in order."""
        calls = []
        original = keyrate.holevo_bound

        def recorded(p, model, n0=1.0):
            rows = np.broadcast(p.v, p.t, p.eps_c, n0).shape
            calls.append(list(zip(np.broadcast_to(p.v, rows).ravel().tolist(),
                                  np.broadcast_to(n0, rows).ravel().tolist())))
            return original(p, model, n0)

        monkeypatch.setattr(keyrate, "holevo_bound", recorded)
        return calls

    @staticmethod
    def readme_blocks():
        """The README finite-size grid, 0-200 km at a 5 km step, as the
        (model, V) blocks that sweep evaluates: distances by delta 0, 0.001
        and 0.003."""
        km = np.arange(0.0, 201.0, 5.0)
        t = np.repeat([transmittance_from_km(x) for x in km], 3)
        delta = np.tile([0.0, 0.001, 0.003], km.size)
        for model in (TWO, THREE, CONV):
            for v in (4.0, 20.0, 40.0):
                yield model, params(v=np.full(t.size, v), t=t), delta

    @pytest.mark.parametrize("m", [5 * 10 ** 9, 10 ** 5, 10 ** 4, 3000, 2564, 300])
    def test_readme_grid_equals_dense_scan(self, m):
        # From the goldens' m, where every worst n0 is an interval end, to
        # the m of PEAKED and below, where some lie inside the interval.
        fs = dataclasses.replace(self.FS, calib_samples_m=m)
        for model, p, delta in self.readme_blocks():
            assert (fields_of(key_rate(p, model, fs, delta))
                    == fields_of(dense_worst_case(p, model, fs, delta))), (model, p.v[0])

    @pytest.mark.parametrize("m", [5 * 10 ** 9, 10 ** 5])
    def test_readme_grid_takes_one_ratio_per_row(self, monkeypatch, m):
        fs = dataclasses.replace(self.FS, calib_samples_m=m)
        calls = self.spy(monkeypatch)
        for model, p, delta in self.readme_blocks():
            calls.clear()
            key_rate(p, model, fs, delta)
            assert [len(pairs) for pairs in calls] == [p.v.size], (model, p.v[0])

    @pytest.mark.parametrize("m", [None, 5 * 10 ** 9, 10 ** 4])
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_one_holevo_call_per_key_rate_call(self, monkeypatch, model, m):
        # Finite-size, one call evaluates each row at one ratio. At m = 1e4
        # the closed form is also made flat on the first row of each block,
        # a tie at every ratio of the grid. Asymptotically key_rate makes no
        # call. Either way it makes one closed-form call.
        fs = None if m is None else dataclasses.replace(self.FS, calib_samples_m=m)
        if m == 10 ** 4:
            flat(monkeypatch, 0)
        closed_forms, closed_form = [], keyrate.closed_form_rate
        monkeypatch.setattr(keyrate, "closed_form_rate",
                            lambda *args: closed_forms.append(args) or closed_form(*args))
        calls = self.spy(monkeypatch)
        for block_model, p, delta in self.readme_blocks():
            if block_model is not model:
                continue
            calls.clear()
            closed_forms.clear()
            key_rate(p, model, fs, delta)
            assert len(closed_forms) == 1
            if m is None:
                assert calls == []
                continue
            assert len(calls) == 1
            assert len(calls[0]) == p.v.size

    @pytest.mark.parametrize("fs", [None, FS])
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_non_finite_closed_form_is_refused_by_name(self, monkeypatch, model, fs):
        # A closed-form rate that is not finite at any ratio, the worst or
        # not, is an error naming that ratio and carrying its row; no
        # eigensolve runs before it.
        closed_form = keyrate.closed_form_rate
        k = 0 if fs is None else N0 - 1

        def undefined(params, model, fs=None):
            rate, chi = closed_form(params, model, fs)
            rate[4, k] = np.nan
            return rate, chi

        monkeypatch.setattr(keyrate, "closed_form_rate", undefined)
        calls = self.spy(monkeypatch)
        _, p, delta = next(b for b in self.readme_blocks() if b[0] is model)
        named = re.escape(repr(float(keyrate.closed_form_model(p, model, fs)[3 + k])))
        with pytest.raises(NumericalError, match=f"^non-finite key rate at n0 = {named}$") as err:
            key_rate(p, model, fs, delta)
        assert err.value.row == 4
        assert calls == []

    def test_interior_peak_is_the_one_ratio_evaluated(self, monkeypatch):
        calls = self.spy(monkeypatch)
        res = key_rate(self.PEAKED, CONV, self.PEAKED_FS)
        assert res.chi_be == 2.414488341933574
        assert res.worst_n0 == 1.1451680844332404
        assert res == dense_worst_case(self.PEAKED, CONV, self.PEAKED_FS)
        calib = snu_interval(self.PEAKED, CONV, self.PEAKED_FS)
        grid = np.linspace(calib.lower / calib.point, calib.upper / calib.point, N0)
        evaluated = [n0 for pairs in calls for _, n0 in pairs]
        assert res.worst_n0 not in (grid[0], grid[-1])
        assert evaluated == [res.worst_n0]

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

    def test_a_peaked_row_in_a_block_takes_one_ratio_as_the_others_do(self, monkeypatch):
        # The peak lies in unphysical states, where the closed form takes
        # the moduli the eigensolver reports, so it finds the peak itself.
        calls = self.spy(monkeypatch)
        block = dataclasses.replace(self.PEAKED, v=np.array([4.0, 39.23, 20.0]))
        res = key_rate(block, CONV, self.PEAKED_FS)
        assert res.chi_be[1] == 2.414488341933574
        evaluated = collections.Counter(v for pairs in calls for v, _ in pairs)
        assert evaluated == {4.0: 1, 39.23: 1, 20.0: 1}
        for i, v in enumerate(block.v):
            row = key_rate(dataclasses.replace(self.PEAKED, v=float(v)), CONV, self.PEAKED_FS)
            assert (res.chi_be[i], res.worst_n0[i]) == (row.chi_be, row.worst_n0)

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_narrow_interval_takes_one_ratio(self, monkeypatch, model):
        calls = self.spy(monkeypatch)
        key_rate(params(), model, self.FS)
        assert len(calls) == 1 and len(calls[0]) == 1

    @pytest.mark.parametrize("m", [5 * 10 ** 9, 10 ** 4, 300])
    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_flat_closed_form_evaluates_the_first_ratio(self, monkeypatch, model, m):
        # A tie at every ratio: the first of equal minima is the worst
        # ratio, as a strict-< scan would take it, and the eigensolver runs
        # there alone, on every row of the block in one call.
        fs = dataclasses.replace(self.FS, calib_samples_m=m)
        _, p, delta = next(b for b in self.readme_blocks() if b[0] is model)
        flat(monkeypatch, slice(None))
        calls = self.spy(monkeypatch)
        res = key_rate(p, model, fs, delta)
        n0 = keyrate.closed_form_model(p, model, fs)[3:]
        assert calls == [[(v, n0[0]) for v in p.v.tolist()]]
        assert res.worst_n0.tolist() == [n0[0]] * p.v.size
        eff = apply_miscalibration(p, delta)
        chi = holevo_bound(eff, model, n0[0])
        assert res.chi_be.tolist() == chi.tolist()
        assert res.rate_bits_per_pulse.tolist() == (fs.key_fraction * (
            eff.beta * mutual_information(eff) - chi - finite_size_penalty(fs))).tolist()

    @pytest.mark.parametrize("model", [TWO, THREE, CONV])
    def test_rate_lies_within_two_margins_of_the_dense_scan(self, model):
        # Where the closed form ranks ratio k of a row no higher than the
        # dense scan's worst ratio j, as its worst ratio or in a tie, the
        # eigensolver's rate at k lies at most the margin above the closed
        # form's there, which lies no higher than the closed form's at j,
        # which lies at most the margin above the eigensolver's at j. So
        # key_rate's rate lies within the sum of the two ratios' margins of
        # dense_worst_case, and never below it, whichever of tied ratios
        # the closed form takes. Seeded rows of 0-200 km, m from 1e3.
        rng = np.random.default_rng([36, list(CalibrationModel).index(model)])
        for _ in range(10):
            n = 20
            p = SystemParams(
                v=rng.uniform(1.5, 60.0, n), t=10.0 ** (-0.02 * rng.uniform(0.0, 200.0, n)),
                eps_c=rng.uniform(0.0, 0.1, n), eta_d=rng.uniform(0.3, 0.99),
                v_ele=rng.uniform(1e-3, 0.3), beta=rng.uniform(0.85, 1.0))
            fs = dataclasses.replace(self.FS, calib_samples_m=int(10 ** rng.uniform(3, 10)))
            cf = keyrate.closed_form_model(p, model, fs)
            rate, chi = keyrate.closed_form_rate(p, cf, fs)
            margin = RATE_MARGIN_REL * np.maximum(np.abs(rate), np.abs(chi)) + RATE_MARGIN_ABS
            res, dense = key_rate(p, model, fs), dense_worst_case(p, model, fs)
            n0 = cf[3:].tolist()
            k = [n0.index(x) for x in res.worst_n0]
            j = [n0.index(x) for x in dense.worst_n0]
            rows = np.arange(n)
            assert np.all(rate[rows, k] <= rate[rows, j])
            gap = res.rate_bits_per_pulse - dense.rate_bits_per_pulse
            assert np.all(gap >= 0.0)
            assert np.all(gap <= margin[rows, k] + margin[rows, j]), (p, fs)
