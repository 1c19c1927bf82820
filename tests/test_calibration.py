"""Tests for the calibration simulator, estimators and confidence bounds."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfc

from cvqkd_calib import (
    CalibrationMethod,
    NoiseGroundTruth,
    confidence_interval_ote,
    confidence_interval_tte,
    deviation_curve,
    estimate_variance,
    sample_homodyne,
    z_quantile,
)

# Measured in a deployed detector: total LO-on variance and its
# electronic-noise floor, used throughout as a realistic ground truth.
TRUTH = NoiseGroundTruth(v_tot=2.3768, v_ele=0.421)
SEED = 1234


def z_bisection_oracle(eps: float, tol: float = 1e-10) -> float:
    """Invert erfc(z / sqrt 2) = eps by bisection; independent of erfcinv."""
    lo, hi = 0.0, 60.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if erfc(mid / math.sqrt(2.0)) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGroundTruth:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            NoiseGroundTruth(v_tot=0.0, v_ele=0.0)
        with pytest.raises(ValueError, match="v_ele"):
            NoiseGroundTruth(v_tot=1.0, v_ele=1.5)


class TestSampleHomodyne:
    def test_deterministic_given_seed(self):
        a = sample_homodyne(TRUTH, 1000, lo_on=True, seed=SEED)
        b = sample_homodyne(TRUTH, 1000, lo_on=True, seed=SEED)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(sample_homodyne(TRUTH, 100, True, SEED),
                                  sample_homodyne(TRUTH, 100, True, SEED + 1))

    def test_lo_switch_uses_independent_stream(self):
        on = sample_homodyne(TRUTH, 100, lo_on=True, seed=SEED)
        off = sample_homodyne(TRUTH, 100, lo_on=False, seed=SEED)
        assert not np.allclose(on / math.sqrt(TRUTH.v_tot),
                               off / math.sqrt(TRUTH.v_ele))

    def test_sample_variance_within_three_standard_errors(self):
        m = 10 ** 6
        draws = sample_homodyne(TRUTH, m, lo_on=True, seed=SEED)
        est = estimate_variance(draws)
        se = math.sqrt(2.0) * TRUTH.v_tot / math.sqrt(m)
        assert abs(est - TRUTH.v_tot) < 3 * se

    def test_lo_off_zero_noise_is_silent(self):
        silent = NoiseGroundTruth(v_tot=1.0, v_ele=0.0)
        np.testing.assert_array_equal(sample_homodyne(silent, 10, lo_on=False, seed=3),
                                      np.zeros(10))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_homodyne(TRUTH, 1, lo_on=True, seed=SEED)


class TestEstimateVariance:
    def test_mean_of_squares(self):
        assert estimate_variance([1.0, -1.0]) == 1.0
        assert estimate_variance([0.0, 0.0, 0.0]) == 0.0

    def test_divides_by_m_not_m_minus_one(self):
        # Known-zero-mean estimator, not the centered one.
        assert estimate_variance([2.0, 0.0]) == 2.0

    def test_unbiased_over_replicates(self):
        rng = np.random.default_rng(8)
        reps, m, v = 2000, 400, 1.7
        draws = rng.normal(0.0, math.sqrt(v), size=(reps, m))
        means = np.mean(draws ** 2, axis=1)
        se = math.sqrt(2.0) * v / math.sqrt(m) / math.sqrt(reps)
        assert abs(float(np.mean(means)) - v) < 3 * se

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_variance([1.0])

    def test_scaled_estimates_follow_chi_square(self):
        # m Vhat / V against the chi-square reference with m - 1 degrees
        # of freedom. The estimator divides by m while the reference uses
        # m - 1; the one-degree mismatch keeps this marginal, hence the
        # fixed seed.
        reps, m = 4000, 500
        rng = np.random.default_rng(0)
        draws = rng.normal(0.0, math.sqrt(TRUTH.v_tot), size=(reps, m))
        scaled = m * np.mean(draws ** 2, axis=1) / TRUTH.v_tot
        result = stats.kstest(scaled, "chi2", args=(m - 1,))
        assert result.pvalue > 0.01


class TestZQuantile:
    def test_against_bisection_oracle(self):
        for eps in (1e-10, 1e-5, 0.05, 0.5):
            assert z_quantile(eps) == pytest.approx(z_bisection_oracle(eps), abs=1e-9)

    def test_reference_values(self):
        assert z_quantile(1e-10) == pytest.approx(6.4669, abs=1e-4)
        assert z_quantile(1e-5) == pytest.approx(4.4172, abs=1e-4)

    def test_monotone_decreasing(self):
        eps = [1e-10, 1e-7, 1e-4, 0.01, 0.5]
        zs = [z_quantile(e) for e in eps]
        assert all(b < a for a, b in zip(zs, zs[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                z_quantile(bad)


class TestConfidenceIntervalOte:
    def test_half_width_arithmetic(self):
        est = confidence_interval_ote(2.3768, 10 ** 8, 1e-5)
        expect = z_quantile(1e-5) * 2.3768 * math.sqrt(2.0) / 1e4
        assert expect == pytest.approx(1.485e-3, rel=1e-3)
        assert est.upper - est.point == pytest.approx(expect, rel=1e-12)
        assert est.point - est.lower == pytest.approx(expect, rel=1e-12)
        assert est.method is CalibrationMethod.ONE_TIME
        assert not est.degenerate

    def test_width_scales_as_inverse_sqrt_m(self):
        a = confidence_interval_ote(1.0, 10 ** 6, 1e-5)
        b = confidence_interval_ote(1.0, 2 * 10 ** 6, 1e-5)
        assert (a.upper - a.lower) / (b.upper - b.lower) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_collapses_for_huge_m(self):
        est = confidence_interval_ote(1.0, 10 ** 18, 1e-5)
        assert est.upper - est.lower < 1e-7

    def test_degenerate_small_m_flagged(self):
        est = confidence_interval_ote(1.0, 2, 1e-10)
        assert est.degenerate
        assert est.lower > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            confidence_interval_ote(0.0, 100, 1e-5)
        with pytest.raises(ValueError):
            confidence_interval_ote(1.0, 1, 1e-5)

    def test_coverage_at_five_percent(self):
        # Empirical coverage over 1e4 replicates at m = 1e4 must reach
        # 1 - eps up to three binomial standard deviations.
        eps, m, reps = 0.05, 10 ** 4, 10 ** 4
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(20):
            draws = rng.normal(0.0, math.sqrt(TRUTH.v_tot), size=(reps // 20, m))
            for vhat in np.mean(draws ** 2, axis=1):
                est = confidence_interval_ote(float(vhat), m, eps)
                hits += est.lower <= TRUTH.v_tot <= est.upper
        coverage = hits / reps
        sigma = math.sqrt(eps * (1 - eps) / reps)
        assert coverage >= 1 - eps - 3 * sigma


class TestConfidenceIntervalTte:
    def test_reduces_to_ote_without_electronic_noise(self):
        tte = confidence_interval_tte(2.0, 0.0, 10 ** 6, 10 ** 6, 1e-5)
        ote = confidence_interval_ote(2.0, 10 ** 6, 1e-5)
        assert tte.point == ote.point
        assert tte.lower == pytest.approx(ote.lower, rel=1e-12)
        assert tte.upper == pytest.approx(ote.upper, rel=1e-12)
        assert tte.method is CalibrationMethod.TWO_TIME

    def test_wider_than_ote_at_same_budget(self):
        m = 10 ** 8
        tte = confidence_interval_tte(TRUTH.v_tot, TRUTH.v_ele, m, m, 1e-5)
        ote = confidence_interval_ote(TRUTH.v_tot, m, 1e-5)
        rel_tte = (tte.upper - tte.lower) / tte.point
        rel_ote = (ote.upper - ote.lower) / ote.point
        assert rel_tte > rel_ote

    def test_contains_subtracted_point(self):
        est = confidence_interval_tte(2.3768, 0.421, 10 ** 5, 10 ** 5, 1e-5)
        assert est.lower <= 2.3768 - 0.421 <= est.upper
        assert est.point == pytest.approx(1.9558, rel=1e-12)

    def test_per_step_sample_counts(self):
        wide = confidence_interval_tte(2.0, 0.4, 10 ** 4, 10 ** 8, 1e-5)
        tight = confidence_interval_tte(2.0, 0.4, 10 ** 8, 10 ** 8, 1e-5)
        assert wide.upper - wide.lower > tight.upper - tight.lower

    def test_domain(self):
        with pytest.raises(ValueError, match="exceed"):
            confidence_interval_tte(0.4, 0.5, 100, 100, 1e-5)
        with pytest.raises(ValueError):
            confidence_interval_tte(2.0, -0.1, 100, 100, 1e-5)


class TestDeviationCurve:
    def test_one_time_beats_two_time_everywhere(self):
        rows = deviation_curve(TRUTH, [10 ** k for k in range(5, 11)], 1e-5)
        for row in rows:
            assert row["dev_ote"] < row["dev_tte"]

    def test_vanishes_with_block_length(self):
        rows = deviation_curve(TRUTH, [10 ** 4, 10 ** 8, 10 ** 12], 1e-5)
        assert rows[-1]["dev_ote"] < rows[0]["dev_ote"] * 1e-3
        assert rows[-1]["dev_tte"] < 1e-5

    def test_both_within_one_percent_at_1e8(self):
        (row,) = deviation_curve(TRUTH, [10 ** 8], 1e-5)
        assert abs(row["snu_norm_ote"] - 1.0) < 1e-2
        assert abs(row["snu_norm_tte"] - 1.0) < 1e-2

    def test_normalization_consistency(self):
        rows = deviation_curve(TRUTH, [10 ** 6], 1e-5)
        assert rows[0]["snu_norm_ote"] == pytest.approx(1.0 - rows[0]["dev_ote"])
        assert rows[0]["snu_norm_tte"] == pytest.approx(1.0 - rows[0]["dev_tte"])

    def test_analytic_ratio(self):
        # dev_tte/dev_ote = (v_tot + v_ele) / (v_tot - v_ele), m-independent.
        rows = deviation_curve(TRUTH, [10 ** 5, 10 ** 7], 1e-5)
        expect = (TRUTH.v_tot + TRUTH.v_ele) / (TRUTH.v_tot - TRUTH.v_ele)
        for row in rows:
            assert row["dev_tte"] / row["dev_ote"] == pytest.approx(expect, rel=1e-12)

    def test_deterministic(self):
        a = deviation_curve(TRUTH, [100, 1000], 1e-5)
        b = deviation_curve(TRUTH, [100, 1000], 1e-5)
        assert a == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            deviation_curve(TRUTH, [], 1e-5)
