import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdecay import stats
from qdecay.core import Model
from qdecay.models import decay_time_cdf
from qdecay.stats import ecdf, histogram, ks_distance, mean_var_se, power_spectrum


class TestKsDistance:
    def test_samples_at_cdf_quantiles(self):
        # samples placed at the quantiles i/(n+1) keep both gaps below 1/(n+1) + 1/n
        n = 100
        f = lambda x: np.clip(x, 0.0, 1.0)
        samples = (np.arange(1, n + 1)) / (n + 1)
        assert ks_distance(samples, f) <= 1.0 / (n + 1) + 1.0 / n

    def test_single_sample_at_median(self):
        assert ks_distance([0.0], lambda x: np.full_like(np.asarray(x, float), 0.5)) == 0.5

    def test_degenerate_step_cdf(self):
        # cdf is 0 left of every sample: the upper gap reaches (n)/n = 1
        f = lambda x: np.zeros_like(np.asarray(x, float))
        assert ks_distance([1.0, 2.0, 3.0], f) == 1.0

    def test_own_ecdf_resolution_floor(self):
        # against its own ECDF the sample-point formula floors at exactly 1/n,
        # the lower one-sided gap at each sample point
        xs = np.sort(np.random.default_rng(0).random(64))

        def own(x):
            return np.searchsorted(xs, np.asarray(x), side="right") / xs.size

        assert ks_distance(xs, own) == pytest.approx(1.0 / xs.size, abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty samples"):
            ks_distance([], lambda x: x)

    def test_exponential_samples_small_distance(self):
        rng = np.random.default_rng(7)
        xs = rng.exponential(1.0, 20000)
        d = ks_distance(xs, lambda t: -np.expm1(-t))
        assert d < 2.5 * 1.36 / math.sqrt(xs.size)

    def test_ecdf_wrapper(self):
        res = ecdf([3.0, 1.0, 2.0], cdf=lambda x: np.clip(np.asarray(x, float) / 4.0, 0, 1))
        assert list(res.sorted_samples) == [1.0, 2.0, 3.0]
        assert res.ks_distance is not None


class TestHistogram:
    def test_single_sample_single_bin(self):
        h = histogram([0.5], 0.0, 1.0, 1)
        assert list(h.counts) == [1]
        assert h.underflow == 0 and h.overflow == 0

    def test_two_bins(self):
        h = histogram([0.1, 0.9], 0.0, 1.0, 2)
        assert list(h.counts) == [1, 1]

    def test_uniform_counts_within_5_sigma(self):
        rng = np.random.default_rng(11)
        n = 1_000_000
        h = histogram(rng.random(n), 0.0, 1.0, 10)
        expected = n / 10
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert np.all(np.abs(h.counts - expected) < 5 * sigma)
        assert h.total == n

    def test_out_of_range_goes_to_sentinels(self):
        h = histogram([-1.0, 0.5, 2.0], 0.0, 1.0, 4)
        assert h.underflow == 1 and h.overflow == 1
        assert h.total == 3

    def test_bad_range(self):
        with pytest.raises(ValueError, match="bad range"):
            histogram([0.5], 1.0, 0.0, 4)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=0, max_size=200),
        st.integers(min_value=1, max_value=20),
    )
    def test_total_is_exact(self, xs, n_bins):
        h = histogram(xs, -2.0, 2.0, n_bins)
        assert h.total == len(xs)


class TestMeanVarSe:
    def test_constant(self):
        assert mean_var_se([1.0, 1.0, 1.0]) == (1.0, 0.0, 0.0)

    def test_two_points(self):
        mean, var, se = mean_var_se([0.0, 1.0])
        assert (mean, var, se) == (0.5, 0.5, 0.5)

    def test_exponential_law_of_large_numbers(self):
        rng = np.random.default_rng(3)
        mean, _, _ = mean_var_se(rng.exponential(1.0, 1_000_000))
        assert abs(mean - 1.0) < 3e-3

    def test_matches_naive_two_pass_across_magnitudes(self):
        rng = np.random.default_rng(9)
        xs = rng.random(1_000_000) * np.logspace(-6, 6, 1_000_000)
        mean, var, se = mean_var_se(xs)
        naive_mean = xs.sum() / xs.size
        naive_var = ((xs - naive_mean) ** 2).sum() / (xs.size - 1)
        assert mean == pytest.approx(naive_mean, rel=1e-10)
        assert var == pytest.approx(naive_var, rel=1e-10)

    def test_too_few(self):
        with pytest.raises(ValueError, match="too few"):
            mean_var_se([1.0])


class TestPowerSpectrum:
    def test_delta_at_lag_zero_is_flat(self):
        res = power_spectrum([1.0, 0.0, 0.0, 0.0], dt=0.5)
        assert np.allclose(res.power, res.power[0])
        assert res.power[0] == pytest.approx(0.5)

    def test_cosine_has_dominant_bin(self):
        k = np.arange(33)
        zeta = np.cos(2 * np.pi * k / 8.0)
        res = power_spectrum(zeta, dt=1.0)
        # DFT oracle: the periodic component lives at frequency 1/8
        oracle_peak = 1.0 / 8.0
        peak = res.frequencies[int(np.argmax(res.power))]
        assert peak == pytest.approx(oracle_peak, abs=res.frequencies[1])

    def test_zero_series(self):
        res = power_spectrum(np.zeros(16), dt=0.1)
        assert np.all(res.power == 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="series too short"):
            power_spectrum([1.0], dt=0.1)

    @given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=64))
    def test_power_nonnegative(self, zeta):
        res = power_spectrum(zeta, dt=0.25)
        assert np.all(res.power >= 0.0)
        assert np.all(np.isfinite(res.power))


@pytest.mark.parametrize("size", [7, stats._KS_SLICE])
def test_ks_distance_over_slices_is_the_unsliced_formula(monkeypatch, size):
    # the qmop step law that analyze checks, over a sample spanning several slices
    monkeypatch.setattr(stats, "_KS_SLICE", size)
    law = decay_time_cdf(Model.QMOP, 1.0, 0.1)
    samples = np.random.default_rng(4).exponential(size=3 * stats._KS_SLICE + 5)
    xs = np.sort(samples)
    f, i, n = law(xs) / law(np.array([20.0]))[0], np.arange(xs.size), xs.size
    want = float(max(np.max(f - i / n), np.max((i + 1) / n - f)))
    assert ks_distance(samples, lambda t: law(t) / law(np.array([20.0]))[0]) == want
