"""Ensemble statistics: ECDF/KS distance, histograms, moments, spectra.

KS distances are used as plain distances against fixed thresholds derived
from the 1.36/sqrt(n) asymptotic (with headroom), not as hypothesis tests.
The spectrum goes through the autocorrelation (Wiener-Khinchin route) with a
Bartlett lag window, which keeps the estimate nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class EcdfResult:
    sorted_samples: np.ndarray
    ks_distance: Optional[float] = None


@dataclass(frozen=True)
class HistogramResult:
    """Bin counts plus explicit under/overflow so no sample is dropped silently."""

    counts: np.ndarray
    edges: np.ndarray
    underflow: int
    overflow: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0


@dataclass(frozen=True)
class SpectrumResult:
    frequencies: np.ndarray
    power: np.ndarray


def _eval_cdf(cdf: Callable, xs: np.ndarray) -> np.ndarray:
    out = np.asarray(cdf(xs), dtype=float)
    if out.shape != xs.shape:
        out = np.array([float(cdf(x)) for x in xs])
    return out


# Sorted samples per evaluation of the cdf in ``ks_distance``: bounds its temporaries.
_KS_SLICE = 8192


def ks_distance(samples: Sequence[float], cdf: Callable) -> float:
    """Sup distance between the sample ECDF and ``cdf`` at the sample points.

    Both one-sided gaps are taken: F(x_i) - i/n and (i+1)/n - F(x_i) for the
    sorted samples.  Note this floors at 1/n when ``cdf`` is itself the
    sample's own ECDF, the resolution limit of the sample-point evaluation.
    ``cdf`` is evaluated over slices of ``_KS_SLICE`` sorted samples, and
    each gap's maximum taken over the slices' maxima, which gives the same
    double as over the whole sample.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("empty samples: KS distance needs at least one sample")
    below, above = [], []
    for lo in range(0, n, _KS_SLICE):
        f = _eval_cdf(cdf, xs[lo : lo + _KS_SLICE])
        i = np.arange(lo, lo + f.size)
        below.append(np.max(f - i / n))
        above.append(np.max((i + 1) / n - f))
    return float(max(np.max(below), np.max(above)))


def ecdf(samples: Sequence[float], cdf: Optional[Callable] = None) -> EcdfResult:
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("empty samples")
    d = None if cdf is None else ks_distance(xs, cdf)
    return EcdfResult(sorted_samples=xs, ks_distance=d)


def histogram(samples: Sequence[float], lo: float, hi: float, n_bins: int) -> HistogramResult:
    """Uniform-bin counts over [lo, hi]; out-of-range samples go to the sentinels."""
    if n_bins < 1:
        raise ValueError(f"bad range: n_bins must be >= 1, got {n_bins}")
    if not lo < hi:
        raise ValueError(f"bad range: need lo < hi, got [{lo}, {hi}]")
    xs = np.asarray(samples, dtype=float)
    counts, edges = np.histogram(xs, bins=n_bins, range=(lo, hi))
    underflow = int((xs < lo).sum())
    overflow = int((xs > hi).sum())
    return HistogramResult(counts.astype(np.int64), edges, underflow, overflow)


def mean_var_se(samples: Sequence[float]) -> Tuple[float, float, float]:
    """Mean, unbiased variance and standard error of the mean (two-pass)."""
    xs = np.asarray(samples, dtype=float)
    n = xs.size
    if n < 2:
        raise ValueError(f"too few samples: need >= 2, got {n}")
    mean = float(xs.mean())
    var = float(np.sum((xs - mean) ** 2) / (n - 1))
    return mean, var, math.sqrt(var / n)


def power_spectrum(zeta: Sequence[float], dt: float) -> SpectrumResult:
    """Cosine transform of the symmetric autocorrelation, Bartlett-windowed.

    The window tapers lags linearly to zero, which keeps the spectrum of a
    nonnegative-definite correlation sequence nonnegative.  The homodyne
    autocorrelations divide lag ``k`` by ``n - k``, which is not
    nonnegative-definite, so the power can come out negative by more than
    rounding (down to -0.053 on a two-trajectory white-noise run, lags up to
    400 of 500 steps); those bins are clipped at zero.
    """
    z = np.asarray(zeta, dtype=float)
    if z.size < 2:
        raise ValueError(f"series too short: need >= 2 points, got {z.size}")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    k_max = z.size - 1
    lags = np.arange(z.size)
    w = 1.0 - lags / (k_max + 1.0)
    freqs = np.arange(k_max + 1) / (2.0 * k_max * dt)
    phase = 2.0 * math.pi * np.outer(freqs, lags * dt)
    power = dt * (w[0] * z[0] + 2.0 * (np.cos(phase[:, 1:]) * (w[1:] * z[1:])).sum(axis=1))
    return SpectrumResult(frequencies=freqs, power=np.maximum(power, 0.0))
