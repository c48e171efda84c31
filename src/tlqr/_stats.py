"""Small statistics helpers used by the verification suites."""
from __future__ import annotations

import numpy as np

# Standard normal 97.5% quantile, for 95% two-sided intervals.
Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%, two-sided) for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (p + Z95 * Z95 / (2 * trials)) / denom
    half = Z95 * np.sqrt(p * (1 - p) / trials + Z95 * Z95 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def skewness_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Moment-based sample skewness g1 = m3 / m2^(3/2) and excess kurtosis g2 = m4 / m2^2 - 3.

    Both are 0.0 for constant data (m2 = 0). One scratch array holds each
    power d^2, d^3 and d^4 in turn, with the deviation d = x - mean
    recomputed into it before each power, so it rounds as one centred copy
    would; ``x`` is not modified.
    """
    x = np.asarray(x, dtype=float)
    mean = x.mean()
    t = np.subtract(x, mean)
    m2 = np.mean(np.multiply(t, t, out=t))
    if m2 == 0.0:
        return 0.0, 0.0
    m3 = np.mean(np.power(np.subtract(x, mean, out=t), 3, out=t))
    m4 = np.mean(np.power(np.subtract(x, mean, out=t), 4, out=t))
    return float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared).

    r_squared is 1.0 for an exact fit of constant data (zero total variance).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2
