"""Subsampling baseline confidence intervals from fully overlapping subsamples.

Non-Studentized roots with the canonical sqrt(n) scaling: subsample-level
scale estimators are undefined for several functionals at the recommended
subsample size sqrt(n), so the roots are sqrt(m) * (batch estimate - full
estimate) and the interval inverts their empirical distribution directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cip import IntervalResult, classify_b_inf
from .errors import DegenerateIntervalError
from .functionals import FunctionalEstimator
from .series import TimeSeriesData, make_layout

__all__ = ["SubsamplingDistribution", "subsample_distribution", "subsampling_interval"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubsamplingDistribution:
    """Sorted subsample root values with their scalings, and the full-sample
    estimate ``full`` the roots are centred on."""

    values: np.ndarray
    m: int
    full: float
    tau_full: float
    tau_sub: float
    dropped: int = 0

    def quantile(self, q: float) -> float:
        """Empirical quantile: smallest root with cdf >= q."""
        k = max(1, math.ceil(q * self.values.size))
        return float(self.values[k - 1])


def subsample_distribution(
    data: TimeSeriesData, m: int, estimator: FunctionalEstimator
) -> SubsamplingDistribution:
    """Roots sqrt(m) * (theta_hat_{j,m} - theta_hat_n) over all n - m + 1 subsamples.

    Degenerate subsamples are dropped with a logged count.
    """
    n = data.n
    if not 2 <= m < n:
        raise ValueError(f"subsample size m={m} must satisfy 2 <= m < n={n}")
    x = data.values
    starts = np.arange(n - m + 1)
    full = estimator.estimate(x)
    roots = estimator.sliding_estimates(x, starts, m)
    valid = ~np.isnan(roots)
    dropped = int(starts.size - valid.sum())
    if dropped:
        logger.info("dropped %d degenerate subsamples of %d", dropped, starts.size)
    values = np.sort(math.sqrt(m) * (roots[valid] - full))
    return SubsamplingDistribution(
        values=values, m=m, full=full, tau_full=math.sqrt(n), tau_sub=math.sqrt(m),
        dropped=dropped,
    )


def subsampling_interval(
    data: TimeSeriesData, estimator: FunctionalEstimator, alpha: float
) -> IntervalResult:
    """Two-sided subsampling interval at the recommended size m = round(sqrt(n)).

    Uses the asymmetric quantile inversion: the upper root quantile sets the
    lower endpoint and vice versa.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    n = data.n
    if n < 9:
        raise ValueError("subsampling needs n >= 9 so that m = round(sqrt(n)) >= 3")
    m = int(round(math.sqrt(n)))
    dist = subsample_distribution(data, m, estimator)
    if dist.values.size < 10:
        raise DegenerateIntervalError(
            f"only {dist.values.size} valid subsamples, need at least 10"
        )
    full = dist.full
    c_hi = dist.quantile(1.0 - alpha / 2.0)
    c_lo = dist.quantile(alpha / 2.0)
    lower = full - c_hi / math.sqrt(n)
    upper = full - c_lo / math.sqrt(n)
    layout = make_layout(n, m, 1)
    return IntervalResult(
        method="ss",
        center=full,
        sigma_hat=1.0,
        half_width=(upper - lower) / 2.0,
        lower=lower,
        upper=upper,
        alpha=alpha,
        critical_value_used=c_hi,
        n=n,
        m=m,
        d=1,
        b=layout.b,
        beta=m / n,
        b_inf_class=classify_b_inf(layout),
    )
