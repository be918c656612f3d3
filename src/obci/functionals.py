"""Point estimators of statistical functionals over windows of observations.

Every estimator maps an ordered window of reals to one real number and is
deterministic in its input.  Windows shorter than ``min_window`` are rejected,
never silently extrapolated; windows on which the functional is undefined
raise :class:`~obci.errors.DegenerateEstimateError`.

The plug-in order-statistic estimators (``quantile:G``, ``cvar:G``,
``cvartail:G``) read the ``ceil(gamma * w)``-th order statistic ``q`` of a
window of ``w`` values.  The CVaR forms take as the tail every value at or
above ``q``, ties with ``q`` included, in ``estimate``, in
``sliding_estimates`` and ``prefix_estimates``.  Their sliding kernels
copy and partition a few windows at a time, so their memory does not grow
with the number of windows.  Their ``prefix_estimates`` (the OB-III
prefixes of one batch of ``m`` values) keep a running order statistic in two
heaps over one pass, O(m log m) time and O(m) memory per batch instead of
one partition per prefix; the tail of prefix ``j`` is the upper heap plus the
values in the lower heap that tie with ``q_j``, the same rule.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateEstimateError

# Bytes of window rows that a plug-in sliding kernel copies and partitions at once.
_CHUNK_BYTES = 1 << 20

__all__ = [
    "FunctionalEstimator",
    "mean_estimator",
    "quantile_estimator",
    "cvar_estimator",
    "cvar_tail_mean_estimator",
    "ar1_estimator",
    "nhpp_rate_estimator",
    "cvar_min_window",
    "parse_estimator_tag",
]


class FunctionalEstimator:
    """Interface contract for window estimators.

    Subclasses set ``tag`` and ``min_window`` and implement :meth:`estimate`.
    ``sliding_estimates`` and ``prefix_estimates`` loop over :meth:`estimate`;
    subclasses may replace them with faster kernels.  Both mark
    degenerate windows with NaN instead of raising, so bulk callers can do
    their own NA accounting.
    """

    tag: str = ""
    min_window: int = 1

    def estimate(self, window: np.ndarray) -> float:
        raise NotImplementedError

    def check_window(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 1 or window.size < self.min_window:
            raise DegenerateEstimateError(
                f"{self.tag}: window of size {window.size} below min_window={self.min_window}"
            )
        return window

    def sliding_estimates(self, x: np.ndarray, starts: np.ndarray, m: int) -> np.ndarray:
        """Estimates over the windows ``x[s : s + m]``, NaN where degenerate."""
        x = np.asarray(x, dtype=float)
        out = np.full(len(starts), np.nan)
        for i, s in enumerate(starts):
            try:
                out[i] = self.estimate(x[s : s + m])
            except DegenerateEstimateError:
                pass
        return out

    def prefix_estimates(self, window: np.ndarray) -> np.ndarray:
        """Estimates over the first ``j`` observations, ``j = 1..len(window)``.

        Entries with ``j < min_window`` (and degenerate prefixes) are NaN;
        the weighted-area estimator treats them as zero contributions.
        """
        window = np.asarray(window, dtype=float)
        out = np.full(window.size, np.nan)
        for j in range(self.min_window, window.size + 1):
            try:
                out[j - 1] = self.estimate(window[:j])
            except DegenerateEstimateError:
                pass
        return out


_Terms = Callable[[np.ndarray], np.ndarray]


def _window_sums(terms: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    c = np.concatenate(([0.0], np.cumsum(terms)))
    return c[ends] - c[starts]


@dataclass(frozen=True, kw_only=True)
class _WindowSum(FunctionalEstimator):
    """``theta = sum(num) / (sum(den) * div)`` over a window, from cumulative sums.

    ``num``, ``den`` and ``support`` map a series to one term per observation,
    or with ``lag = 1`` to one term per adjacent pair, so a window of ``w``
    observations holds ``w - lag`` terms.  ``den=None`` divides by the window length.  The
    estimate is undefined on a window whose ``den`` terms, or whose
    ``support`` terms, do not sum to a positive value.
    """

    tag: str
    min_window: int
    num: _Terms
    den: _Terms | None = None
    div: float = 1.0
    lag: int = 0
    support: _Terms | None = None

    @property
    def window_mean(self) -> bool:
        """Whether theta is a window mean of per-observation terms over a
        constant divisor, defined on every window of length 1 or more."""
        return self.den is None and self.support is None and self.lag == 0 and self.min_window == 1

    def estimate(self, window):
        window = self.check_window(window)
        den = window.size if self.den is None else self.den(window).sum()
        if not den > 0 or (self.support is not None and not self.support(window).any()):
            raise DegenerateEstimateError(f"{self.tag}: zero denominator or empty support")
        return float(self.num(window).sum() / (den * self.div))

    def sliding_estimates(self, x, starts, m):
        x = np.asarray(x, dtype=float)
        ends = starts + (m - self.lag)
        num = _window_sums(self.num(x), starts, ends)
        if self.den is None and self.support is None:
            return num / (m * self.div)
        den = m if self.den is None else _window_sums(self.den(x), starts, ends)
        defined = den > 0
        if self.support is not None:
            defined = defined & (_window_sums(self.support(x), starts, ends) > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = num / (den * self.div)
        return np.where(defined, out, np.nan)


def _identity(x):
    return x


def _counts(x):
    if (x < 0).any():
        raise ValueError("nhpp rate estimator requires nonnegative increment counts")
    return x


def _lag_products(x):
    return x[:-1] * x[1:]


def _lag_squares(x):
    return x[:-1] * x[:-1]


def _exceedances(q, x):
    return x * (x >= q)


def _at_or_above(q, x):
    return x >= q


def _partitioned_windows(x, starts, m, k):
    """Yield ``(rows, block)``: the windows ``x[s : s + m]`` for ``starts[rows]``,
    a few at a time, each row partitioned about its ``k``-th smallest value.

    Partitioning works row by row, so the values do not depend on the chunking.
    """
    view = sliding_window_view(np.asarray(x, dtype=float), m)
    step = max(1, _CHUNK_BYTES // (8 * m))
    for c in range(0, len(starts), step):
        block = view[starts[c : c + step]]
        block.partition(k - 1, axis=1)
        yield slice(c, c + step), block


def _sliding_tails(x, starts, m, k):
    """Per window, the sum and the count of the values at or above its ``k``-th
    smallest value ``q``: the ``m - k + 1`` partitioned top values plus the
    values below them that tie with ``q``."""
    sums = np.empty(len(starts))
    counts = np.empty(len(starts), dtype=np.int64)
    for rows, block in _partitioned_windows(x, starts, m, k):
        q = block[:, k - 1]
        ties = np.zeros(len(block), dtype=np.int64)
        # a lower value can tie with q only in a row whose lower part peaks at q
        tied = np.flatnonzero(block[:, : k - 1].max(axis=1, initial=-np.inf) == q)
        ties[tied] = np.count_nonzero(block[tied, : k - 1] == q[tied, None], axis=1)
        sums[rows] = block[:, k - 1 :].sum(axis=1) + q * ties
        counts[rows] = m - k + 1 + ties
    return sums, counts


def _running_tails(window, gamma):
    """For every prefix ``j = 1..w`` of ``window``: its ``ceil(gamma * j)``-th
    smallest value ``q_j``, and the sum and count of its values ``>= q_j``.

    One pass with two heaps of stable ranks: ``lo`` (a max-heap) holds the
    ``ceil(gamma * j)`` smallest, ``hi`` the rest, with a running sum of the
    values in ``hi``.  The values tied with ``q_j`` in the prefix hold
    consecutive ranks, so the number of them in ``lo`` is ``q_j``'s rank minus
    the first rank of its value, plus one.  O(w log w) time, O(w) memory.
    """
    order = np.argsort(window, kind="stable")
    ranked = window[order]
    ranks = np.empty(window.size, dtype=np.intp)
    ranks[order] = np.arange(window.size)
    j = np.arange(1, window.size + 1)
    k = np.ceil(gamma * j).astype(np.intp)
    grows = np.diff(k, prepend=0).astype(bool).tolist()
    values = ranked.tolist()
    lo, hi = [], []
    hi_sum = 0.0
    q_rank, hi_sums = [], []
    push, pushpop = heapq.heappush, heapq.heappushpop
    for r, grow in zip(ranks.tolist(), grows):
        if grow:
            moved = pushpop(hi, r)
            push(lo, -moved)
            if moved != r:
                hi_sum += values[r] - values[moved]
        else:
            moved = -pushpop(lo, -r)
            push(hi, moved)
            hi_sum += values[moved]
        q_rank.append(-lo[0])
        hi_sums.append(hi_sum)
    q_rank = np.array(q_rank, dtype=np.intp)
    q = ranked[q_rank]
    first = np.searchsorted(ranked, q, side="left")
    ties = q_rank - first + 1
    return q, np.array(hi_sums) + q * ties, j - k + ties


@dataclass(frozen=True)
class _Quantile(FunctionalEstimator):
    """Smallest order statistic whose empirical cdf reaches ``gamma``."""

    gamma: float
    tag: str = field(init=False)
    min_window = 1

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        object.__setattr__(self, "tag", f"quantile:{self.gamma:g}")

    def order_index(self, w: int) -> int:
        return math.ceil(self.gamma * w)

    def estimate(self, window):
        window = self.check_window(window)
        k = self.order_index(window.size)
        return float(np.partition(window, k - 1)[k - 1])

    def sliding_estimates(self, x, starts, m):
        k = self.order_index(m)
        out = np.empty(len(starts))
        for rows, block in _partitioned_windows(x, starts, m, k):
            out[rows] = block[:, k - 1]
        return out

    def prefix_estimates(self, window):
        q, _, _ = _running_tails(np.asarray(window, dtype=float), self.gamma)
        return q


def cvar_min_window(gamma: float) -> int:
    """Smallest window length with ``ceil(gamma * w) < w`` (an exceedance is possible)."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    w = 1
    while math.ceil(gamma * w) >= w:
        w += 1
    return w


@dataclass(frozen=True)
class _CVaRSum(FunctionalEstimator):
    """Normalized tail sum ``(1 / (w (1 - gamma))) * sum of Z 1{Z >= q}``.

    ``q`` is the window's own ``ceil(gamma * w)``-th order statistic; values
    tied with ``q`` are in the tail.
    """

    gamma: float
    tag: str = field(init=False)
    min_window: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "min_window", cvar_min_window(self.gamma))
        object.__setattr__(self, "tag", f"cvar:{self.gamma:g}")

    def estimate(self, window):
        window = self.check_window(window)
        k = math.ceil(self.gamma * window.size)
        q = float(np.partition(window, k - 1)[k - 1])
        return float(window[window >= q].sum() / (window.size * (1.0 - self.gamma)))

    def sliding_estimates(self, x, starts, m):
        sums, _ = _sliding_tails(x, starts, m, math.ceil(self.gamma * m))
        return sums / (m * (1.0 - self.gamma))

    def prefix_estimates(self, window):
        _, sums, _ = _running_tails(np.asarray(window, dtype=float), self.gamma)
        out = sums / (np.arange(1, sums.size + 1) * (1.0 - self.gamma))
        out[: self.min_window - 1] = np.nan
        return out


@dataclass(frozen=True)
class _CVaRTailMean(FunctionalEstimator):
    """Mean of the window observations at or above the window's own
    ``ceil(gamma * w)``-th order statistic ``q``, ties with ``q`` included:
    the tail-conditional (ratio) form of the CVaR estimator."""

    gamma: float
    tag: str = field(init=False)
    min_window: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "min_window", cvar_min_window(self.gamma))
        object.__setattr__(self, "tag", f"cvartail:{self.gamma:g}")

    def estimate(self, window):
        window = self.check_window(window)
        k = math.ceil(self.gamma * window.size)
        part = np.partition(window, k - 1)
        q = part[k - 1]
        ties = np.count_nonzero(part[: k - 1] == q)
        return float((part[k - 1 :].sum() + q * ties) / (window.size - k + 1 + ties))

    def sliding_estimates(self, x, starts, m):
        sums, counts = _sliding_tails(x, starts, m, math.ceil(self.gamma * m))
        return sums / counts

    def prefix_estimates(self, window):
        _, sums, counts = _running_tails(np.asarray(window, dtype=float), self.gamma)
        out = sums / counts
        out[: self.min_window - 1] = np.nan
        return out


def mean_estimator() -> FunctionalEstimator:
    """Window average."""
    return _WindowSum(tag="mean", min_window=1, num=_identity)


def quantile_estimator(gamma: float) -> FunctionalEstimator:
    """Smallest order statistic with empirical cdf >= gamma."""
    return _Quantile(gamma)


def cvar_estimator(gamma: float, q: float | None = None) -> FunctionalEstimator:
    """Normalized CVaR tail sum; plug-in quantile unless ``q`` is given.

    With a known ``q``, a window with no observation at or above it is degenerate.
    """
    if q is None:
        return _CVaRSum(gamma)
    return _WindowSum(
        tag=f"cvar:{gamma:g}:{q:g}", min_window=cvar_min_window(gamma),
        num=partial(_exceedances, q), div=1.0 - gamma, support=partial(_at_or_above, q),
    )


def cvar_tail_mean_estimator(gamma: float, q: float | None = None) -> FunctionalEstimator:
    """Tail-conditional mean above the (known or plug-in) quantile.

    The known-``q`` form is the one the cvar coverage studies use; it is
    degenerate on a window with no observation at or above ``q``.
    """
    if q is None:
        return _CVaRTailMean(gamma)
    return _WindowSum(
        tag=f"cvartail:{gamma:g}:{q:g}", min_window=cvar_min_window(gamma),
        num=partial(_exceedances, q), den=partial(_at_or_above, q),
    )


def ar1_estimator() -> FunctionalEstimator:
    """Least-squares lag-one coefficient with the intercept fixed at zero."""
    return _WindowSum(tag="ar1", min_window=2, num=_lag_products, den=_lag_squares, lag=1)


def nhpp_rate_estimator(delta: float) -> FunctionalEstimator:
    """Window mean of per-replication increment counts, divided by delta."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return _WindowSum(tag=f"nhpp:{delta:g}", min_window=1, num=_counts, div=delta)


def parse_estimator_tag(tag: str) -> FunctionalEstimator:
    """Build an estimator from its CLI tag.

    Accepted forms: ``mean``, ``quantile:G``, ``cvar:G[:Q]``,
    ``cvartail:G[:Q]``, ``ar1``, ``nhpp:DELTA``.
    """
    parts = tag.split(":")
    kind = parts[0]
    try:
        if kind == "mean" and len(parts) == 1:
            return mean_estimator()
        if kind == "ar1" and len(parts) == 1:
            return ar1_estimator()
        if kind == "quantile" and len(parts) == 2:
            return quantile_estimator(float(parts[1]))
        if kind == "cvar" and len(parts) in (2, 3):
            q = float(parts[2]) if len(parts) == 3 else None
            return cvar_estimator(float(parts[1]), q)
        if kind == "cvartail" and len(parts) in (2, 3):
            q = float(parts[2]) if len(parts) == 3 else None
            return cvar_tail_mean_estimator(float(parts[1]), q)
        if kind == "nhpp" and len(parts) == 2:
            return nhpp_rate_estimator(float(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad estimator tag {tag!r}: {exc}") from exc
    raise ValueError(f"unknown estimator tag {tag!r}")
