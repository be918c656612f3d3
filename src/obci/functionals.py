"""Point estimators of statistical functionals over windows of observations.

Every estimator maps an ordered window of reals to one real number and is
deterministic in its input.  Windows shorter than ``min_window`` are rejected,
never silently extrapolated; windows on which the functional is undefined
raise :class:`~obci.errors.DegenerateEstimateError`.

The plug-in estimators ``quantile:G``, ``cvar:G`` and ``cvartail:G`` are the
three forms of one order-statistic estimator.  Each reads the
``ceil(gamma * w)``-th order statistic ``q`` of a window of ``w`` values and
its tail, every value at or above ``q``, ties with ``q`` included, and maps
that ``(q, tail sum, tail count)`` triple to ``q``, to the normalized sum
``sum / (w (1 - gamma))`` or to the mean ``sum / count``, with one map in
``estimate``, ``sliding_estimates`` and ``prefix_estimates``.

``sliding_estimates`` takes its window starts as a ``range`` of step ``d``
(batch layouts and subsamples are arithmetic progressions), so every kernel
reads its windows through strided slices, with no gather and no index array.
The plug-in sliding kernel is banded: the windows go in blocks of
``B = ceil(sqrt(m / d))`` (1 below ``m = 64 d``) that
share the core ``x[s + e : s + m]``, ``e = (B - 1) d``.  The core is
partitioned once, and each window selects ``q`` from ``2 e + 1`` candidates,
the core's band around rank ``k`` and its own ``e`` edge values, so a window
costs about ``m / B + 2 (B - 1) d`` instead of ``m``: at ``n = 10**5``,
``m = 25000``, ``d = 1`` a quantile takes 0.13 s and a CVaR 0.14 s on a
2-vCPU Xeon guest, against 3.1 s and 3.7 s for one partition per window.
Blocks are copied a few at a time, so memory does not grow with the number
of windows.  The ``prefix_estimates`` (the OB-III
prefixes of one batch of ``m`` values) keep a running order statistic in two
heaps over one pass, O(m log m) time and O(m) memory per batch instead of
one partition per prefix; the tail of prefix ``j`` is the upper heap plus the
values in the lower heap that tie with ``q_j``, the same rule.

The window-sum estimators (mean, NHPP rate, known-``q`` CVaR forms, AR(1))
read each window as the difference of two prefix sums ``[0, cumsum(terms)]``,
as do a window mean's OB-III areas.  A window that reads a non-finite prefix
sum (an overflow, or a non-finite term) takes ``estimate``'s value.  A
long series whose terms are mostly zero builds its prefix sums from the
nonzero terms alone, the same sums bit for bit (see :func:`_prefix_sums`):
one NHPP replication's batch estimates (50,000 counts of mean 6e-4, about
30 nonzero, 37,501 windows of 12,500) take about 0.31 ms against 0.83 ms
with ``concatenate`` and two gathers, and a call on 1000 values with 751
windows 12-28 us against 13-34 us, on a 2-vCPU Xeon guest.
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

# Bytes of block cores (or of window candidates) that the plug-in sliding kernel
# copies and partitions at once.
_CHUNK_BYTES = 1 << 20

# Below this share of nonzero terms, prefix sums of a long series are built
# from the nonzero terms alone.  At 10,000 and 50,000 terms the sparse build
# takes half the dense one's time or less at 1/64 and about as long at 1/8.
_SPARSE_SHARE = 1 / 64
# Shorter series always take the dense sums: at 1% nonzero terms the sparse
# build took 15.8 against 5.6 us at n = 1000, and 23 against 30 us at 8000.
_SPARSE_MIN = 8192

# The smallest positive normal float: a smaller window-sum denominator is degenerate.
_TINY = np.finfo(float).tiny

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

    def sliding_estimates(self, x: np.ndarray, starts: range, m: int) -> np.ndarray:
        """Estimates over the windows ``x[s : s + m]``, ``s`` in a range, NaN where degenerate."""
        x = _windowed(x, starts, m)
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


def _windowed(x, starts, m) -> np.ndarray:
    """``x`` as floats, once ``starts`` is a ``range`` of step >= 1 (else TypeError)
    whose windows ``x[s : s + m]`` lie in ``x`` (else ValueError)."""
    x = np.asarray(x, dtype=float)
    if not isinstance(starts, range) or starts.step < 1:
        raise TypeError(f"window starts must be a range of step 1 or more, not {starts!r}")
    if len(starts) and (starts[0] < 0 or starts[-1] + m > x.size):
        raise ValueError(f"windows of {m} from starts {starts!r} run outside a series of {x.size}")
    return x


def _span(starts: range, shift: int) -> slice:
    """The strided slice of the positions ``s + shift``, ``s`` in ``starts``."""
    first = starts.start + shift
    return slice(first, first + len(starts) * starts.step, starts.step)


def _window_sums(c: np.ndarray, starts: range, w: int) -> np.ndarray:
    """Sums of the ``w`` terms from each start, from prefix sums ``c``."""
    return c[_span(starts, w)] - c[_span(starts, 0)]


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """``[0, cumsum(terms)]`` in floats, the sums behind every window sum.

    From ``_SPARSE_MIN`` terms on, below ``_SPARSE_SHARE`` nonzero terms,
    it is the running sums of the nonzero terms alone, each repeated over the
    run of positions it covers.  Since ``x + 0.0 == x`` bit for bit for every
    ``x`` but ``-0.0``, the two agree bit for bit, except that the sparse sums
    hold ``+0.0`` where the dense ones hold ``-0.0``: over a series whose
    first terms are all ``-0.0``, up to the first other term.
    """
    n = terms.size
    if n >= _SPARSE_MIN:
        nonzero = terms != 0
        if np.count_nonzero(nonzero) < n * _SPARSE_SHARE:
            at = np.flatnonzero(nonzero)
            sums = np.zeros(at.size + 1)
            np.add.accumulate(terms[at], dtype=float, out=sums[1:])
            # sums[i] holds from just past the i-th nonzero term to the next one
            runs = np.empty(at.size + 1, dtype=np.intp)
            runs[:-1] = at
            runs[-1] = n
            runs[1:] -= at
            runs[0] += 1
            return np.repeat(sums, runs)
    c = np.empty(n + 1)
    c[0] = 0.0
    np.add.accumulate(terms, dtype=float, out=c[1:])
    return c


@dataclass(frozen=True, kw_only=True)
class _WindowSum(FunctionalEstimator):
    """``theta = sum(num) / (sum(den) * div)`` over a window, from cumulative sums.

    ``num``, ``den`` and ``support`` map a series to one term per observation,
    or with ``lag = 1`` to one term per adjacent pair, so a window of ``w``
    observations holds ``w - lag`` terms.  ``den=None`` divides by the window length.  The
    estimate is undefined on a window whose ``support`` terms do not sum to a
    positive value, or whose ``den`` terms do not sum to a normal positive
    float: a subnormal denominator has lost its precision (an AR(1) fit on
    ``[4.1e-162, 1.0]`` reads 2.77e161 against the exact 2.44e161).
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
        if not den >= _TINY or (self.support is not None and not self.support(window).any()):
            raise DegenerateEstimateError(f"{self.tag}: zero denominator or empty support")
        return float(self.num(window).sum() / (den * self.div))

    def sliding_estimates(self, x, starts, m):
        x = _windowed(x, starts, m)
        w = m - self.lag
        finite = len(starts)  # the windows from here on read a non-finite prefix sum

        def window_sums(terms):
            nonlocal finite
            c = _prefix_sums(terms(x))
            if not math.isfinite(c[-1]):  # a running sum stays non-finite once it is
                finite = min(finite, int(np.isfinite(c[_span(starts, w)]).sum()))
            return _window_sums(c, starts, w)

        out = window_sums(self.num)
        if self.den is None and self.support is None:
            out /= m * self.div
        else:
            den = m if self.den is None else window_sums(self.den)
            defined = den >= _TINY
            if self.support is not None:
                defined = defined & (window_sums(self.support) > 0)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(defined, out / (den * self.div), np.nan)
        if finite < len(starts):  # those windows take estimate's value, NaN where degenerate
            out[finite:] = FunctionalEstimator.sliding_estimates(self, x, starts[finite:], m)
        return out

    def prefix_deviation_sums(self, x, starts: range, m: int) -> np.ndarray:
        """Per window of a window mean, ``sum_j j (theta_j - theta_m) div`` over
        its prefixes ``j = 1..m``: the OB-III area before its weight and scale."""
        x = _windowed(x, starts, m)
        c = _prefix_sums(self.num(x))
        # sum_j (C[s+j] - C[s]) for j = 1..m, less the window mean times sum_j j
        inner = _window_sums(_prefix_sums(c[1:]), starts, m) - m * c[_span(starts, 0)]
        return inner - _window_sums(c, starts, m) / m * (m * (m + 1) / 2.0)


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


def _block_size(m, d):
    """Windows per block of the banded kernel, for starts a step ``d`` apart:
    ``ceil(sqrt(m / d))``, which keeps the shared core above 7/8 of a window.
    Below ``m = 64 d`` it is 1: there the fixed cost of the blocks outweighs
    the work saved."""
    return 1 if m < 64 * d else math.ceil(math.sqrt(m / d))


def _sliding_order_stats(x, starts, m, k, tails=False):
    """Per window ``x[s : s + m]``, ``s`` in the range ``starts``: its ``k``-th
    smallest value ``q`` and, with ``tails``, the sum and the count of its
    values at or above ``q``.

    The windows go in blocks of ``_block_size(m, starts.step)`` consecutive
    starts (the last block may be shorter); see :func:`_banded_blocks`.
    Returns ``(q, sums, counts)``, the last two None without ``tails``.
    """
    d = starts.step
    size = _block_size(m, d)
    q = np.empty(len(starts))
    sums = np.empty(len(starts)) if tails else None
    counts = np.empty(len(starts), dtype=np.int64) if tails else None
    full = len(starts) - len(starts) % size
    for rows, per_block in ((slice(0, full), size), (slice(full, None), len(starts) - full)):
        if len(starts[rows]):
            out = [None if a is None else a[rows] for a in (q, sums, counts)]
            _banded_blocks(x, starts[rows][::per_block], m, k, per_block, d, *out)
    return q, sums, counts


def _gather(view, starts, shift, out):
    """Copy the rows ``view[s + shift]``, ``s`` in ``starts``, into ``out``."""
    np.copyto(out, view[_span(starts, shift)])
    return out


def _banded_blocks(x, block_starts, m, k, size, d, q, sums, counts):
    """Fill ``q`` (and ``sums``, ``counts`` unless None) for the windows of
    blocks of ``size`` starts ``d`` apart, beginning at ``block_starts``.

    With ``e = (size - 1) * d`` every window of a block holds the core
    ``x[s + e : s + m]`` and ``e`` edge values of its own.  The core is
    partitioned once, at ranks ``lo = k - e`` and ``hi = k`` clipped to it;
    ``q`` is then the ``(k - lo + 1)``-th smallest of the candidates, the
    ``e + 1`` band values between those ranks and the window's edges.  The
    window's tail is the core above the band, the candidates ``>= q``, and
    the core below the band that ties with ``q``, which it can only where
    the lower core peaks at ``q``.  One window costs about
    ``m / size + 2 (size - 1) d`` instead of ``m``.  Blocks are copied a few
    at a time (about ``_CHUNK_BYTES``) into buffers reused across chunks;
    each block's values depend on its own rows alone.
    """
    e = (size - 1) * d
    core_len = m - e
    lo, hi = max(k - e, 1), min(k, core_len)  # band ranks in the core, 1-based
    band = hi - lo + 1
    kk = k - lo  # q's place among a window's candidates, 0-based
    width = band + e
    cores = sliding_window_view(x, core_len)
    step = max(1, _CHUNK_BYTES // (8 * max(core_len, size * width)))
    step = min(step, len(block_starts))
    core_buf = np.empty((step, core_len))
    cand_buf = np.empty((step, size, width))
    if e:
        edges = sliding_window_view(x, e)
        edge_buf = np.empty((step, 2 * e))
    for c in range(0, len(block_starts), step):
        s = block_starts[c : c + step]
        n = len(s)
        rows = slice(c * size, (c + n) * size)
        core = _gather(cores, s, e, core_buf[:n])
        # two one-rank partitions, the second over the smaller side: numpy's
        # partition at a list of ranks is several times slower
        if core_len - lo <= hi - 1:
            core.partition(lo - 1, axis=1)
            if hi > lo:
                core[:, lo:].partition(hi - 1 - lo, axis=1)
        else:
            core.partition(hi - 1, axis=1)
            if hi > lo:
                core[:, : hi - 1].partition(lo - 1, axis=1)
        cand = cand_buf[:n]
        cand[:, :, :band] = core[:, None, lo - 1 : hi]
        if e:
            both = edge_buf[:n]
            _gather(edges, s, 0, both[:, :e])
            _gather(edges, s, m, both[:, e:])
            cand[:, :, band:] = sliding_window_view(both, e, axis=1)[:, ::d]
        cand.partition(kk, axis=2)
        qv = cand[:, :, kk]
        q[rows] = qv.ravel()
        if sums is None:
            continue
        ties = np.count_nonzero(cand[:, :, :kk] == qv[:, :, None], axis=2)
        # the core below the band ties with q only in a block whose lower core
        # peaks at q
        low_max = core[:, : lo - 1].max(axis=1, initial=-np.inf)
        peaks = low_max[:, None] == qv
        tied = np.flatnonzero(peaks.any(axis=1))
        low_ties = np.zeros(n, dtype=np.int64)
        low_ties[tied] = np.count_nonzero(core[tied, : lo - 1] == low_max[tied, None], axis=1)
        ties += np.where(peaks, low_ties[:, None], 0)
        upper = core[:, hi:].sum(axis=1)
        sums[rows] = (upper[:, None] + cand[:, :, kk:].sum(axis=2) + qv * ties).ravel()
        counts[rows] = (core_len - hi + width - kk + ties).ravel()


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


def cvar_min_window(gamma: float) -> int:
    """Smallest window length with ``ceil(gamma * w) < w`` (an exceedance is possible)."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must be in (0, 1)")
    w = 1
    while math.ceil(gamma * w) >= w:
        w += 1
    return w


@dataclass(frozen=True)
class _OrderStatistic(FunctionalEstimator):
    """Plug-in estimator read off a window's ``ceil(gamma * w)``-th order
    statistic ``q`` and its tail, the values at or above ``q`` (ties with
    ``q`` included).

    ``form`` picks the estimate: ``"quantile"`` is ``q`` itself, ``"cvar"``
    the normalized tail sum ``sum / (w (1 - gamma))`` and ``"cvartail"`` the
    tail mean ``sum / count``.
    """

    form: str
    gamma: float
    tag: str = field(init=False)
    min_window: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        w = 1 if self.form == "quantile" else cvar_min_window(self.gamma)
        object.__setattr__(self, "min_window", w)
        object.__setattr__(self, "tag", f"{self.form}:{self.gamma:g}")

    def _value(self, q, sums, counts, w):
        if self.form == "quantile":
            return q
        if self.form == "cvar":
            return sums / (w * (1.0 - self.gamma))
        return sums / counts

    def estimate(self, window):
        window = self.check_window(window)
        w = window.size
        k = math.ceil(self.gamma * w)
        part = np.partition(window, k - 1)
        q = part[k - 1]
        if self.form == "quantile":
            return float(q)
        ties = np.count_nonzero(part[: k - 1] == q)
        return float(self._value(q, part[k - 1 :].sum() + q * ties, w - k + 1 + ties, w))

    def sliding_estimates(self, x, starts, m):
        x = _windowed(x, starts, m)
        k = math.ceil(self.gamma * m)
        q, sums, counts = _sliding_order_stats(x, starts, m, k, tails=self.form != "quantile")
        return self._value(q, sums, counts, m)

    def prefix_estimates(self, window):
        q, sums, counts = _running_tails(np.asarray(window, dtype=float), self.gamma)
        out = self._value(q, sums, counts, np.arange(1, q.size + 1))
        out[: self.min_window - 1] = np.nan
        return out


def mean_estimator() -> FunctionalEstimator:
    """Window average."""
    return _WindowSum(tag="mean", min_window=1, num=_identity)


def quantile_estimator(gamma: float) -> FunctionalEstimator:
    """Smallest order statistic with empirical cdf >= gamma."""
    return _OrderStatistic("quantile", gamma)


def cvar_estimator(gamma: float, q: float | None = None) -> FunctionalEstimator:
    """Normalized CVaR tail sum; plug-in quantile unless ``q`` is given.

    With a known ``q``, a window with no observation at or above it is degenerate.
    """
    if q is None:
        return _OrderStatistic("cvar", gamma)
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
        return _OrderStatistic("cvartail", gamma)
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
