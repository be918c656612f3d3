"""Batch geometry over a finite dataset and batched functional estimation.

Batch ``i`` (1-based, as in the overlapping-batch literature) covers
observations ``(i-1)d + 1 .. (i-1)d + m``; internally starts are stored
0-based.  Trailing observations that do not fill a final batch are excluded
from batch windows but still enter the sectioning estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DegenerateEstimateError
from .functionals import FunctionalEstimator

__all__ = [
    "TimeSeriesData",
    "BatchLayout",
    "BatchEstimates",
    "load_series",
    "make_layout",
    "layout_from_fractions",
    "batch_estimates",
    "prefix_estimates",
]


@dataclass(frozen=True)
class TimeSeriesData:
    """Ordered real-valued observations, the unit all estimators consume."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("a time series needs at least 2 observations")
        if not np.isfinite(values).all():
            raise ValueError("observations must be finite reals")

    @property
    def n(self) -> int:
        return int(self.values.size)


def load_series(path: str | Path) -> TimeSeriesData:
    """Read a dataset file: one decimal per line, ``#`` comments and blanks ignored.

    A line holds exactly what ``float()`` accepts, surrounding whitespace
    included; an error names the first line that does not.
    """
    with open(path) as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    try:
        values = np.array([line for line in lines if line and line[0] != "#"], dtype=float)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            if line and line[0] != "#":
                try:
                    float(line)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {lineno}: not a decimal observation: {line!r}",
                        line_number=lineno,
                    ) from None
        raise
    if values.size < 2:
        raise DataFormatError(f"{path}: fewer than 2 observations")
    return TimeSeriesData(values)


@dataclass(frozen=True)
class BatchLayout:
    """Geometry ``(n, m, d, b)`` with 0-based batch starts, a ``range`` of step ``d``."""

    n: int
    m: int
    d: int
    b: int
    starts: range

    @property
    def beta_hat(self) -> float:
        return self.m / self.n


def make_layout(n: int, m: int, d: int) -> BatchLayout:
    """Lay out ``b = floor((n - m) / d) + 1`` batches of size ``m`` at offset ``d``."""
    if not 2 <= m <= n:
        raise ValueError(f"batch size m={m} must satisfy 2 <= m <= n={n}")
    if d < 1:
        raise ValueError("offset d must be at least 1")
    b = (n - m) // d + 1
    if b < 2:
        raise ValueError(f"layout (n={n}, m={m}, d={d}) yields fewer than 2 batches")
    return BatchLayout(n=n, m=m, d=d, b=b, starts=range(0, b * d, d))


def layout_from_fractions(n: int, beta_target: float, d: int) -> BatchLayout:
    """Layout with ``m = round(beta_target * n)``."""
    if not 0 < beta_target < 1:
        raise ValueError("beta_target must be in (0, 1)")
    m = int(round(beta_target * n))
    return make_layout(n, m, d)


@dataclass(frozen=True)
class BatchEstimates:
    """Per-batch estimates plus the sectioning estimate and their mean."""

    per_batch: np.ndarray
    sectioning: float

    @property
    def batching_mean(self) -> float:
        return float(self.per_batch.mean())


def batch_estimates(
    data: TimeSeriesData, layout: BatchLayout, est: FunctionalEstimator
) -> BatchEstimates:
    """Apply ``est`` to every batch window and to the full series.

    Raises :class:`DegenerateEstimateError` naming the (1-based) batch index
    when any batch window is degenerate.
    """
    if layout.n != data.n:
        raise ValueError(f"layout n={layout.n} does not match data n={data.n}")
    if layout.m < est.min_window:
        raise DegenerateEstimateError(
            f"{est.tag}: batch size {layout.m} below min_window={est.min_window}"
        )
    x = data.values
    per_batch = est.sliding_estimates(x, layout.starts, layout.m)
    bad = np.flatnonzero(np.isnan(per_batch))
    if bad.size:
        raise DegenerateEstimateError(
            f"{est.tag}: degenerate estimate in batch {bad[0] + 1}"
            + (f" (+{bad.size - 1} more)" if bad.size > 1 else ""),
            batch_index=int(bad[0]) + 1,
        )
    sectioning = est.estimate(x)
    return BatchEstimates(per_batch=per_batch, sectioning=float(sectioning))


def prefix_estimates(
    data: TimeSeriesData, layout: BatchLayout, i: int, est: FunctionalEstimator
) -> np.ndarray:
    """Estimates over the first ``j`` observations of batch ``i`` (1-based).

    Entries with ``j`` below the estimator's minimum window are NaN; callers
    building standardized time series take their contribution as zero.
    """
    if not 1 <= i <= layout.b:
        raise ValueError(f"batch index {i} outside 1..{layout.b}")
    s = layout.starts[i - 1]
    return est.prefix_estimates(data.values[s : s + layout.m])
