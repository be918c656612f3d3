"""The three variance estimators and confidence interval assembly.

Centering follows the procedure definitions: OB-I and OB-III center on the
sectioning estimator, OB-II on the batching mean.  Bias constants are always
evaluated at the finite-sample ratio beta_hat = m/n, which makes the variance
estimators exactly asymptotically unbiased along the realized sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .errors import DegenerateIntervalError
from .functionals import FunctionalEstimator
from .limits import (
    DEFAULT_REPLICATIONS,
    INFINITE,
    BatchAsymptotics,
    WeightFunction,
    _check_levels,
    constant_sqrt12,
    critical_value,
    kappa1,
    kappa2,
    limit_quantiles,
    studentized_draws,
)
from .paths import DEFAULT_GRID
from .series import BatchEstimates, BatchLayout, TimeSeriesData, batch_estimates, prefix_estimates

__all__ = [
    "VarianceEstimate",
    "IntervalResult",
    "classify_b_inf",
    "var_ob1",
    "var_ob2",
    "var_ob3",
    "build_interval",
    "CriticalValueSource",
    "MonteCarloCriticalValues",
    "CRITVAL_SEED",
    "default_cv_source",
]

# The master seed of Monte Carlo critical values when none is named: the
# default source's, and the CLI's seed defaults.
CRITVAL_SEED = 20240601


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    method: str
    kappa_used: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("variance estimates are nonnegative")


def classify_b_inf(layout: BatchLayout) -> float:
    """Asymptotic batch-count class of a finite layout.

    The limit is infinite exactly when the offset is o(n); the working rule
    declares INFINITE for d <= sqrt(n) and finite (= realized b) otherwise.
    """
    return INFINITE if layout.d <= math.sqrt(layout.n) else float(layout.b)


def _limit_regime(layout: BatchLayout, beta_declared: float | None) -> BatchAsymptotics:
    """The regime a critical value is drawn for: the declared beta, or the
    realized m/n, with the layout's ``b_inf`` class (INFINITE when beta is 0).

    Raises ValueError for a beta outside [0, 1).
    """
    beta = layout.beta_hat if beta_declared is None else beta_declared
    return BatchAsymptotics(beta=beta, b_inf=classify_b_inf(layout) if beta > 0 else INFINITE)


def var_ob1(est: BatchEstimates, layout: BatchLayout) -> VarianceEstimate:
    """Scaled batch sample variance around the sectioning estimate."""
    kap = kappa1(layout.beta_hat)
    dev = est.per_batch - est.sectioning
    value = float(np.dot(dev, dev)) * layout.m / layout.b / kap
    return VarianceEstimate(value=value, method="ob1", kappa_used=kap)


def var_ob2(est: BatchEstimates, layout: BatchLayout) -> VarianceEstimate:
    """Scaled batch sample variance around the batching mean, with the bias
    constant of the layout's ``b_inf`` class."""
    kap = kappa2(layout.beta_hat, classify_b_inf(layout))
    if kap <= 0:
        raise DegenerateIntervalError(f"kappa2 is not positive for this geometry: {kap}")
    dev = est.per_batch - est.batching_mean
    value = float(np.dot(dev, dev)) * layout.m / layout.b / kap
    return VarianceEstimate(value=value, method="ob2", kappa_used=kap)


def var_ob3(
    data: TimeSeriesData,
    layout: BatchLayout,
    est: FunctionalEstimator,
    weight: WeightFunction | None = None,
) -> VarianceEstimate:
    """Weighted area estimator over per-batch prefix (standardized) series.

    The scale parameter of the standardized series cancels between the weight
    term and the series itself and never enters the computation.  Prefixes
    below the estimator's minimum window contribute zero.
    """
    weight = weight or constant_sqrt12()
    m = layout.m
    if getattr(est, "window_mean", False) and weight.constant is not None:
        # prefix sums collapse the double loop: each batch area term is O(1)
        areas = est.prefix_deviation_sums(data.values, layout.starts, m)
        terms = weight.constant * areas / (m * math.sqrt(m) * est.div)
        value = float(np.dot(terms, terms)) / layout.b
        return VarianceEstimate(value=value, method="ob3", kappa_used=1.0)
    j = np.arange(1, m + 1)
    fvals = np.asarray(weight.fn(j / m), dtype=float)
    total = 0.0
    for i in range(1, layout.b + 1):
        prefixes = prefix_estimates(data, layout, i, est)
        dev = prefixes - prefixes[m - 1]
        dev = np.where(np.isnan(dev), 0.0, dev)
        area = float(np.sum(fvals * j * dev)) / (m * math.sqrt(m))
        total += area * area
    return VarianceEstimate(value=total / layout.b, method="ob3", kappa_used=1.0)


def _estimate_variance(
    method: str, data: TimeSeriesData, layout: BatchLayout, est: FunctionalEstimator,
    estimates: BatchEstimates, weight: WeightFunction | None,
) -> VarianceEstimate:
    """The ``method`` variance estimate; OB-II classifies ``b_inf`` from the layout."""
    if method == "ob1":
        return var_ob1(estimates, layout)
    if method == "ob2":
        return var_ob2(estimates, layout)
    return var_ob3(data, layout, est, weight)


@dataclass(frozen=True)
class IntervalResult:
    """A single two-sided confidence interval with its diagnostics."""

    method: str
    center: float
    sigma_hat: float
    half_width: float
    lower: float
    upper: float
    alpha: float
    critical_value_used: float
    n: int
    m: int
    d: int
    b: int
    beta: float
    b_inf_class: float

    def covers(self, truth: float) -> bool:
        return self.lower <= truth <= self.upper

    def csv_line(self) -> str:
        b_inf = "inf" if math.isinf(self.b_inf_class) else str(int(self.b_inf_class))
        return (
            f"{self.lower:.10g},{self.center:.10g},{self.upper:.10g},"
            f"{self.half_width:.10g},{self.sigma_hat:.10g},{self.critical_value_used:.10g},"
            f"{self.beta:.10g},{self.b},{b_inf}"
        )


class CriticalValueSource(Protocol):
    """Anything that answers ``critical_value(method, asym, q)``.

    A source's ``weight`` attribute is the OB-III weight of its critical
    values, and :func:`build_interval` and the coverage harness pair it with
    the OB-III variance; a source without one (a ``CriticalValueTable``, a
    fixed value) is the constant weight sqrt(12).
    """

    def critical_value(self, method: str, asym: BatchAsymptotics, q: float) -> float: ...


@dataclass
class MonteCarloCriticalValues:
    """On-demand Monte Carlo critical values with an in-process cache.

    The cache holds one set of Studentized draws per (method, beta, b_inf)
    cell, so another quantile level of a cached cell costs a quantile, not a
    redraw.  ``weight`` (None: sqrt(12)) is the OB-III weight of the draws
    and of the variance it is paired with.
    """

    replications: int = DEFAULT_REPLICATIONS
    grid_count: int = DEFAULT_GRID
    master_seed: int = CRITVAL_SEED
    weight: WeightFunction | None = None
    workers: int = 1
    _draws: dict = field(default_factory=dict, repr=False)

    def critical_value(self, method: str, asym: BatchAsymptotics, q: float) -> float:
        _check_levels([q])  # before the draws, not after them
        if asym.beta == 0:
            return critical_value(method, asym, q)
        key = (method, asym.beta, asym.b_inf)
        if key not in self._draws:
            cell = (method, asym)
            self._draws[key] = studentized_draws(
                [cell],
                replications=self.replications,
                grid_count=self.grid_count,
                master_seed=self.master_seed,
                weight=self.weight,
                workers=self.workers,
            )[cell]
        return limit_quantiles(self._draws[key], [q])[0]


_default_source = MonteCarloCriticalValues()


def default_cv_source() -> MonteCarloCriticalValues:
    """The shared cached source that :func:`build_interval` and the coverage
    harness use when given none: sqrt(12), ``DEFAULT_REPLICATIONS`` paths of
    ``DEFAULT_GRID`` cells from ``CRITVAL_SEED``."""
    return _default_source


def assemble_interval(
    method: str,
    estimates: BatchEstimates | None,
    layout: BatchLayout,
    alpha: float,
    cv: float,
    variance: VarianceEstimate,
    beta_declared: float | None = None,
) -> IntervalResult:
    """Form the two-sided interval from precomputed pieces.

    Shared by :func:`build_interval` and the replication harness, which
    resolves the critical value once per configuration.
    """
    sigma_hat = math.sqrt(variance.value)
    if sigma_hat == 0.0:
        raise DegenerateIntervalError(f"{method}: zero variance estimate, degenerate interval")
    center = estimates.batching_mean if method == "ob2" else estimates.sectioning
    half_width = cv * sigma_hat / math.sqrt(layout.n)
    beta = layout.beta_hat if beta_declared is None else beta_declared
    return IntervalResult(
        method=method,
        center=center,
        sigma_hat=sigma_hat,
        half_width=half_width,
        lower=center - half_width,
        upper=center + half_width,
        alpha=alpha,
        critical_value_used=cv,
        n=layout.n,
        m=layout.m,
        d=layout.d,
        b=layout.b,
        beta=beta,
        b_inf_class=classify_b_inf(layout),
    )


def build_interval(
    method: str,
    data: TimeSeriesData,
    m: int,
    d: int,
    alpha: float,
    estimator: FunctionalEstimator,
    cv_source: CriticalValueSource | None = None,
    beta_declared: float | None = None,
    side: str = "two-sided",
) -> IntervalResult:
    """Construct one OB-x (1 - alpha) confidence interval.

    ``beta_declared`` overrides the asymptotic batch fraction used for the
    critical value (small-batch procedures declare 0 and get normal
    quantiles); the bias constants always use the realized m/n.  One-sided
    intervals use the 1 - alpha critical value on the requested side and
    leave the other endpoint infinite.  ``cv_source`` defaults to
    :func:`default_cv_source`; its ``weight`` is also the OB-III variance's,
    and a source without one is sqrt(12).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if method not in ("ob1", "ob2", "ob3"):
        raise ValueError(f"unknown interval method {method!r}")
    if side not in ("two-sided", "lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    from .series import make_layout

    layout = make_layout(data.n, m, d)
    # checks beta_declared before the estimates are paid for
    asym = _limit_regime(layout, beta_declared)
    source = default_cv_source() if cv_source is None else cv_source
    estimates = batch_estimates(data, layout, estimator)
    weight = getattr(source, "weight", None)
    variance = _estimate_variance(method, data, layout, estimator, estimates, weight)
    q = 1.0 - alpha / 2.0 if side == "two-sided" else 1.0 - alpha
    cv = source.critical_value(method, asym, q)
    result = assemble_interval(method, estimates, layout, alpha, cv, variance, beta_declared)
    if side == "lower":
        result = replace(result, upper=math.inf)
    elif side == "upper":
        result = replace(result, lower=-math.inf)
    return result
