"""Data generators and the coverage-experiment harness.

Each replication draws its series from stream ``(master_seed, r)``, so
reports are deterministic and independent of how replications are divided
among workers.  Degenerate replications are the paper tables' "NA": they are
excluded from the coverage denominator and reported separately, and the
stricter ratio over all replications is kept alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats
from scipy.signal import lfilter

from .cip import (
    BatchAsymptotics,
    CriticalValueSource,
    MonteCarloCriticalValues,
    _estimate_variance,
    assemble_interval,
    classify_b_inf,
)
from .errors import AllDegenerateError, DegenerateEstimateError, DegenerateIntervalError
from .functionals import (
    FunctionalEstimator,
    ar1_estimator,
    cvar_tail_mean_estimator,
    nhpp_rate_estimator,
)
from .limits import INFINITE, WeightFunction
from .paths import SeedSpec
from .series import TimeSeriesData, batch_estimates, make_layout
from .subsampling import subsampling_interval

__all__ = [
    "GeneratorSpec",
    "MethodConfig",
    "CoverageReport",
    "generate",
    "coverage_experiment",
    "offset_sweep",
    "study_setup",
    "small_batch_m",
    "default_cv_source",
]

# Replications per work block; fixed so aggregation order never depends on
# the worker count.
_REP_BLOCK = 512

# Critical values for experiments come from a dedicated seed, separate from
# the data-stream master seed.
CRITVAL_SEED = 20240601

_default_source = MonteCarloCriticalValues(master_seed=CRITVAL_SEED)


def default_cv_source() -> MonteCarloCriticalValues:
    """Shared cached Monte Carlo critical-value source for experiments."""
    return _default_source


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic series specification: iid normal, AR(1), or NHPP increments."""

    kind: str
    n: int
    phi: float = 0.0
    c: float = 0.0
    sigma_eps: float = 1.0
    burn_in: int = 1000
    t: float = 0.25
    delta: float = 1e-4
    rate_a: float = 4.0
    rate_b: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in ("iid_normal", "ar1", "nhpp_increments"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("series length must be at least 2")
        if self.kind == "ar1" and not abs(self.phi) < 1:
            raise ValueError("ar1 requires |phi| < 1")
        if self.kind == "nhpp_increments":
            if self.delta <= 0:
                raise ValueError("nhpp requires delta > 0")
            lo = self.rate_a + self.rate_b * self.t
            hi = self.rate_a + self.rate_b * (self.t + self.delta)
            if min(lo, hi) <= 0:
                raise ValueError("nhpp rate must be positive on [t, t + delta]")

    @classmethod
    def iid_normal(cls, n: int) -> "GeneratorSpec":
        return cls(kind="iid_normal", n=n)

    @classmethod
    def ar1(cls, n: int, phi: float, c: float = 0.0, sigma_eps: float = 1.0, burn_in: int = 1000) -> "GeneratorSpec":
        return cls(kind="ar1", n=n, phi=phi, c=c, sigma_eps=sigma_eps, burn_in=burn_in)

    @classmethod
    def nhpp(cls, n: int, t: float, delta: float = 1e-4, rate_a: float = 4.0, rate_b: float = 8.0) -> "GeneratorSpec":
        return cls(kind="nhpp_increments", n=n, t=t, delta=delta, rate_a=rate_a, rate_b=rate_b)


def generate(spec: GeneratorSpec, seed: SeedSpec) -> TimeSeriesData:
    """Generate one series from the spec, deterministically in the seed.

    AR(1) starts at zero and discards ``burn_in`` steps, approximating a
    stationary start.  NHPP increments are Poisson draws from the exact
    integrated rate over [t, t + delta], distributionally equivalent to
    incrementing full paths.
    """
    gen = seed.generator()
    if spec.kind == "iid_normal":
        values = gen.standard_normal(spec.n)
    elif spec.kind == "ar1":
        eps = gen.standard_normal(spec.burn_in + spec.n) * spec.sigma_eps + spec.c
        series = lfilter([1.0], [1.0, -spec.phi], eps)
        values = series[spec.burn_in :]
    else:
        mean = spec.delta * (spec.rate_a + spec.rate_b * spec.t) + spec.rate_b * spec.delta**2 / 2.0
        values = gen.poisson(mean, spec.n).astype(float)
    return TimeSeriesData(values)


@dataclass(frozen=True)
class MethodConfig:
    """Interval procedure configuration for a coverage experiment.

    ``m=None`` resolves to round(beta * n) when ``beta_declared`` > 0 and to
    floor(sqrt(n)) in the small-batch case (matching the offset study's
    realized batch counts).  ``beta_declared`` fixes the asymptotic batch
    fraction used for critical values; bias constants still use m/n.
    """

    method: str  # ob1 | ob2 | ob3 | ss
    alpha: float = 0.05
    m: int | None = None
    d: int = 1
    beta_declared: float | None = None


def small_batch_m(n: int) -> int:
    return int(math.floor(math.sqrt(n)))


def _resolve_m(config: MethodConfig, n: int) -> int:
    if config.m is not None:
        return config.m
    if config.beta_declared:
        return int(round(config.beta_declared * n))
    return small_batch_m(n)


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate coverage and half-width outcome of one configuration."""

    study: str
    n: int
    method: str
    beta: float
    m: int
    d: int
    b: int
    b_inf_class: float
    replications: int
    covered: int
    misses: int
    na_count: int
    coverage: float
    coverage_strict: float
    mean_half_width: float
    mc_standard_error: float
    master_seed: int
    truth: float
    critical_value_used: float

    def csv_row(self) -> str:
        return (
            f"{self.study},{self.n},{self.method},{self.beta:g},{self.d},"
            f"{self.coverage:.6g},{self.mean_half_width:.6g},{self.mc_standard_error:.6g},"
            f"{self.na_count},{self.replications},{self.master_seed}"
        )


def _replication_block(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (spec, truth, estimator, config, m, cv, weight, master_seed, lo, count) = args
    covered = np.zeros(count, dtype=np.int8)
    na = np.zeros(count, dtype=bool)
    hw = np.full(count, np.nan)
    layout = None if config.method == "ss" else make_layout(spec.n, m, config.d)
    for i in range(count):
        data = generate(spec, SeedSpec(master_seed, lo + i))
        try:
            if config.method == "ss":
                interval = subsampling_interval(data, estimator, config.alpha)
            else:
                estimates = batch_estimates(data, layout, estimator)
                variance = _estimate_variance(
                    config.method, data, layout, estimator, estimates, weight
                )
                interval = assemble_interval(
                    config.method, estimates, layout, config.alpha, cv, variance,
                    config.beta_declared,
                )
        except (DegenerateEstimateError, DegenerateIntervalError):
            na[i] = True
            continue
        covered[i] = int(interval.covers(truth))
        hw[i] = interval.half_width
    return covered, na, hw


def coverage_experiment(
    generator: GeneratorSpec,
    truth: float,
    estimator: FunctionalEstimator,
    config: MethodConfig,
    replications: int,
    master_seed: int,
    cv_source: CriticalValueSource | None = None,
    weight: WeightFunction | None = None,
    workers: int = 1,
    study: str = "custom",
) -> CoverageReport:
    """Estimate the coverage probability of one interval procedure.

    Replication r uses data stream (master_seed, r); the critical value is
    resolved once per configuration before replication starts.  Without
    ``cv_source``, critical values are drawn with the same ``weight`` as the
    OB-III variance.
    """
    if replications < 1:
        raise ValueError("at least one replication is required")
    m = _resolve_m(config, generator.n)
    if config.method == "ss":
        cv = float("nan")
        layout = make_layout(generator.n, int(round(math.sqrt(generator.n))), 1)
        beta_report = layout.m / generator.n
    else:
        layout = make_layout(generator.n, m, config.d)
        beta_cv = layout.beta_hat if config.beta_declared is None else config.beta_declared
        b_inf = classify_b_inf(layout) if beta_cv > 0 else INFINITE
        if cv_source is None and weight is not None:
            cv_source = MonteCarloCriticalValues(master_seed=CRITVAL_SEED, weight=weight)
        source = cv_source or default_cv_source()
        cv = source.critical_value(
            config.method, BatchAsymptotics(beta=beta_cv, b_inf=b_inf), 1.0 - config.alpha / 2.0
        )
        beta_report = beta_cv
    blocks = [
        (generator, truth, estimator, config, m, cv, weight, master_seed, lo,
         min(_REP_BLOCK, replications - lo))
        for lo in range(0, replications, _REP_BLOCK)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_block, blocks))
    else:
        results = [_replication_block(b) for b in blocks]
    covered = np.concatenate([r[0] for r in results])
    na = np.concatenate([r[1] for r in results])
    hw = np.concatenate([r[2] for r in results])
    na_count = int(na.sum())
    defined = replications - na_count
    if defined == 0:
        raise AllDegenerateError("every replication was degenerate")
    n_covered = int(covered[~na].sum())
    coverage = n_covered / defined
    return CoverageReport(
        study=study,
        n=generator.n,
        method=config.method,
        beta=beta_report,
        m=layout.m if config.method == "ss" else m,
        d=config.d if config.method != "ss" else 1,
        b=layout.b,
        b_inf_class=classify_b_inf(layout),
        replications=replications,
        covered=n_covered,
        misses=defined - n_covered,
        na_count=na_count,
        coverage=coverage,
        coverage_strict=n_covered / replications,
        mean_half_width=float(np.mean(hw[~na])),
        mc_standard_error=math.sqrt(coverage * (1.0 - coverage) / defined),
        master_seed=master_seed,
        truth=truth,
        critical_value_used=cv,
    )


def offset_sweep(
    generator: GeneratorSpec,
    truth: float,
    estimator: FunctionalEstimator,
    config: MethodConfig,
    offsets: list[int],
    replications: int,
    master_seed: int,
    cv_source: CriticalValueSource | None = None,
    workers: int = 1,
    study: str = "offset",
) -> list[CoverageReport]:
    """One coverage report per batch offset, same seeds across offsets."""
    reports = []
    for d in offsets:
        cfg = replace(config, d=int(d))
        reports.append(
            coverage_experiment(
                generator, truth, estimator, cfg, replications, master_seed,
                cv_source=cv_source, workers=workers, study=study,
            )
        )
    return reports


def study_setup(
    study: str,
    n: int,
    gamma: float = 0.7,
    phi: float = 0.5,
    t: float = 0.25,
    delta: float = 1e-4,
) -> tuple[GeneratorSpec, float, FunctionalEstimator]:
    """Generator, analytic truth, and point estimator for a named study.

    cvar: iid standard normal observations, tail-conditional mean above the
    known gamma-quantile (the variant whose sampling scale reproduces the
    published half-widths).  ar1: least-squares lag-one coefficient, truth
    phi.  nhpp: rate 4 + 8 t increments over delta, truth the rate at t.
    """
    if study == "cvar":
        q = float(stats.norm.ppf(gamma))
        truth = float(stats.norm.pdf(q) / (1.0 - gamma))
        return GeneratorSpec.iid_normal(n), truth, cvar_tail_mean_estimator(gamma, q)
    if study == "ar1":
        return GeneratorSpec.ar1(n, phi), phi, ar1_estimator()
    if study == "nhpp":
        spec = GeneratorSpec.nhpp(n, t, delta)
        return spec, spec.rate_a + spec.rate_b * t, nhpp_rate_estimator(delta)
    raise ValueError(f"unknown study {study!r}")
