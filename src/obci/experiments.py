"""Data generators and the coverage-experiment harness.

Each replication draws its series from stream ``(master_seed, r)``, so
reports are deterministic and independent of how replications are divided
among workers.  Degenerate replications are the paper tables' "NA": they are
excluded from the coverage denominator and reported separately, and the
stricter ratio over all replications is kept alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cip import (
    CriticalValueSource,
    MonteCarloCriticalValues,
    _estimate_variance,
    _limit_regime,
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
from .limits import WeightFunction, _process_pool, _require_picklable, _require_workers
from .paths import SeedSpec, stream_generators
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

# Poisson means below this draw their counts from one block of uniforms
# (:func:`_poisson_counts`); at and above it ``Generator.poisson`` is faster.
# The break-even lies between 0.01 and 0.0125: at n = 50,000 on a 2-vCPU
# Xeon guest the block took 1071 against 1167 us for numpy at 0.01, and
# 1138 against 1099 us at 0.0125 (medians of 400, other load present).
_POISSON_BLOCK_LAM = 0.01


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


def _poisson_counts(gen: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """``gen.poisson(lam, n).astype(float)``, bit for bit.

    Below mean 10, numpy counts the uniforms whose running product stays above
    exp(-lam) (the multiplication method), one C call per count.  Here one
    block of uniforms serves every count: a uniform at or below exp(-lam)
    where a count starts is a zero, and only the others are walked, each
    starting a count that takes more uniforms.  The generator is left where
    numpy leaves it: a count that runs past the block takes single uniforms,
    and the counts still owed are drawn from a new block of their number.
    The walk costs about n(1 - exp(-lam)) Python steps, so it is used only
    below ``_POISSON_BLOCK_LAM``.
    """
    if not 0 < lam < _POISSON_BLOCK_LAM:
        return gen.poisson(lam, n).astype(float)
    # math.exp is libm's exp, which numpy's sampler calls too
    enlam = math.exp(-lam)
    counts = np.zeros(n)
    done = 0
    while done < n:
        k = n - done
        u = gen.random(k)
        extra = 0  # uniforms past the first taken by the counts of this block
        free = 0  # first position of the block no count has taken
        for p in np.flatnonzero(u > enlam).tolist():
            if p < free:
                continue
            prod = u.item(p)
            x = 1
            j = p + 1
            while True:
                prod *= u.item(j) if j < k else gen.random()
                j += 1
                if prod <= enlam:
                    break
                x += 1
            counts[done + p - extra] = x
            extra += min(j, k) - p - 1
            free = j
            if j >= k:
                break
        done += k - extra
    return counts


def generate(spec: GeneratorSpec, seed: SeedSpec | np.random.Generator) -> TimeSeriesData:
    """Generate one series from the spec, deterministically in the seed.

    ``seed`` is a stream key, or a generator at the start of a stream (as
    :func:`paths.stream_generators` yields); both give the same series.
    AR(1) starts at zero and discards ``burn_in`` steps, approximating a
    stationary start.  NHPP increments are Poisson draws from the exact
    integrated rate lam over [t, t + delta], distributionally equivalent to
    incrementing full paths.  Below lam = 0.01 (the paper's study has
    lam = 6e-4) the counts come from one block of uniforms, walked only
    where a count is nonzero; at and above it from ``Generator.poisson``.
    Both give exactly ``Generator.poisson``'s counts and leave the generator
    in the same state.
    """
    gen = seed if isinstance(seed, np.random.Generator) else seed.generator()
    if spec.kind == "iid_normal":
        values = gen.standard_normal(spec.n)
    elif spec.kind == "ar1":
        from scipy.signal import lfilter

        eps = gen.standard_normal(spec.burn_in + spec.n) * spec.sigma_eps + spec.c
        series = lfilter([1.0], [1.0, -spec.phi], eps)
        values = series[spec.burn_in :]
    else:
        mean = spec.delta * (spec.rate_a + spec.rate_b * spec.t) + spec.rate_b * spec.delta**2 / 2.0
        values = _poisson_counts(gen, mean, spec.n)
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

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")


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
    for i, gen in enumerate(stream_generators(master_seed, lo, count)):
        data = generate(spec, gen)
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
    _require_workers(workers)
    if workers > 1:
        # every block task pickles both; fail here, not inside the pool
        _require_picklable(estimator, f"estimator {estimator.tag!r}")
        if weight is not None:
            _require_picklable(weight, f"weight {weight.tag!r}")
    m = _resolve_m(config, generator.n)
    if config.method == "ss":
        cv = float("nan")
        layout = make_layout(generator.n, int(round(math.sqrt(generator.n))), 1)
        beta_report = layout.m / generator.n
    else:
        layout = make_layout(generator.n, m, config.d)
        asym = _limit_regime(layout, config.beta_declared)
        if cv_source is None and weight is not None:
            cv_source = MonteCarloCriticalValues(master_seed=CRITVAL_SEED, weight=weight)
        source = cv_source or default_cv_source()
        cv = source.critical_value(config.method, asym, 1.0 - config.alpha / 2.0)
        beta_report = asym.beta
    blocks = [
        (generator, truth, estimator, config, m, cv, weight, master_seed, lo,
         min(_REP_BLOCK, replications - lo))
        for lo in range(0, replications, _REP_BLOCK)
    ]
    with _process_pool(workers) as pool:
        results = list((pool.map if pool else map)(_replication_block, blocks))
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
        from scipy.special import ndtri

        # stats.norm.ppf and stats.norm.pdf bit for bit, without scipy.stats
        q = float(ndtri(gamma))
        truth = float(np.exp(-q**2 / 2.0) / np.sqrt(2 * np.pi) / (1.0 - gamma))
        return GeneratorSpec.iid_normal(n), truth, cvar_tail_mean_estimator(gamma, q)
    if study == "ar1":
        return GeneratorSpec.ar1(n, phi), phi, ar1_estimator()
    if study == "nhpp":
        spec = GeneratorSpec.nhpp(n, t, delta)
        return spec, spec.rate_a + spec.rate_b * t, nhpp_rate_estimator(delta)
    raise ValueError(f"unknown study {study!r}")
