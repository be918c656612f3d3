"""Statistical invariants of the limit samplers and interval procedures.

Heavier Monte Carlo checks than the unit tests; every test uses fixed seeds
and is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from obci import (
    GeneratorSpec,
    INFINITE,
    BatchAsymptotics,
    MethodConfig,
    TimeSeriesData,
    coverage_experiment,
    critical_value,
    draw_limit_samples,
    make_layout,
    mean_estimator,
    var_ob3,
)

R = 100_000


@pytest.fixture(scope="module")
def obi_draws():
    cell = ("ob1", BatchAsymptotics(0.25, INFINITE))
    return draw_limit_samples([cell], R, master_seed=101)[cell]


@pytest.fixture(scope="module")
def obii_draws():
    cell = ("ob2", BatchAsymptotics(0.25, INFINITE))
    return draw_limit_samples([cell], R, master_seed=102)[cell]


@pytest.fixture(scope="module")
def obiii_draws():
    cell = ("ob3", BatchAsymptotics(0.5, INFINITE))
    return draw_limit_samples([cell], R, master_seed=103)[cell]


def _check_symmetry(nums, chis):
    t = nums / np.sqrt(chis)
    assert abs(t.mean()) < 3 * t.std() / np.sqrt(t.size)
    assert abs(stats.skew(t)) < 0.05


def test_obi_t_symmetry_and_normal_numerator(obi_draws):
    nums, chis = obi_draws
    _check_symmetry(nums, chis)
    assert stats.kstest(nums, "norm").pvalue > 1e-3


def test_obii_t_symmetry_and_numerator_skewness(obii_draws):
    nums, chis = obii_draws
    _check_symmetry(nums, chis)
    assert abs(stats.skew(nums)) < 0.05


def test_obiii_t_symmetry_and_normal_numerator(obiii_draws):
    # the T law here has roughly 1.5 effective degrees of freedom, so moment
    # statistics (skewness) do not concentrate; symmetry is checked through
    # quantiles instead, alongside the exact path-flip identity in test_limits
    nums, chis = obiii_draws
    t = nums / np.sqrt(chis)
    for p in (0.9, 0.95, 0.975):
        hi = np.quantile(t, p)
        lo = np.quantile(t, 1 - p)
        assert abs(hi + lo) < 0.05
    assert stats.kstest(nums, "norm").pvalue > 1e-3


def test_obii_nonoverlapping_tiling_is_student_t():
    # contiguous non-overlapping batches (beta = 1/b_inf) make the OB-II
    # Studentized limit exactly Student's t with b_inf - 1 degrees of freedom
    for b in (8, 16):
        asym = BatchAsymptotics(beta=1.0 / b, b_inf=b)
        cv = critical_value("ob2", asym, 0.95, replications=R, master_seed=104)
        assert cv == pytest.approx(stats.t.ppf(0.95, b - 1), abs=0.05)


def test_obii_small_beta_approaches_student_t():
    # smallest supported positive beta, with its contiguous batch count
    b = 1000
    asym = BatchAsymptotics(beta=1e-3, b_inf=b)
    cv = critical_value("ob2", asym, 0.95, replications=R, master_seed=105)
    assert cv == pytest.approx(stats.t.ppf(0.95, b - 1), abs=0.05)


def test_mean_interval_covers_normal_mean(cv_source):
    # exact normal-mean coverage oracle: nominal 0.95 within 0.01
    from obci.experiments import coverage_experiment

    spec = GeneratorSpec.iid_normal(1000)
    config = MethodConfig(method="ob1", m=250, d=1, alpha=0.05, beta_declared=0.25)
    report = coverage_experiment(
        spec, 0.0, mean_estimator(), config, 10_000, 314, cv_source=cv_source
    )
    assert report.na_count == 0
    assert abs(report.coverage - 0.95) < 0.01


def test_var_ob3_small_batch_consistency():
    # iid N(0,1), n = 1e4, m = 100, d = 1: averaged estimate near 1
    total = 0.0
    reps = 200
    for r in range(reps):
        gen = np.random.default_rng(515 + r)
        data = TimeSeriesData(gen.standard_normal(10_000))
        lay = make_layout(10_000, 100, 1)
        total += var_ob3(data, lay, mean_estimator()).value
    assert abs(total / reps - 1.0) < 0.1
