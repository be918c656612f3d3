from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from obci import (
    AllDegenerateError,
    GeneratorSpec,
    MethodConfig,
    SeedSpec,
    ar1_estimator,
    coverage_experiment,
    generate,
    mean_estimator,
    nhpp_rate_estimator,
    offset_sweep,
    study_setup,
)
from obci import cip, experiments
from obci.cip import build_interval
from obci.errors import DegenerateEstimateError, DegenerateIntervalError
from obci.experiments import _poisson_counts
from obci.functionals import _WindowSum
from obci.limits import WeightFunction

from conftest import StubCriticalValues


def test_iid_normal_moments():
    spec = GeneratorSpec.iid_normal(100_000)
    x = generate(spec, SeedSpec(2024, 0)).values
    assert abs(x.mean()) < 0.01
    assert 0.98 <= x.var() <= 1.02


def test_ar1_autocorrelation():
    spec = GeneratorSpec.ar1(100_000, phi=0.5)
    x = generate(spec, SeedSpec(2024, 1)).values
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1 - 0.5) < 0.01


def test_ar1_recursion_exact():
    spec = GeneratorSpec.ar1(50, phi=0.9, c=0.3, sigma_eps=0.5, burn_in=0)
    x = generate(spec, SeedSpec(7, 0)).values
    eps = SeedSpec(7, 0).generator().standard_normal(50) * 0.5 + 0.3
    manual = np.zeros(50)
    prev = 0.0
    for t in range(50):
        prev = eps[t] + 0.9 * prev
        manual[t] = prev
    np.testing.assert_allclose(x, manual, rtol=1e-12)


def test_nhpp_increment_mean():
    spec = GeneratorSpec.nhpp(1_000_000, t=0.25, delta=1e-4)
    x = generate(spec, SeedSpec(2024, 2)).values
    target = 1e-4 * 6.0 + 4e-8  # exact integrated rate over [t, t + delta]
    se = np.sqrt(target / 1_000_000)
    assert abs(x.mean() - target) < 3 * se


_POISSON_SEEDS = range(100)


@pytest.mark.parametrize("lam", [6e-4, 0.005, 0.0099, 0.01, 0.1, 0.7, 3.0, 9.5])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 50_000])
def test_poisson_counts_equal_generator_poisson(lam, n):
    # both sides of the block rule: the counts, and where the stream is left
    for s in _POISSON_SEEDS:
        ours, numpys = SeedSpec(s, 3).generator(), SeedSpec(s, 3).generator()
        assert np.array_equal(_poisson_counts(ours, lam, n), numpys.poisson(lam, n).astype(float))
        assert ours.random() == numpys.random()


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.7, 3.0, 9.5])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 50_000])
def test_poisson_block_walk_exact_up_to_mean_ten(monkeypatch, lam, n):
    # the walk itself, where counts of several uniforms overrun the block;
    # at n = 50,000 it takes ~n * lam Python steps, hence fewer seeds there
    monkeypatch.setattr(experiments, "_POISSON_BLOCK_LAM", 10.0)
    for s in _POISSON_SEEDS if n * lam <= 5000 else _POISSON_SEEDS[:3]:
        ours, numpys = SeedSpec(s, 3).generator(), SeedSpec(s, 3).generator()
        assert np.array_equal(_poisson_counts(ours, lam, n), numpys.poisson(lam, n).astype(float))
        assert ours.random() == numpys.random()


def test_generate_takes_a_generator_at_the_start_of_its_stream():
    spec = GeneratorSpec.nhpp(3000, t=0.25, delta=1e-3)
    by_key = generate(spec, SeedSpec(8, 2)).values
    assert np.array_equal(generate(spec, SeedSpec(8, 2).generator()).values, by_key)


@pytest.mark.parametrize("spec,truth,estimator,config", [
    (GeneratorSpec.iid_normal(200), 0.0, mean_estimator(),
     MethodConfig("ob1", m=50, d=10, beta_declared=0.25)),
    (GeneratorSpec.ar1(200, phi=0.5), 0.5, ar1_estimator(),
     MethodConfig("ob2", m=40, d=8, beta_declared=0.2)),
    (GeneratorSpec.nhpp(2000, t=0.25, delta=1e-3), 6.0, nhpp_rate_estimator(1e-3),
     MethodConfig("ob1", m=500, d=50, beta_declared=0.25)),
], ids=["iid", "ar1", "nhpp"])
@pytest.mark.parametrize("workers", [1, 2])
def test_coverage_matches_a_loop_over_generate(stub_cv, spec, truth, estimator, config, workers):
    # 600 replications cross the 512-replication block
    report = coverage_experiment(
        spec, truth, estimator, config, 600, 41, cv_source=stub_cv, workers=workers
    )
    covered, na, widths = 0, 0, []
    for r in range(600):
        data = generate(spec, SeedSpec(41, r))
        try:
            interval = build_interval(
                config.method, data, config.m, config.d, config.alpha, estimator, stub_cv,
                beta_declared=config.beta_declared,
            )
        except (DegenerateEstimateError, DegenerateIntervalError):
            na += 1
            continue
        covered += interval.covers(truth)
        widths.append(interval.half_width)
    assert (report.covered, report.na_count) == (covered, na)
    assert report.mean_half_width == np.mean(widths)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.1])
def test_method_config_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        MethodConfig("ob1", alpha=alpha)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was built")


@pytest.mark.parametrize("bad", ["weight", "estimator"])
def test_coverage_rejects_unpicklable_arguments_before_any_pool(monkeypatch, bad):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _NoPool)
    weight = WeightFunction(lambda v: 1.0 + v, "linear") if bad == "weight" else None
    estimator = (
        _WindowSum(tag="closure-mean", min_window=1, num=lambda x: x)
        if bad == "estimator" else mean_estimator()
    )
    tag = "linear" if bad == "weight" else "closure-mean"
    with pytest.raises(ValueError, match=f"{bad} '{tag}'.*module level"):
        coverage_experiment(
            GeneratorSpec.iid_normal(200), 0.0, estimator, MethodConfig("ob3", m=50, d=10),
            600, 5, weight=weight, workers=2,
        )


@pytest.mark.parametrize("workers", [0, -1])
def test_coverage_rejects_workers_below_one_before_any_work(monkeypatch, workers):
    def fail(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiments, "_replication_block", fail)
    source = StubCriticalValues()
    source.critical_value = fail
    with pytest.raises(ValueError, match="workers must be at least 1"):
        coverage_experiment(
            GeneratorSpec.iid_normal(200), 0.0, mean_estimator(), MethodConfig("ob1", m=50),
            10, 5, cv_source=source, workers=workers,
        )


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorSpec.ar1(100, phi=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec.nhpp(100, t=0.25, delta=-1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="mystery", n=10)


def test_study_setup_truths():
    _, truth, est = study_setup("cvar", 1000, gamma=0.7)
    assert truth == pytest.approx(1.1590, abs=5e-5)
    assert est.tag.startswith("cvartail:0.7")
    _, truth, est = study_setup("ar1", 1000, phi=0.9)
    assert truth == 0.9
    spec, truth, _ = study_setup("nhpp", 1000, t=0.25)
    assert truth == 6.0
    with pytest.raises(ValueError):
        study_setup("mystery", 100)


def test_coverage_accounting_and_determinism(stub_cv):
    spec = GeneratorSpec.iid_normal(200)
    config = MethodConfig(method="ob1", m=50, d=10, beta_declared=0.25)
    a = coverage_experiment(spec, 0.0, mean_estimator(), config, 600, 31, cv_source=stub_cv)
    b = coverage_experiment(spec, 0.0, mean_estimator(), config, 600, 31, cv_source=stub_cv)
    assert a == b
    assert a.covered + a.misses + a.na_count == a.replications
    assert 0 <= a.coverage <= 1
    assert a.mc_standard_error == pytest.approx(
        np.sqrt(a.coverage * (1 - a.coverage) / (a.replications - a.na_count))
    )


def test_coverage_identical_across_worker_counts(stub_cv):
    spec = GeneratorSpec.iid_normal(150)
    config = MethodConfig(method="ob2", m=30, d=5, beta_declared=0.2)
    serial = coverage_experiment(spec, 0.0, mean_estimator(), config, 1100, 5, cv_source=stub_cv)
    parallel = coverage_experiment(
        spec, 0.0, mean_estimator(), config, 1100, 5, cv_source=stub_cv, workers=3
    )
    assert serial == parallel


def test_half_width_strictly_decreases_with_alpha():
    spec = GeneratorSpec.iid_normal(300)

    class NormalSource:
        def critical_value(self, method, asym, q):
            return float(stats.norm.ppf(q))

    config05 = MethodConfig(method="ob1", m=75, d=15, alpha=0.05, beta_declared=0.25)
    config10 = MethodConfig(method="ob1", m=75, d=15, alpha=0.10, beta_declared=0.25)
    r05 = coverage_experiment(spec, 0.0, mean_estimator(), config05, 400, 17, cv_source=NormalSource())
    r10 = coverage_experiment(spec, 0.0, mean_estimator(), config10, 400, 17, cv_source=NormalSource())
    assert r10.mean_half_width < r05.mean_half_width


def test_constant_generator_all_na(stub_cv):
    constant = GeneratorSpec.ar1(100, phi=0.0, c=5.0, sigma_eps=0.0)
    config = MethodConfig(method="ob1", m=25, d=5, beta_declared=0.25)
    with pytest.raises(AllDegenerateError):
        coverage_experiment(constant, 5.0, mean_estimator(), config, 50, 3, cv_source=stub_cv)


def test_na_replications_counted(stub_cv):
    # known-quantile cvar with a high threshold degenerates some replications
    from obci import cvar_tail_mean_estimator

    spec = GeneratorSpec.iid_normal(60)
    config = MethodConfig(method="ob1", m=15, d=5, beta_declared=0.25)
    report = coverage_experiment(
        spec, 1.7, cvar_tail_mean_estimator(0.9, q=1.3), config, 400, 23, cv_source=stub_cv
    )
    assert report.na_count > 0
    assert report.coverage_strict <= report.coverage
    assert report.covered + report.misses == report.replications - report.na_count


def test_offset_sweep_reports_geometry(stub_cv):
    spec = GeneratorSpec.iid_normal(400)
    config = MethodConfig(method="ob1", m=100, d=1, beta_declared=0.25)
    reports = offset_sweep(
        spec, 0.0, mean_estimator(), config, [1, 100, 200], 300, 7, cv_source=stub_cv
    )
    assert [r.b for r in reports] == [301, 4, 2]
    assert np.isinf(reports[0].b_inf_class)
    assert reports[1].b_inf_class == 4.0
    assert reports[2].b_inf_class == 2.0


def test_subsampling_method_in_harness():
    spec = GeneratorSpec.iid_normal(256)
    config = MethodConfig(method="ss", alpha=0.05)
    report = coverage_experiment(spec, 0.0, mean_estimator(), config, 500, 13)
    assert report.method == "ss"
    assert report.m == 16
    assert 0.8 < report.coverage <= 1.0


def test_coverage_default_source_gets_the_weight(monkeypatch):
    # an f-weighted OB-III variance must be paired with f-weighted critical values
    weight = WeightFunction(lambda v: math.sqrt(12.0) * np.ones_like(v), "flat-callable")
    seen = []

    def fake_draws(cells, replications, grid_count, master_seed, weight, workers):
        seen.append(weight)
        return {cell: np.linspace(-3.0, 3.0, 10_001) for cell in cells}

    monkeypatch.setattr(cip, "studentized_draws", fake_draws)
    report = coverage_experiment(
        GeneratorSpec.iid_normal(200), 0.0, mean_estimator(), MethodConfig("ob3", m=50, d=10),
        replications=4, master_seed=15, weight=weight,
    )
    assert seen == [weight]
    assert report.critical_value_used == pytest.approx(2.85, abs=1e-3)
