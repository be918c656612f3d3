from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from obci import (
    INFINITE,
    DegenerateIntervalError,
    TimeSeriesData,
    batch_estimates,
    build_interval,
    classify_b_inf,
    make_layout,
    mean_estimator,
    nhpp_rate_estimator,
    var_ob1,
    var_ob2,
    var_ob3,
)
from obci import cip
from obci.cip import MonteCarloCriticalValues, VarianceEstimate, assemble_interval
from obci.limits import BatchAsymptotics, WeightFunction, critical_value
from obci.series import BatchEstimates

from conftest import StubCriticalValues


def test_classify_b_inf_rule():
    assert classify_b_inf(make_layout(1000, 250, 1)) == INFINITE
    assert classify_b_inf(make_layout(1000, 250, 31)) == INFINITE
    assert classify_b_inf(make_layout(1000, 250, 250)) == 4.0
    assert classify_b_inf(make_layout(1000, 250, 500)) == 2.0


def test_var_ob1_hand_example():
    data = TimeSeriesData(np.array([0.0, 0.0, 2.0, 2.0]))
    lay = make_layout(4, 2, 2)
    est = batch_estimates(data, lay, mean_estimator())
    v = var_ob1(est, lay)
    assert v.value == pytest.approx(4.0)
    assert v.kappa_used == pytest.approx(0.5)


def test_var_ob1_constant_series_is_zero():
    data = TimeSeriesData(np.full(8, 2.5))
    lay = make_layout(8, 2, 2)
    est = batch_estimates(data, lay, mean_estimator())
    assert var_ob1(est, lay).value == 0.0


def test_var_ob2_hand_example():
    data = TimeSeriesData(np.array([0.0, 0.0, 2.0, 2.0]))
    lay = make_layout(4, 2, 2)
    est = batch_estimates(data, lay, mean_estimator())
    v = var_ob2(est, lay, 2)
    assert v.value == pytest.approx(4.0)
    assert v.kappa_used == pytest.approx(0.5)


def test_var_ob1_matches_var_ob2_for_two_half_batches():
    # d = m, n = 2m: sectioning equals the batching mean for the mean
    # estimator and kappa1(1/2) = kappa2(1/2, 2), so the estimators coincide
    gen = np.random.default_rng(21)
    x = gen.standard_normal(40)
    data = TimeSeriesData(x)
    lay = make_layout(40, 20, 20)
    est = batch_estimates(data, lay, mean_estimator())
    assert var_ob1(est, lay).value == pytest.approx(var_ob2(est, lay, 2).value, rel=1e-12)


def test_var_ob3_single_batch_hand_value():
    # one batch {1, 3}: area term ((1/2) * sqrt(12) * 1 * (1 - 2) / sqrt(2))^2 = 3/2
    data = TimeSeriesData(np.array([1.0, 3.0, 1.0, 3.0]))
    lay = make_layout(4, 2, 2)
    v = var_ob3(data, lay, mean_estimator())
    assert v.value == pytest.approx(1.5, rel=1e-12)


def test_var_ob3_constant_series_is_zero():
    data = TimeSeriesData(np.full(10, 7.0))
    lay = make_layout(10, 4, 2)
    assert var_ob3(data, lay, mean_estimator()).value == pytest.approx(0.0, abs=1e-18)


def test_var_ob3_fast_path_matches_generic():
    gen = np.random.default_rng(4)
    data = TimeSeriesData(gen.standard_normal(150))
    counts = TimeSeriesData(gen.poisson(2.0, 150).astype(float))
    lay = make_layout(150, 30, 11)

    class GenericMean(mean_estimator().__class__.__bases__[0]):
        tag = "mean-generic"
        min_window = 1
        delta = 1.0

        def estimate(self, window):
            return float(np.asarray(window, dtype=float).mean()) / self.delta

    class GenericNhpp(GenericMean):
        tag = "nhpp-generic"
        delta = 0.1

    for series, est, generic in [
        (data, mean_estimator(), GenericMean()),
        (counts, nhpp_rate_estimator(0.1), GenericNhpp()),
    ]:
        fast = var_ob3(series, lay, est).value
        slow = var_ob3(series, lay, generic).value
        assert fast == pytest.approx(slow, rel=1e-10)


def test_var_ob3_nhpp_makes_no_prefix_estimate_calls(monkeypatch):
    # the per-prefix loop would make b * m = 751 * 250 = 187,750 calls here
    est = nhpp_rate_estimator(0.1)
    calls = []
    original = type(est).estimate

    def counting(self, window):
        calls.append(len(window))
        return original(self, window)

    monkeypatch.setattr(type(est), "estimate", counting)
    data = TimeSeriesData(np.random.default_rng(17).poisson(2.0, 1000).astype(float))
    assert var_ob3(data, make_layout(1000, 250, 1), est).value > 0
    assert calls == []


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=8, max_size=60))
@settings(max_examples=60)
def test_var_ob1_nonnegative_finite(values):
    data_values = np.asarray(values)
    n = data_values.size
    m = max(2, n // 3)
    data = TimeSeriesData(data_values)
    lay = make_layout(n, m, 1)
    est = batch_estimates(data, lay, mean_estimator())
    v = var_ob1(est, lay)
    assert v.value >= 0 and math.isfinite(v.value)


def test_assemble_interval_arithmetic():
    lay = make_layout(100, 25, 25)
    est = BatchEstimates(per_batch=np.zeros(4), sectioning=0.0)
    res = assemble_interval("ob1", est, lay, 0.05, 2.0, VarianceEstimate(1.0, "ob1", 0.75))
    assert res.half_width == pytest.approx(0.2)
    assert (res.lower, res.upper) == (pytest.approx(-0.2), pytest.approx(0.2))
    assert res.lower == pytest.approx(res.center - res.half_width)
    assert res.upper == pytest.approx(res.center + res.half_width)


def test_build_interval_constant_series_degenerates(stub_cv):
    data = TimeSeriesData(np.full(40, 1.0))
    with pytest.raises(DegenerateIntervalError):
        build_interval("ob1", data, 10, 5, 0.05, mean_estimator(), stub_cv)


def test_build_interval_centers(stub_cv):
    gen = np.random.default_rng(12)
    data = TimeSeriesData(gen.standard_normal(60))
    lay = make_layout(60, 15, 5)
    est = batch_estimates(data, lay, mean_estimator())
    r1 = build_interval("ob1", data, 15, 5, 0.05, mean_estimator(), stub_cv)
    r2 = build_interval("ob2", data, 15, 5, 0.05, mean_estimator(), stub_cv)
    r3 = build_interval("ob3", data, 15, 5, 0.05, mean_estimator(), stub_cv)
    assert r1.center == pytest.approx(est.sectioning)
    assert r2.center == pytest.approx(est.batching_mean)
    assert r3.center == pytest.approx(est.sectioning)
    assert r1.critical_value_used == 1.96


def test_build_interval_beta_declared_zero_uses_normal_quantile():
    gen = np.random.default_rng(13)
    data = TimeSeriesData(gen.standard_normal(400))

    class FailIfAsked:
        def critical_value(self, method, asym, q):
            assert asym.beta == 0.0
            return float(stats.norm.ppf(q))

    res = build_interval("ob1", data, 20, 1, 0.05, mean_estimator(), FailIfAsked(), beta_declared=0.0)
    assert res.critical_value_used == pytest.approx(stats.norm.ppf(0.975))
    assert res.beta == 0.0


@pytest.mark.parametrize("method", ["ob1", "ob2", "ob3"])
def test_scale_equivariance(method):
    gen = np.random.default_rng(6)
    x = gen.standard_normal(200)
    a = 3.5
    truth = 0.0
    stub = StubCriticalValues(2.1)
    base = build_interval(method, TimeSeriesData(x), 50, 10, 0.05, mean_estimator(), stub)
    scaled = build_interval(method, TimeSeriesData(a * x), 50, 10, 0.05, mean_estimator(), stub)
    assert scaled.center == pytest.approx(a * base.center, rel=1e-10)
    assert scaled.sigma_hat == pytest.approx(a * base.sigma_hat, rel=1e-10)
    assert scaled.half_width == pytest.approx(a * base.half_width, rel=1e-10)
    assert scaled.covers(a * truth) == base.covers(truth)


def test_one_sided_intervals(stub_cv):
    gen = np.random.default_rng(14)
    data = TimeSeriesData(gen.standard_normal(80))

    class QuantileEcho:
        def __init__(self):
            self.qs = []

        def critical_value(self, method, asym, q):
            self.qs.append(q)
            return float(stats.norm.ppf(q))

    echo = QuantileEcho()
    lower = build_interval("ob1", data, 20, 4, 0.05, mean_estimator(), echo, side="lower")
    upper = build_interval("ob1", data, 20, 4, 0.05, mean_estimator(), echo, side="upper")
    assert echo.qs == [0.95, 0.95]
    assert lower.upper == math.inf and lower.lower < lower.center
    assert upper.lower == -math.inf and upper.upper > upper.center
    with pytest.raises(ValueError):
        build_interval("ob1", data, 20, 4, 0.05, mean_estimator(), echo, side="sideways")


def test_build_interval_default_source_gets_the_weight(monkeypatch):
    # an f-weighted OB-III variance must be paired with f-weighted critical values
    weight = WeightFunction(lambda v: math.sqrt(12.0) * np.ones_like(v), "flat-callable")
    seen = []

    def fake_draws(cells, replications, grid_count, master_seed, weight, workers):
        seen.append(weight)
        return {cell: np.linspace(-3.0, 3.0, 10_001) for cell in cells}

    monkeypatch.setattr(cip, "studentized_draws", fake_draws)
    data = TimeSeriesData(np.random.default_rng(15).standard_normal(200))
    result = build_interval("ob3", data, 50, 10, 0.05, mean_estimator(), weight=weight)
    assert seen == [weight]
    assert result.critical_value_used == pytest.approx(2.85, abs=1e-3)


def test_monte_carlo_source_draws_each_cell_once(monkeypatch):
    calls = []
    original = cip.studentized_draws

    def counting(cells, **kwargs):
        calls.append(list(cells))
        return original(cells, **kwargs)

    monkeypatch.setattr(cip, "studentized_draws", counting)
    source = MonteCarloCriticalValues(replications=10_000, grid_count=64, master_seed=16)
    asym = BatchAsymptotics(0.25, INFINITE)
    for q in (0.95, 0.975, 0.05, 0.95):
        assert source.critical_value("ob2", asym, q) == critical_value(
            "ob2", asym, q, replications=10_000, grid_count=64, master_seed=16
        )
    assert calls == [[("ob2", asym)]]
    assert source.critical_value("ob2", BatchAsymptotics(0.0), 0.95) == stats.norm.ppf(0.95)
    with pytest.raises(ValueError):
        source.critical_value("ob2", asym, 1.5)


def test_interval_csv_line_format():
    lay = make_layout(100, 25, 25)
    est = BatchEstimates(per_batch=np.zeros(4), sectioning=0.0)
    res = assemble_interval("ob1", est, lay, 0.05, 2.0, VarianceEstimate(1.0, "ob1", 0.75))
    fields = res.csv_line().split(",")
    assert len(fields) == 9
    assert fields[8] == "4"  # d = m = 25 > sqrt(100): finite class
