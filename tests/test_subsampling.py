from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obci import (
    DegenerateIntervalError,
    TimeSeriesData,
    cvar_estimator,
    mean_estimator,
    subsample_distribution,
    subsampling_interval,
)


def test_roots_hand_example():
    data = TimeSeriesData(np.array([0.0, 0.0, 2.0, 2.0]))
    dist = subsample_distribution(data, 2, mean_estimator())
    np.testing.assert_allclose(dist.values, [-np.sqrt(2), 0.0, np.sqrt(2)])
    assert dist.m == 2
    assert dist.tau_sub == pytest.approx(np.sqrt(2))
    assert dist.tau_full == pytest.approx(2.0)


def test_constant_series_zero_roots_and_zero_width_interval():
    data = TimeSeriesData(np.full(25, 4.0))
    dist = subsample_distribution(data, 5, mean_estimator())
    assert (dist.values == 0.0).all()
    interval = subsampling_interval(data, mean_estimator(), 0.05)
    assert interval.lower == interval.upper == 4.0


def test_subsample_quantile_matches_clt():
    gen = np.random.default_rng(2718)
    data = TimeSeriesData(gen.standard_normal(10_000))
    dist = subsample_distribution(data, 100, mean_estimator())
    assert abs(dist.quantile(0.95) - 1.645) < 0.1


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=9, max_size=60), st.floats(0.05, 0.95))
@settings(max_examples=50)
def test_quantile_inversion_minimal(values, q):
    data_values = np.asarray(values)
    if np.ptp(data_values) == 0:
        return
    data = TimeSeriesData(data_values)
    dist = subsample_distribution(data, 3, mean_estimator())
    c = dist.quantile(q)
    frac = np.mean(dist.values <= c)
    assert frac >= q
    below = dist.values[dist.values < c]
    if below.size:
        assert np.mean(dist.values <= below.max()) < q


def test_interval_contains_center_when_roots_bracket_zero():
    gen = np.random.default_rng(11)
    data = TimeSeriesData(gen.standard_normal(100))
    interval = subsampling_interval(data, mean_estimator(), 0.05)
    assert interval.lower <= interval.center <= interval.upper


def test_translation_equivariance():
    gen = np.random.default_rng(12)
    x = gen.standard_normal(81)
    shift = 5.25
    a = subsampling_interval(TimeSeriesData(x), mean_estimator(), 0.1)
    b = subsampling_interval(TimeSeriesData(x + shift), mean_estimator(), 0.1)
    assert b.lower == pytest.approx(a.lower + shift, rel=1e-10)
    assert b.upper == pytest.approx(a.upper + shift, rel=1e-10)


def test_needs_nine_observations():
    with pytest.raises(ValueError):
        subsampling_interval(TimeSeriesData(np.arange(8.0)), mean_estimator(), 0.05)


def test_too_few_valid_subsamples():
    # exceedances only at the head: the full estimate exists, but just two of
    # the 73 subsample windows contain an observation above q
    x = np.zeros(81)
    x[:2] = 5.0
    with pytest.raises(DegenerateIntervalError):
        subsampling_interval(TimeSeriesData(x), cvar_estimator(0.5, q=1.0), 0.05)


def test_dropped_subsample_count():
    # exactly the windows fully below q = 1 drop out
    data = TimeSeriesData(np.array([2.0, 0.0, 0.0, 0.0, 2.0, 2.0]))
    dist = subsample_distribution(data, 3, cvar_estimator(0.5, q=1.0))
    assert dist.dropped == 1
    assert dist.values.size == 3


def test_interval_estimates_the_full_sample_once(monkeypatch):
    estimator = mean_estimator()
    original = type(estimator).estimate
    sizes = []

    def counting(self, window):
        sizes.append(len(window))
        return original(self, window)

    monkeypatch.setattr(type(estimator), "estimate", counting)
    data = TimeSeriesData(np.random.default_rng(13).standard_normal(100))
    interval = subsampling_interval(data, estimator, 0.05)
    assert sizes == [100]
    assert interval.center == subsample_distribution(data, 10, mean_estimator()).full
