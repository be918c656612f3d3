from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from obci import (
    DegenerateEstimateError,
    TimeSeriesData,
    batch_estimates,
    make_layout,
    ar1_estimator,
    cvar_estimator,
    cvar_tail_mean_estimator,
    mean_estimator,
    nhpp_rate_estimator,
    parse_estimator_tag,
    quantile_estimator,
)
from obci.functionals import FunctionalEstimator, cvar_min_window

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_mean_examples():
    est = mean_estimator()
    assert est.estimate(np.array([1.0, 2.0, 3.0])) == 2.0
    assert est.estimate(np.array([4.2])) == 4.2
    assert est.estimate(np.array([0.0, 0.0, 2.0, 2.0])) == 1.0
    with pytest.raises(DegenerateEstimateError):
        est.estimate(np.array([]))


def test_quantile_examples():
    assert quantile_estimator(0.5).estimate(np.array([3.0, 1.0, 2.0])) == 2.0
    assert quantile_estimator(0.3).estimate(np.array([5.0])) == 5.0
    assert quantile_estimator(0.75).estimate(np.array([1.0, 2.0, 3.0, 4.0])) == 3.0


@given(st.lists(finite_floats, min_size=1, max_size=40), st.floats(0.01, 0.99))
def test_quantile_is_a_window_member(values, gamma):
    window = np.asarray(values)
    assert quantile_estimator(gamma).estimate(window) in window


def test_cvar_known_q_hand_example():
    est = cvar_estimator(0.5, q=0.0)
    assert est.estimate(np.array([-1.0, 1.0])) == pytest.approx(1.0)


def test_cvar_degenerate_when_all_below_q():
    est = cvar_estimator(0.5, q=10.0)
    with pytest.raises(DegenerateEstimateError):
        est.estimate(np.array([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("gamma,expected", [(0.7, 4), (0.9, 10), (0.95, 20)])
def test_cvar_min_window(gamma, expected):
    assert cvar_min_window(gamma) == expected
    assert cvar_estimator(gamma).min_window == expected


@given(st.lists(finite_floats, min_size=4, max_size=50), st.floats(-2.0, 2.0))
def test_cvar_known_q_equals_scaled_exceedance_mean(values, q):
    # normalized tail sum = (mean of exceedances) * (exceedance fraction) / (1 - gamma)
    gamma = 0.5
    window = np.asarray(values)
    exceed = window[window >= q]
    est = cvar_estimator(gamma, q=q)
    if exceed.size == 0:
        with pytest.raises(DegenerateEstimateError):
            est.estimate(window)
        return
    frac = exceed.size / window.size
    expected = exceed.mean() * frac / (1 - gamma)
    assert est.estimate(window) == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert est.estimate(window) >= q * frac / (1 - gamma) - 1e-9


def test_cvar_plugin_hits_normal_truth():
    # population value for gamma = 0.7 standard normal tails
    truth = stats.norm.pdf(stats.norm.ppf(0.7)) / 0.3
    assert truth == pytest.approx(1.1590, abs=5e-5)
    gen = np.random.default_rng(2024)
    est = cvar_estimator(0.7)
    hits = sum(
        abs(est.estimate(gen.standard_normal(10_000)) - truth) < 0.05 for _ in range(100)
    )
    assert hits >= 99


def test_ar1_examples():
    est = ar1_estimator()
    assert est.estimate(np.array([1.0, 0.5, 0.25])) == pytest.approx(0.5)
    assert est.estimate(np.array([1.0, 1.0])) == 1.0
    with pytest.raises(DegenerateEstimateError):
        est.estimate(np.array([0.0, 0.0, 0.0]))


@given(st.lists(finite_floats, min_size=2, max_size=30), st.floats(0.1, 10.0))
@settings(max_examples=60)
def test_ar1_scale_invariance(values, scale):
    window = np.asarray(values)
    est = ar1_estimator()
    if not np.dot(window[:-1], window[:-1]) > 0:
        return
    assert est.estimate(window * scale) == pytest.approx(est.estimate(window), rel=1e-9)


@given(st.lists(finite_floats, min_size=1, max_size=30), st.floats(-100, 100))
def test_mean_translation_consistency(values, shift):
    window = np.asarray(values)
    est = mean_estimator()
    assert est.estimate(window + shift) == pytest.approx(est.estimate(window) + shift, abs=1e-6)


def test_nhpp_examples():
    est = nhpp_rate_estimator(1e-4)
    assert est.estimate(np.array([0.0, 0.0, 1.0, 0.0])) == pytest.approx(2500.0)
    assert est.estimate(np.zeros(8)) == 0.0
    with pytest.raises(ValueError):
        est.estimate(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        est.sliding_estimates(np.array([1.0, -1.0, 2.0]), np.arange(2), 2)


@pytest.mark.parametrize(
    "tag",
    ["mean", "ar1", "quantile:0.5", "cvar:0.7", "cvar:0.7:0.5244", "cvartail:0.9:1.2816", "nhpp:0.0001"],
)
def test_tag_round_trip(tag):
    assert parse_estimator_tag(tag).tag == tag.replace("0.0001", "0.0001")


@pytest.mark.parametrize("tag", ["bogus", "quantile", "cvar:1.5", "nhpp:-1", "mean:1"])
def test_bad_tags_rejected(tag):
    with pytest.raises(ValueError):
        parse_estimator_tag(tag)


@pytest.mark.parametrize(
    "factory",
    [
        mean_estimator,
        lambda: quantile_estimator(0.7),
        lambda: cvar_estimator(0.7),
        lambda: cvar_estimator(0.7, q=0.5244),
        lambda: cvar_tail_mean_estimator(0.7, q=0.5244),
        ar1_estimator,
        lambda: nhpp_rate_estimator(1e-4),
    ],
)
def test_sliding_matches_single_window(factory, rng):
    est = factory()
    x = np.abs(rng.standard_normal(300)) if est.tag.startswith("nhpp") else rng.standard_normal(300)
    m = max(40, est.min_window)
    starts = np.arange(0, 300 - m + 1, 7)
    fast = est.sliding_estimates(x, starts, m)
    assert fast is not None
    slow = np.array([est.estimate(x[s : s + m]) for s in starts])
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_prefix_estimates_running_means():
    est = mean_estimator()
    np.testing.assert_allclose(est.prefix_estimates(np.array([1.0, 3.0])), [1.0, 2.0])
    np.testing.assert_allclose(
        est.prefix_estimates(np.array([0.0, 0.0, 2.0, 2.0])), [0.0, 0.0, 2 / 3, 1.0]
    )


def test_prefix_estimates_flag_short_windows():
    est = ar1_estimator()
    out = est.prefix_estimates(np.array([1.0, 0.5, 0.25]))
    assert np.isnan(out[0])
    assert out[1] == pytest.approx(0.5)
    assert out[2] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "factory",
    [
        mean_estimator,
        lambda: nhpp_rate_estimator(0.5),
        ar1_estimator,
        lambda: cvar_estimator(0.7, q=1.0),
        lambda: cvar_tail_mean_estimator(0.7, q=1.0),
    ],
)
def test_sum_form_sliding_equals_estimate_on_every_window(factory):
    # ties, values equal to q = 1, and runs below q and of zeros long enough
    # to leave windows of the ratio forms degenerate; every sum is exact
    x = np.array([0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 1, 2, 0, 1, 3, 3, 2, 1, 0, 1,
                  0, 0, 0, 0, 0, 0, 1, 0.5, 0.5, 0, 0, 0, 0], dtype=float)
    est = factory()
    degenerate = 0
    for m in range(est.min_window, est.min_window + 6):
        starts = np.arange(x.size - m + 1)
        for s, value in zip(starts, est.sliding_estimates(x, starts, m)):
            try:
                expected = est.estimate(x[s : s + m])
            except DegenerateEstimateError:
                degenerate += 1
                assert np.isnan(value), (m, s)
            else:
                assert value == expected, (m, s)
    assert (degenerate > 0) == (est.tag.split(":")[0] in ("ar1", "cvar", "cvartail"))


def test_user_estimator_needs_only_estimate():
    class NonzeroMean(FunctionalEstimator):
        tag = "nonzero-mean"
        min_window = 2

        def estimate(self, window):
            window = self.check_window(window)
            if not window.any():
                raise DegenerateEstimateError("all zero")
            return float(window.mean())

    x = np.array([1.0, 0.0, 0.0, 3.0])
    np.testing.assert_array_equal(
        NonzeroMean().sliding_estimates(x, np.arange(3), 2), [0.5, np.nan, 1.5]
    )
    with pytest.raises(DegenerateEstimateError) as err:
        batch_estimates(TimeSeriesData(x), make_layout(4, 2, 1), NonzeroMean())
    assert err.value.batch_index == 2
