from __future__ import annotations

import math
import pickle
import tracemalloc

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
from obci import functionals
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
    ["mean", "ar1", "quantile:0.5", "quantile:0.05", "cvar:0.7", "cvar:0.7:0.5244", "cvartail:0.9",
     "cvartail:0.9:1.2816", "nhpp:0.0001"],
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


def _plugin_reference(form, gamma, window):
    """The plug-in estimators by definition: the ceil(gamma w)-th sorted value
    q, then the normalized sum or the mean of the values at or above q."""
    q = np.sort(window)[math.ceil(gamma * window.size) - 1]
    tail = window[window >= q]
    return {"quantile": q, "cvar": tail.sum() / (window.size * (1.0 - gamma)),
            "cvartail": tail.mean()}[form]


@pytest.mark.parametrize("form", ["quantile", "cvar", "cvartail"])
@pytest.mark.parametrize("gamma", [0.05, 0.5, 0.7, 0.9, 0.99])
def test_plugin_estimate_matches_definition(form, gamma, rng):
    est = parse_estimator_tag(f"{form}:{gamma}")
    for w in sorted({w for w in (37, 250, 1001) if w > est.min_window} | {est.min_window}):
        # small integers: many ties with q, and every sum is exact
        tied = rng.integers(0, 5, w).astype(float)
        assert est.estimate(tied) == _plugin_reference(form, gamma, tied)
        smooth = rng.standard_normal(w)
        assert est.estimate(smooth) == pytest.approx(_plugin_reference(form, gamma, smooth), rel=1e-12)


@pytest.mark.parametrize("tag", ["quantile:0.05", "cvar:0.7", "cvartail:0.9"])
def test_plugin_estimator_survives_pickling(tag, rng):
    # coverage_experiment sends the estimator to its worker processes
    est = parse_estimator_tag(tag)
    clone = pickle.loads(pickle.dumps(est))
    assert clone == est and clone.tag == tag and clone.min_window == est.min_window
    window = rng.standard_normal(50)
    assert clone.estimate(window) == est.estimate(window)


TIED = np.array([0, 1, 1, 1, 2, 2, 3, 3, 3, 3, 1, 2, 0, 1, 3, 3, 2, 1, 0, 1], dtype=float)


@pytest.mark.parametrize("tag", ["cvar:0.7", "cvartail:0.7", "quantile:0.7"])
def test_plugin_sliding_equals_estimate_on_tied_windows(tag):
    # the tail is every value at or above the ceil(gamma m)-th order statistic,
    # ties included, in both paths; every sum here is exact
    est = parse_estimator_tag(tag)
    starts = np.arange(TIED.size - 10 + 1)
    sliding = est.sliding_estimates(TIED, starts, 10)
    assert list(sliding) == [est.estimate(TIED[s : s + 10]) for s in starts]
    # start 5: five 3s at or above q = 3, over 10 * 0.3; start 9: q = 2 and
    # the tail 2, 2, 3, 3, 3 (not the top four values)
    expected = {"cvar:0.7": (5, 5.0), "cvartail:0.7": (9, 2.6), "quantile:0.7": (9, 2.0)}[tag]
    assert sliding[expected[0]] == pytest.approx(expected[1], rel=1e-15)


@pytest.mark.parametrize("tag", ["quantile:0.9", "cvar:0.9", "cvartail:0.9"])
def test_plugin_sliding_does_not_depend_on_chunking(tag, rng, monkeypatch):
    # blocks of 9 windows (m = 200, d = 3), each with 9 x 45 candidates; the
    # default chunk holds hundreds of blocks, the patched ones two and one
    est = parse_estimator_tag(tag)
    x = rng.standard_normal(2000)
    m = 200
    starts = np.arange(0, x.size - m + 1, 3)
    assert functionals._block_size(m, 3) == 9
    gathers = []
    gather = functionals._gather
    monkeypatch.setattr(functionals, "_gather", lambda *a: gathers.append(1) or gather(*a))
    whole = est.sliding_estimates(x, starts, m)
    calls = [len(gathers)]
    for chunk in (2 * 8 * 9 * 45, 1):
        monkeypatch.setattr(functionals, "_CHUNK_BYTES", chunk)
        gathers.clear()
        assert np.array_equal(est.sliding_estimates(x, starts, m), whole)
        calls.append(len(gathers))
    # 601 windows: 66 blocks of 9, then one of 7 in a chunk of its own; three
    # row copies per chunk, the cores and the two edges
    assert calls == [3 + 3, 3 * 33 + 3, 3 * 66 + 3]


def _check_kernel(x, starts, m, k, tied):
    # against the tail rule of estimate(), window by window: every value at
    # or above the k-th smallest; sums are exact on small integers and within
    # rounding of the values' scale on continuous data
    q, sums, counts = functionals._sliding_order_stats(x, starts, m, k, tails=True)
    for i, s in enumerate(starts):
        w = x[s : s + m]
        q0 = np.partition(w, k - 1)[k - 1]
        assert q[i] == q0 and counts[i] == np.count_nonzero(w >= q0), (m, k, i)
        sum0 = w[w >= q0].sum()
        assert sums[i] == sum0 if tied else abs(sums[i] - sum0) <= 1e-12 * max(abs(sum0), m)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_banded_kernel_matches_every_window(d):
    # random evenly spaced starts whose count is not a multiple of the block
    # size, and every plug-in estimator against estimate() on each window
    gen = np.random.default_rng(100 + d)
    banded = 0
    for m in (cvar_min_window(0.99), 64 * d + 5, 70 * d + 31):
        size = functionals._block_size(m, d)
        b = 3 * max(size, 20) + 2
        starts = gen.integers(0, 50) + d * np.arange(b)
        banded += size > 1 and b % size != 0
        for tied in (False, True):
            x = gen.integers(0, 4, starts[-1] + m).astype(float) if tied else gen.standard_normal(starts[-1] + m)
            for gamma in (0.05, 0.5, 0.7, 0.9, 0.99):
                _check_kernel(x, starts, m, math.ceil(gamma * m), tied)
                for kind in ("quantile", "cvar", "cvartail"):
                    est = parse_estimator_tag(f"{kind}:{gamma}")
                    if m < est.min_window:
                        continue
                    fast = est.sliding_estimates(x, starts, m)
                    slow = np.array([est.estimate(x[s : s + m]) for s in starts])
                    if kind == "quantile" or tied:
                        assert np.array_equal(fast, slow), (kind, m, tied, gamma)
                    else:
                        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12)
    assert banded >= 2


@pytest.mark.parametrize("tied", [False, True])
def test_banded_kernel_takes_uneven_starts(tied):
    gen = np.random.default_rng(8)
    m = 300
    starts = np.cumsum(gen.integers(0, 6, 400))
    starts[200:] = starts[199] + np.arange(1, 201)  # evenly spaced from here on
    x = gen.integers(0, 4, starts[-1] + m).astype(float) if tied else gen.standard_normal(starts[-1] + m)
    for gamma in (0.05, 0.7, 0.9):
        _check_kernel(x, starts, m, math.ceil(gamma * m), tied)


def test_plugin_sliding_memory_is_bounded(rng):
    # 15,001 windows of 5000 values: a full window copy would need 600 MB;
    # 75,001 windows of 25,000 (the paper's n = 10^5, beta = 1/4) 15 GB
    for n, m in ((20_000, 5000), (100_000, 25_000)):
        x = rng.standard_normal(n)
        starts = np.arange(x.size - m + 1)
        for est in (quantile_estimator(0.9), cvar_tail_mean_estimator(0.9)):
            tracemalloc.start()
            try:
                est.sliding_estimates(x, starts, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, (m, est.tag)


@pytest.mark.parametrize("gamma", [0.5, 0.7, 0.9, 0.95])
@pytest.mark.parametrize("kind", ["quantile", "cvar", "cvartail"])
def test_plugin_prefix_estimates_match_estimate_loop(kind, gamma):
    # the running order-statistic kernel against the base-class loop over
    # estimate(): the quantile is the same selected value, and on small
    # integers (ties) every sum is exact; on continuous data only the
    # summation order differs
    est = parse_estimator_tag(f"{kind}:{gamma}")
    gen = np.random.default_rng(29)
    for m in range(1, 41):
        for tied in (False, True):
            window = gen.integers(0, 4, m).astype(float) if tied else gen.standard_normal(m)
            fast = est.prefix_estimates(window)
            slow = FunctionalEstimator.prefix_estimates(est, window)
            assert np.array_equal(np.isnan(fast), np.isnan(slow)), (m, tied)
            defined = ~np.isnan(slow)
            if kind == "quantile" or tied:
                assert np.array_equal(fast[defined], slow[defined]), (m, tied)
            else:
                np.testing.assert_allclose(fast[defined], slow[defined], rtol=1e-12, atol=0)


@pytest.mark.parametrize("tag", ["quantile:0.9", "cvar:0.9", "cvartail:0.9"])
def test_plugin_prefix_estimates_make_no_estimate_calls(tag, rng, monkeypatch):
    est = parse_estimator_tag(tag)

    def unexpected(self, window):
        raise AssertionError("estimate was called")

    monkeypatch.setattr(type(est), "estimate", unexpected)
    prefixes = est.prefix_estimates(rng.standard_normal(250))
    assert np.isnan(prefixes).sum() == est.min_window - 1
