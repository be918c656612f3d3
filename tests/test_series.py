from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obci import (
    DataFormatError,
    DegenerateEstimateError,
    TimeSeriesData,
    batch_estimates,
    cvar_estimator,
    layout_from_fractions,
    load_series,
    make_layout,
    mean_estimator,
    prefix_estimates,
)


def test_layout_examples():
    assert make_layout(100, 25, 1).b == 76
    lay = make_layout(1000, 250, 250)
    assert lay.b == 4
    np.testing.assert_array_equal(lay.starts + 1, [1, 251, 501, 751])
    lay = make_layout(10, 4, 3)
    assert lay.b == 3
    np.testing.assert_array_equal(lay.starts + 1, [1, 4, 7])


def test_layout_from_fractions_examples():
    assert layout_from_fractions(1000, 0.25, 1).b == 751
    assert layout_from_fractions(1000, 0.25, 250).b == 4
    assert layout_from_fractions(1000, 0.25, 16).b == 47


@pytest.mark.parametrize("n,m,d", [(10, 11, 1), (10, 10, 1), (10, 9, 3), (10, 4, 0)])
def test_layout_rejects_bad_geometry(n, m, d):
    with pytest.raises(ValueError):
        make_layout(n, m, d)


@given(st.integers(4, 400), st.integers(2, 100), st.integers(1, 60))
def test_layout_invariants(n, m, d):
    if m > n or (n - m) // d + 1 < 2:
        return
    lay = make_layout(n, m, d)
    diffs = np.diff(lay.starts)
    assert (diffs == d).all()
    assert lay.starts[-1] + m <= n
    # disjoint windows exactly in the non-overlapping regime
    windows_disjoint = all(
        lay.starts[i + 1] >= lay.starts[i] + m for i in range(lay.b - 1)
    )
    assert windows_disjoint == (d >= m)


def test_batch_estimates_hand_example():
    data = TimeSeriesData(np.array([0.0, 0.0, 2.0, 2.0]))
    est = batch_estimates(data, make_layout(4, 2, 2), mean_estimator())
    np.testing.assert_array_equal(est.per_batch, [0.0, 2.0])
    assert est.sectioning == 1.0
    assert est.batching_mean == 1.0


def test_batch_estimates_constant_series():
    data = TimeSeriesData(np.full(12, 3.25))
    est = batch_estimates(data, make_layout(12, 4, 2), mean_estimator())
    assert (est.per_batch == 3.25).all()
    assert est.sectioning == 3.25


def test_batch_estimates_partition_matches_nonoverlapping():
    gen = np.random.default_rng(5)
    x = gen.standard_normal(20)
    data = TimeSeriesData(x)
    lay = make_layout(20, 5, 5)
    est = batch_estimates(data, lay, mean_estimator())
    expected = x[: lay.b * 5].reshape(lay.b, 5).mean(axis=1)
    np.testing.assert_allclose(est.per_batch, expected)


def test_batch_estimates_names_degenerate_batch():
    # second batch has no observation above q = 5
    data = TimeSeriesData(np.array([9.0, 9.0, 1.0, 1.0]))
    with pytest.raises(DegenerateEstimateError) as err:
        batch_estimates(data, make_layout(4, 2, 2), cvar_estimator(0.5, q=5.0))
    assert err.value.batch_index == 2


def test_batch_scale_clt():
    gen = np.random.default_rng(99)
    data = TimeSeriesData(gen.standard_normal(10_000))
    lay = make_layout(10_000, 100, 1)
    est = batch_estimates(data, lay, mean_estimator())
    scaled = np.sqrt(100) * est.per_batch
    assert abs(scaled.var() - 1.0) < 0.1


def test_prefix_estimates_examples_and_endpoint_identity():
    data = TimeSeriesData(np.array([0.0, 0.0, 2.0, 2.0]))
    with pytest.raises(ValueError):
        make_layout(4, 4, 1)  # b = 1 is rejected
    lay = make_layout(4, 2, 2)
    np.testing.assert_allclose(prefix_estimates(data, lay, 2, mean_estimator()), [2.0, 2.0])
    gen = np.random.default_rng(3)
    data = TimeSeriesData(gen.standard_normal(30))
    lay = make_layout(30, 7, 3)
    ests = batch_estimates(data, lay, mean_estimator())
    for i in range(1, lay.b + 1):
        prefixes = prefix_estimates(data, lay, i, mean_estimator())
        assert prefixes[-1] == pytest.approx(ests.per_batch[i - 1], rel=1e-12)
    with pytest.raises(ValueError):
        prefix_estimates(data, lay, lay.b + 1, mean_estimator())


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeriesData(np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeriesData(np.array([1.0, np.inf]))


def test_load_series(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("# comment\n1.5\n\n  2.5 \n-3.0\n")
    data = load_series(f)
    np.testing.assert_array_equal(data.values, [1.5, 2.5, -3.0])


def test_load_series_names_bad_line(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1.0\n2.0\noops\n")
    with pytest.raises(DataFormatError) as err:
        load_series(f)
    assert err.value.line_number == 3


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.5\r\n-2\r\n", [1.5, -2.0]),
        ("\t 3.25  \n  # a comment line\n4e-1\n\n", [3.25, 0.4]),
        ("1_000\n+.5\n-0.0", [1000.0, 0.5, -0.0]),
    ],
)
def test_load_series_accepts_what_float_accepts(tmp_path, text, expected):
    f = tmp_path / "data.txt"
    f.write_bytes(text.encode())
    values = load_series(f).values
    assert values.tolist() == expected
    assert np.array_equal(np.signbit(values), np.signbit(expected))


@pytest.mark.parametrize(
    "text,line",
    [
        ("1.0\n1.5 # inline comment\n", 2),
        ("1.0\n\n# comment\n1 2\n3.0\n", 4),
        ("1.0\r\n2.0\r\noops\r\n", 3),
    ],
)
def test_load_series_rejects_what_float_rejects(tmp_path, text, line):
    f = tmp_path / "bad.txt"
    f.write_bytes(text.encode())
    with pytest.raises(DataFormatError) as err:
        load_series(f)
    assert err.value.line_number == line


def test_load_series_rejects_nan(tmp_path):
    f = tmp_path / "nan.txt"
    f.write_text("1.0\nnan\n2.0\n")
    with pytest.raises(ValueError, match="finite"):
        load_series(f)
