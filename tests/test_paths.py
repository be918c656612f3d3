from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from obci import SeedSpec, WienerPath, bridge_weight_integral, constant_sqrt12, simulate_wiener
from obci.paths import stream_generators, wiener_block


def test_single_increment_is_plain_normal_draw():
    path = simulate_wiener(1.0, 1, SeedSpec(7, 0))
    assert path.values[0] == 0.0
    assert path.values.shape == (2,)
    assert np.isfinite(path.values[1])


def test_same_seed_gives_bit_identical_paths():
    a = simulate_wiener(2.0, 128, SeedSpec(42, 3))
    b = simulate_wiener(2.0, 128, SeedSpec(42, 3))
    assert np.array_equal(a.values, b.values)


def test_distinct_streams_differ():
    a = simulate_wiener(1.0, 128, SeedSpec(42, 0))
    b = simulate_wiener(1.0, 128, SeedSpec(42, 1))
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("horizon,grid", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_rejects_bad_geometry(horizon, grid):
    with pytest.raises(ValueError):
        simulate_wiener(horizon, grid, SeedSpec(1))


def test_eval_at_endpoints_and_rounding():
    path = simulate_wiener(1.0, 4, SeedSpec(5))
    assert path.eval_at(0.0) == 0.0
    assert path.eval_at(1.0) == path.values[4]
    # nearest grid point: 0.26 * 4 = 1.04 -> index 1
    assert path.eval_at(0.26) == path.values[1]
    # ties round toward zero: 0.375 * 4 = 1.5 -> index 1, 0.125 * 4 = 0.5 -> 0
    assert path.grid_index(0.375) == 1
    assert path.grid_index(0.125) == 0
    with pytest.raises(ValueError):
        path.eval_at(1.5)
    with pytest.raises(ValueError):
        path.eval_at(-0.1)


def test_bridge_integral_zero_path_and_linear_path():
    zero = WienerPath(1.0, 64, np.zeros(65))
    assert bridge_weight_integral(zero, 0.0, constant_sqrt12()) == 0.0
    # straight line: its unit bridge vanishes identically
    linear = WienerPath(1.0, 64, np.arange(65) / 64.0)
    assert bridge_weight_integral(linear, 0.0, constant_sqrt12()) == pytest.approx(0.0, abs=1e-12)


def test_bridge_integral_rejects_window_past_horizon():
    path = simulate_wiener(1.5, 96, SeedSpec(9))
    with pytest.raises(ValueError):
        bridge_weight_integral(path, 0.75, constant_sqrt12())


def test_increments_are_iid_normal_ks():
    n = 10_000
    path = simulate_wiener(2.0, n, SeedSpec(20240612, 0))
    increments = np.diff(path.values) / np.sqrt(2.0 / n)
    assert stats.kstest(increments, "norm").pvalue > 1e-3


def test_block_rows_match_single_streams():
    block = wiener_block(32, 1.0 / 32, 99, 5, 3)
    for r in range(3):
        single = simulate_wiener(1.0, 32, SeedSpec(99, 5 + r))
        assert np.array_equal(block[r], single.values)


@pytest.mark.parametrize("cells", [1, 256, 4096])
def test_block_matches_out_of_place_cumsum(cells):
    # the block is summed in place; it must equal np.cumsum of the same normals
    rows, seed, lo = 3, 2024, 17
    z = np.zeros((rows, cells + 1))
    for r in range(rows):
        z[r, 1:] = SeedSpec(seed, lo + r).generator().standard_normal(cells)
    expected = np.cumsum(z, axis=1)
    expected *= math.sqrt(1.0 / cells)
    block = wiener_block(cells, 1.0 / cells, seed, lo, rows)
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))


@pytest.mark.slow
def test_terminal_value_variance_unit():
    # Var W(1) = 1, checked over 1e5 seeds at the default grid
    total = 0.0
    total_sq = 0.0
    reps = 100_000
    for lo in range(0, reps, 4096):
        rows = min(4096, reps - lo)
        w = wiener_block(4096, 1.0 / 4096, 31337, lo, rows)
        final = w[:, -1]
        total += final.sum()
        total_sq += (final**2).sum()
    var = total_sq / reps - (total / reps) ** 2
    assert 0.99 <= var <= 1.01


@pytest.mark.slow
def test_bridge_integral_normalized_variance_and_mean():
    # f = sqrt(12) makes Var(int f B) = 1; mean stays within 3 MC standard errors of 0
    reps = 100_000
    grid = 512
    vals = np.empty(reps)
    weight = constant_sqrt12()
    for lo in range(0, reps, 8192):
        rows = min(8192, reps - lo)
        w = wiener_block(grid, 1.0 / grid, 220824, lo, rows)
        for r in range(rows):
            path = WienerPath(1.0, grid, w[r])
            vals[lo + r] = bridge_weight_integral(path, 0.0, weight)
    assert 0.97 <= vals.var() <= 1.03
    assert abs(vals.mean()) <= 3.0 / np.sqrt(reps)


def test_stream_generators_match_fresh_generators():
    for r, gen in enumerate(stream_generators(99, 5, 4)):
        fresh = SeedSpec(99, 5 + r).generator()
        # a part-used buffer of the previous stream must not leak into the next
        assert gen.random() == fresh.random()
        assert np.array_equal(gen.standard_normal(7), fresh.standard_normal(7))
        assert gen.integers(1 << 30) == fresh.integers(1 << 30)
