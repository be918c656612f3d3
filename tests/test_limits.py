from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from obci import (
    INFINITE,
    BatchAsymptotics,
    CriticalValueEntry,
    CriticalValueTable,
    LimitSample,
    MonteCarloCriticalValues,
    SeedSpec,
    WienerPath,
    constant_sqrt12,
    critical_value,
    critical_values,
    draw_limit_samples,
    kappa1,
    kappa2,
    obi_asymptotic_variance,
    obi_variance_fully_overlapping,
    sample_obi_limit,
    sample_obii_limit,
    sample_obiii_limit,
    weighting_condition_estimate,
)
from obci import limits
from obci.limits import WeightFunction, _obi_pair, _obii_pair, _obiii_pair


def test_kappa1_examples():
    assert kappa1(0.0) == 1.0
    assert kappa1(0.25) == 0.75
    assert kappa1(0.5) == 0.5
    with pytest.raises(ValueError):
        kappa1(1.0)


def test_kappa2_examples():
    assert kappa2(0.0) == 1.0
    assert kappa2(0.25, INFINITE) == pytest.approx(19 / 27, rel=1e-12)
    assert kappa2(0.5, INFINITE) == pytest.approx(1 / 3, rel=1e-12)
    assert kappa2(0.5, 2) == pytest.approx(0.5, rel=1e-12)
    assert kappa2(0.25, 13) == pytest.approx(122 / 169, rel=1e-12)


def test_batch_asymptotics_validation_and_d_lim():
    with pytest.raises(ValueError):
        BatchAsymptotics(beta=1.0)
    with pytest.raises(ValueError):
        BatchAsymptotics(beta=0.2, b_inf=1)
    asym = BatchAsymptotics(beta=0.5, b_inf=INFINITE, eta=0.5)
    assert asym.d_lim == 1.0
    assert BatchAsymptotics(beta=0.5, b_inf=INFINITE, eta=0.0).d_lim == INFINITE


def test_limit_sample_rejects_negative_chi2():
    with pytest.raises(ValueError):
        LimitSample(numerator=0.0, chi2=-1.0)


def _zero_path(horizon: float, grid: int) -> WienerPath:
    return WienerPath(horizon, grid, np.zeros(grid + 1))


def test_zero_path_injection_gives_zero_samples():
    asym = BatchAsymptotics(beta=0.25, b_inf=INFINITE)
    s1 = sample_obi_limit(asym, path=_zero_path(1.0, 64))
    s2 = sample_obii_limit(asym, path=_zero_path(1.0, 64))
    s3 = sample_obiii_limit(asym, path=_zero_path(4.0, 256))
    for s in (s1, s2, s3):
        assert s.numerator == 0.0
        assert s.chi2 == 0.0


def test_negated_path_flips_numerator_and_fixes_chi2():
    # symmetry of every limit law: W -> -W flips the numerator, fixes chi2
    gen = np.random.default_rng(8)
    z = np.concatenate(([0.0], gen.standard_normal(256))).cumsum() / 16.0
    z[0] = 0.0
    for method, horizon in (("ob1", 1.0), ("ob2", 1.0), ("ob3", 4.0)):
        grid = 256
        path = WienerPath(horizon, grid, z)
        flipped = WienerPath(horizon, grid, -z)
        asym = BatchAsymptotics(beta=0.25, b_inf=10)
        sample = {
            "ob1": sample_obi_limit,
            "ob2": sample_obii_limit,
        }.get(method)
        if sample is None:
            a = sample_obiii_limit(asym, path=path)
            b = sample_obiii_limit(asym, path=flipped)
        else:
            a = sample(asym, path=path)
            b = sample(asym, path=flipped)
        assert b.numerator == pytest.approx(-a.numerator, rel=1e-12)
        assert b.chi2 == pytest.approx(a.chi2, rel=1e-12)


def test_samplers_reject_small_batch_regime():
    asym = BatchAsymptotics(beta=0.0)
    with pytest.raises(ValueError):
        sample_obi_limit(asym, SeedSpec(1))


def test_exact_mean_case_smoke():
    # E[chi2] = 1 exactly at (beta=1/2, b_inf=2); loose bound at small R
    cell = ("ob1", BatchAsymptotics(beta=0.5, b_inf=2))
    _, chis = draw_limit_samples([cell], 20_000, grid_count=512, master_seed=11)[cell]
    assert abs(chis.mean() - 1.0) < 0.04


def test_unpicklable_weight_is_rejected_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cell = ("ob3", BatchAsymptotics(0.5))
    weight = WeightFunction(lambda v: 1.0 + v, "linear")
    with pytest.raises(ValueError, match="weight 'linear'.*module level"):
        draw_limit_samples([cell], 10_000, 128, 77, weight, workers=2)
    with pytest.raises(ValueError, match="weight 'linear'"):
        critical_value(*cell, 0.95, 10_000, 128, 77, weight, 2)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_is_rejected_before_any_draw(monkeypatch, workers):
    def no_draw(*args, **kwargs):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(limits, "_draw_block", no_draw)
    drawn, small = ("ob1", BatchAsymptotics(0.25)), ("ob1", BatchAsymptotics(0.0))
    calls = [
        lambda: draw_limit_samples([drawn], 10_000, workers=workers),
        lambda: critical_value(*drawn, 0.95, workers=workers),
        lambda: critical_values([small], [0.95], workers=workers),
        lambda: MonteCarloCriticalValues(workers=workers).critical_value(*drawn, 0.95),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="workers must be at least 1"):
            call()


def test_draws_identical_across_worker_counts():
    cell = ("ob2", BatchAsymptotics(beta=0.25, b_inf=INFINITE))
    a = draw_limit_samples([cell], 2_000, grid_count=128, master_seed=3, workers=1)[cell]
    b = draw_limit_samples([cell], 2_000, grid_count=128, master_seed=3, workers=2)[cell]
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_critical_value_small_batch_dispatch():
    asym = BatchAsymptotics(beta=0.0)
    assert critical_value("ob1", asym, 0.95) == stats.norm.ppf(0.95)
    assert critical_value("ob2", asym, 0.975) == stats.norm.ppf(0.975)


def test_critical_value_monotone_in_q():
    asym = BatchAsymptotics(beta=0.25, b_inf=INFINITE)
    values = [
        critical_value("ob1", asym, q, replications=10_000, grid_count=256, master_seed=5)
        for q in (0.8, 0.9, 0.95, 0.975)
    ]
    assert values == sorted(values)


def test_critical_value_requires_enough_replications():
    with pytest.raises(ValueError):
        critical_value("ob1", BatchAsymptotics(0.25), 0.95, replications=100)


# ob1/ob2 at two betas and ob3 at one beta, each with infinite and finite b_inf
MIXED_CELLS = [
    (method, BatchAsymptotics(beta, b_inf))
    for method, beta in (("ob1", 0.2), ("ob1", 0.25), ("ob2", 0.2), ("ob2", 0.25), ("ob3", 0.5))
    for b_inf in (INFINITE, 10)
]
MIXED_QS = (0.05, 0.9, 0.975)


def test_critical_values_match_per_level_critical_value():
    values = critical_values(MIXED_CELLS, MIXED_QS, 10_000, 128, 41)
    assert list(values) == MIXED_CELLS
    for method, asym in MIXED_CELLS:
        expected = tuple(
            critical_value(method, asym, q, 10_000, 128, 41) for q in MIXED_QS
        )
        assert values[(method, asym)] == expected


def test_critical_values_identical_across_worker_counts():
    cells = [MIXED_CELLS[0], MIXED_CELLS[3], MIXED_CELLS[-1]]
    one = critical_values(cells, MIXED_QS, 10_000, 64, 42, workers=1)
    two = critical_values(cells, MIXED_QS, 10_000, 64, 42, workers=2)
    assert one == two


def test_critical_values_small_batch_and_level_checks():
    asym = BatchAsymptotics(beta=0.0)
    values = critical_values([("ob1", asym)], [0.95, 0.975])
    assert values[("ob1", asym)] == (stats.norm.ppf(0.95), stats.norm.ppf(0.975))
    with pytest.raises(ValueError):
        critical_values([("ob1", asym)], [0.95, 1.0])


def test_critical_values_redraws_zero_chi2_per_cell(monkeypatch, caplog):
    # force chi2 = 0 wherever the OB-I numerator exceeds 1, so about 16% of
    # the OB-I draws, and some of their redraws, go through the redraw loop
    original = limits._evaluate_block

    def zero_large(method, w, beta, b_inf, grid_count, weight):
        num, chi = original(method, w, beta, b_inf, grid_count, weight)
        if method == "ob1":
            chi = np.where(num > 1.0, 0.0, chi)
        return num, chi

    grid, seed, reps = 64, 43, 10_000
    asym = BatchAsymptotics(0.25, INFINITE)
    ob1, ob2 = ("ob1", asym), ("ob2", asym)
    plain_ob2 = limits.studentized_draws([ob2], reps, grid, seed)[ob2]
    monkeypatch.setattr(limits, "_evaluate_block", zero_large)
    nums, chis = draw_limit_samples([ob1], reps, grid, seed)[ob1]
    bad = np.flatnonzero(chis <= 0.0)
    assert bad.size > 1000
    with caplog.at_level("WARNING", logger="obci.limits"):
        draws = limits.studentized_draws([ob1, ob2], reps, grid, seed)
    assert np.all(np.isfinite(draws[ob1]))
    # the first rejected row takes the first fresh stream, number `reps`
    fresh = sample_obi_limit(asym, SeedSpec(seed, reps), grid_count=grid)
    assert fresh.chi2 > 0
    assert draws[ob1][bad[0]] == fresh.numerator / math.sqrt(fresh.chi2)
    kept = np.setdiff1d(np.arange(reps), bad)
    assert np.array_equal(draws[ob1][kept], nums[kept] / np.sqrt(chis[kept]))
    assert np.array_equal(draws[ob2], plain_ob2)
    counts = [int(r.getMessage().split()[3]) for r in caplog.records if "redrew" in r.getMessage()]
    assert len(counts) == 1 and counts[0] > bad.size


@pytest.mark.parametrize("b_inf", [INFINITE, 10])
def test_evaluators_leave_the_shared_block_unchanged(b_inf):
    grid = 64
    w = limits.wiener_block(2 * grid, 1.0 / grid, 44, 0, 8)
    before = w.copy()
    w.setflags(write=False)  # any in-place write would raise
    _obi_pair(w[:, : grid + 1], 0.25, b_inf)
    _obii_pair(w[:, : grid + 1], 0.25, b_inf)
    _obiii_pair(w, 0.5, b_inf, grid, constant_sqrt12())
    _obiii_pair(w, 0.5, b_inf, grid, WeightFunction(lambda v: 1.0 + v, "linear"))
    assert np.array_equal(w, before)


@pytest.mark.parametrize("b_inf", [INFINITE, 10])
def test_obi_obii_in_place_match_out_of_place_expressions(b_inf):
    # the evaluators subtract in place; the same arithmetic written out of place
    # must give the same bits
    grid = 256
    w = limits.wiener_block(grid, 1.0 / grid, 46, 0, 12)
    k = round(0.2 * grid)
    bd = k / grid
    w1 = w[:, grid]
    if math.isinf(b_inf):
        d = w[:, k:] - w[:, : grid + 1 - k] - bd * w1[:, None]
        integral = np.einsum("ij,ij->i", d[:, : grid - k], d[:, : grid - k]) / grid
        ob1_chi = (1.0 / kappa1(bd)) * integral / (bd * (1.0 - bd))
        wt = (w[:, k:] - w[:, : grid + 1 - k])[:, : grid - k]
        mean = wt.mean(axis=1)
        centred = wt - mean[:, None]
        integral = np.einsum("ij,ij->i", centred, centred) / grid
        ob2_chi = integral / (kappa2(bd, INFINITE) * bd * (1.0 - bd))
    else:
        cs = limits._finite_starts(grid - k, b_inf)
        d = w[:, cs + k] - w[:, cs] - bd * w1[:, None]
        ob1_chi = (1.0 / kappa1(bd)) * np.einsum("ij,ij->i", d, d) / (bd * b_inf)
        wt = w[:, cs + k] - w[:, cs]
        mean = wt.mean(axis=1)
        centred = wt - mean[:, None]
        ob2_chi = np.einsum("ij,ij->i", centred, centred) / (kappa2(bd, b_inf) * bd * b_inf)
    num, chi = _obi_pair(w, 0.2, b_inf)
    assert np.array_equal(num, w1) and np.array_equal(chi, ob1_chi)
    num, chi = _obii_pair(w, 0.2, b_inf)
    assert np.array_equal(num, mean / bd) and np.array_equal(chi, ob2_chi)


# ob1/ob2/ob3 with infinite and finite b_inf; at grid 1024 a default chunk
# holds 127 rows of an ob1/ob2 path and 63 of an ob3 path, and 300 is a
# multiple of neither
CHUNK_CELLS = [
    (method, BatchAsymptotics(beta, b_inf))
    for method, beta in (("ob1", 0.2), ("ob2", 0.25), ("ob3", 0.5))
    for b_inf in (INFINITE, 4)
]
SAMPLERS = {"ob1": sample_obi_limit, "ob2": sample_obii_limit}


@pytest.mark.parametrize(
    "weight", [None, WeightFunction(lambda v: 1.0 + v, "linear")], ids=["sqrt12", "linear"]
)
def test_draw_cells_do_not_depend_on_row_chunking(monkeypatch, weight):
    grid, seed, reps = 1024, 45, 300
    chunked = draw_limit_samples(CHUNK_CELLS, reps, grid, seed, weight, 1)
    monkeypatch.setattr(limits, "_CHUNK_BYTES", 1)  # one row per chunk
    by_row = draw_limit_samples(CHUNK_CELLS, reps, grid, seed, weight, 1)
    for cell in CHUNK_CELLS:
        assert np.array_equal(chunked[cell][0], by_row[cell][0])
        assert np.array_equal(chunked[cell][1], by_row[cell][1])
    # row r is the single draw from stream r, on both sides of chunk edges
    for method, asym in CHUNK_CELLS:
        nums, chis = chunked[(method, asym)]
        for r in (0, 62, 63, 126, 127, reps - 1):
            if method == "ob3":
                one = sample_obiii_limit(asym, weight, SeedSpec(seed, r), grid_count=grid)
            else:
                one = SAMPLERS[method](asym, SeedSpec(seed, r), grid_count=grid)
            assert (one.numerator, one.chi2) == (nums[r], chis[r])


def test_critical_values_memory_is_bounded_by_the_chunk():
    # a whole 10^4 x 1025 block would take 78 MiB
    cells = [("ob1", BatchAsymptotics(0.1)), ("ob2", BatchAsymptotics(0.2, 51))]
    tracemalloc.start()
    try:
        critical_values(cells, [0.95], 10_000, 1024, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_weighting_condition_constant_weight():
    assert weighting_condition_estimate(constant_sqrt12()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "fn, exact",
    [
        (lambda v: 2.0 * math.sqrt(2.0) * math.pi * np.cos(2.0 * math.pi * v), 1.0),
        (lambda v: 1.0 + v, 17.0 / 90.0),
    ],
    ids=["cosine", "linear"],
)
def test_weighting_condition_exact_values(fn, exact):
    est = weighting_condition_estimate(WeightFunction(fn, "test"))
    assert est == pytest.approx(exact, abs=1e-12)


def test_table_csv_round_trip(tmp_path):
    table = CriticalValueTable()
    table.add(CriticalValueEntry("ob1", 0.1, INFINITE, 0.95, 1.7538, 200000, 4096, 7))
    table.add(CriticalValueEntry("ob1", 0.1, INFINITE, 0.975, 2.1312, 200000, 4096, 7))
    table.add(CriticalValueEntry("ob2", 0.2, 51, 0.95, 1.9999, 200000, 4096, 7))
    table.validate()
    path = tmp_path / "cv.csv"
    table.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "method,beta,b_inf,q,value,replications,grid,seed"
    assert text[1].startswith("OB-I,0.1,inf,0.95,")
    assert text[3].startswith("OB-II,0.2,51,")
    again = CriticalValueTable.from_csv(path)
    assert again.entries == table.entries


def test_table_lookup_nearest_beta_warns(caplog):
    table = CriticalValueTable()
    table.add(CriticalValueEntry("ob1", 0.1, INFINITE, 0.95, 1.75, 1, 1, 1))
    table.add(CriticalValueEntry("ob1", 0.25, INFINITE, 0.95, 1.95, 1, 1, 1))
    assert table.lookup("ob1", 0.255, INFINITE, 0.95) == 1.95
    assert not caplog.records
    with caplog.at_level("WARNING"):
        assert table.lookup("ob1", 0.17, INFINITE, 0.95) == 1.75
    assert "away from requested" in caplog.text
    with pytest.raises(KeyError):
        table.lookup("ob1", 0.25, 10, 0.95)


def test_table_validate_rejects_non_monotone():
    table = CriticalValueTable()
    table.add(CriticalValueEntry("ob1", 0.1, INFINITE, 0.95, 2.0, 1, 1, 1))
    table.add(CriticalValueEntry("ob1", 0.1, INFINITE, 0.975, 1.9, 1, 1, 1))
    with pytest.raises(ValueError):
        table.validate()


def test_fully_overlapping_variance_values():
    assert obi_variance_fully_overlapping(0.5, 1.0) == pytest.approx(2 / 3, rel=1e-12)
    assert obi_variance_fully_overlapping(0.25, 1.0) == pytest.approx(34 / 81, rel=1e-12)
    assert obi_variance_fully_overlapping(0.5, 2.0) == pytest.approx(16 * 2 / 3, rel=1e-12)
    assert obi_variance_fully_overlapping(1e-4, 1.0) < 1e-3


def test_reported_variance_formula_value_and_scaling():
    asym = BatchAsymptotics(beta=0.5, b_inf=INFINITE, eta=0.5)
    # verbatim value of the reported expression; the independently derived
    # fully-overlapping oracle gives 2/3 instead, a documented discrepancy
    assert obi_asymptotic_variance(asym, 1.0) == pytest.approx(5 / 3, rel=1e-12)
    assert obi_asymptotic_variance(asym, 2.0) == pytest.approx(16 * 5 / 3, rel=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.25, 0.4, 0.5])
@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_reported_variance_is_fully_overlapping_variance_plus_sigma4(beta, sigma):
    # at full overlap the reported form is a second moment: Var + (E)^2
    asym = BatchAsymptotics(beta=beta, b_inf=INFINITE, eta=1 - beta)
    expected = obi_variance_fully_overlapping(beta, sigma) + sigma**4
    assert obi_asymptotic_variance(asym, sigma) == pytest.approx(expected, rel=1e-12)


def test_reported_variance_formula_scan_structure():
    def v(beta):
        return obi_asymptotic_variance(
            BatchAsymptotics(beta=beta, b_inf=INFINITE, eta=1 - beta), 1.0
        )

    # infimum approached as beta -> 0
    assert v(0.001) < v(0.01) < v(0.1) < v(0.25)
    # stationary pair near 0.467/0.5: local maximum then a local minimum
    assert v(0.467) > v(0.45) and v(0.467) > v(0.48)
    assert v(0.5) < v(0.49) and v(0.5) < v(0.52)


def test_reported_variance_formula_finite_b_inf_branch():
    value = obi_asymptotic_variance(BatchAsymptotics(beta=0.25, b_inf=4), 1.0)
    assert math.isfinite(value) and value > 0
