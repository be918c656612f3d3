"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is fixed
here; nothing is deferred to later calibration.  Fixed seeds make every run
reproducible.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats

import obci
from obci import (
    INFINITE,
    BatchAsymptotics,
    GeneratorSpec,
    MethodConfig,
    TimeSeriesData,
    batch_estimates,
    coverage_experiment,
    critical_value,
    draw_limit_samples,
    kappa1,
    kappa2,
    make_layout,
    mean_estimator,
    obi_variance_fully_overlapping,
    offset_sweep,
    var_ob1,
    var_ob2,
    var_ob3,
)

pytestmark = pytest.mark.acceptance

R_TABLE = 200_000
R_LIMIT = 100_000
GRID = 4096
SEED = 20240601


def _finish(criterion: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} | {detail}")
    assert not failures, "; ".join(failures)


def test_criterion_1_critical_values_vs_published():
    failures: list[str] = []
    t0 = time.perf_counter()
    cv_obi_01 = critical_value("ob1", BatchAsymptotics(0.1, INFINITE), 0.95, R_TABLE, GRID, SEED)
    cv_obi_02 = critical_value("ob1", BatchAsymptotics(0.2, 51), 0.95, R_TABLE, GRID, SEED)
    cv_obii_02 = critical_value("ob2", BatchAsymptotics(0.2, 51), 0.95, R_TABLE, GRID, SEED)
    elapsed = time.perf_counter() - t0
    cv_zero = critical_value("ob1", BatchAsymptotics(0.0), 0.95)

    if abs(cv_obi_01 - 1.76) > 0.02:
        failures.append(f"OB-I(0.1,inf,0.95)={cv_obi_01:.4f} not within 1.76+/-0.02")
    if abs(cv_obi_02 - 1.893) > 0.02:
        failures.append(f"OB-I(0.2,51,0.95)={cv_obi_02:.4f} not within 1.893+/-0.02")
    if abs(cv_obii_02 - 1.902) > 0.02:
        # theorem-faithful OB-II numerator has variance 1.125 at this shape,
        # placing the quantile near 2.00; see README, "Known deviations from
        # the published tables"
        failures.append(f"OB-II(0.2,51,0.95)={cv_obii_02:.4f} not within 1.902+/-0.02")
    if cv_zero != stats.norm.ppf(0.95) or abs(cv_zero - 1.6449) > 5e-5:
        failures.append(f"beta=0 dispatch {cv_zero!r} is not the exact normal quantile")
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s exceeds 5 minutes")
    _finish(
        "1",
        failures,
        f"OB-I(0.1,inf)={cv_obi_01:.4f} OB-I(0.2,51)={cv_obi_02:.4f} "
        f"OB-II(0.2,51)={cv_obii_02:.4f} beta0={cv_zero:.4f} elapsed={elapsed:.0f}s",
    )


def test_criterion_2_bias_constant_oracles():
    sympy = pytest.importorskip("sympy")
    sp = sympy

    def kappa2_symbolic(beta, b_inf):
        if beta == 0:
            return sp.Integer(1)
        g = sp.Min(beta / (1 - beta), 1)
        if b_inf is None:
            return 1 - 2 * g + g**2 / beta - sp.Rational(2, 3) * (1 - beta) / beta * g**3
        total = sp.Integer(0)
        for h in range(1, b_inf + 1):
            term = 1 - sp.Rational(h, b_inf - 1) * (1 - beta) / beta
            total += sp.Max(term, 0) * (1 - sp.Rational(h, b_inf))
        return 1 - sp.Rational(1, b_inf) - sp.Rational(2, b_inf) * total

    failures: list[str] = []
    betas = [sp.Integer(0), sp.Rational(1, 4), sp.Rational(1, 2)]
    for beta in betas:
        want = 1 - beta
        got = kappa1(float(beta))
        if abs(got - float(want)) > 1e-10 * max(1.0, abs(float(want))):
            failures.append(f"kappa1({beta})={got!r} != {want}")
        for b_inf in (2, 13, None):
            want = sp.nsimplify(kappa2_symbolic(beta, b_inf))
            got = kappa2(float(beta), INFINITE if b_inf is None else b_inf)
            if abs(got - float(want)) > 5e-10 * max(1.0, abs(float(want))):
                failures.append(f"kappa2({beta},{b_inf or 'inf'})={got!r} != {want}")
    _finish("2", failures, "kappa1/kappa2 match exact rational evaluation to 10 digits")


def _chi2_means(betas, b_infs, seed):
    """Mean chi-square per (method, beta, b_inf): every cell of one beta is
    drawn in one ``draw_limit_samples`` call, so the ob1/ob2 cells share their
    unit-horizon paths and the ob3 cells theirs."""
    means: dict[tuple, float] = {}
    for beta in betas:
        cells = [(m, BatchAsymptotics(beta, b)) for m in ("ob1", "ob2", "ob3") for b in b_infs]
        draws = draw_limit_samples(cells, R_LIMIT, GRID, seed + int(beta * 1000))
        for (method, asym), (_, chis) in draws.items():
            means[(method, beta, asym.b_inf)] = float(chis.mean())
    return means


def test_criterion_3_limit_normalization():
    betas = (0.1, 0.25, 0.5)
    b_infs = (2.0, 10.0, INFINITE)
    means = _chi2_means(betas, b_infs, seed=7100)
    failures: list[str] = []
    for (method, beta, b_inf), mean in sorted(means.items()):
        if not 0.97 <= mean <= 1.03:
            failures.append(f"E[chi2 {method} beta={beta} b_inf={b_inf}] = {mean:.4f}")
    # the exactly computable case: E[chi2_OB-I(1/2, 2)] = 1
    cell = ("ob1", BatchAsymptotics(0.5, 2))
    _, chis = draw_limit_samples([cell], R_LIMIT, GRID, 7200)[cell]
    se = chis.std() / math.sqrt(chis.size)
    exact = abs(chis.mean() - 1.0)
    if exact > 4 * se:
        failures.append(f"exact-mean case off by {exact:.5f} (> 4 MC se {se:.5f})")
    lo = min(means.values())
    hi = max(means.values())
    _finish("3", failures, f"27 cells at R=1e5 in [{lo:.4f}, {hi:.4f}]; exact case |mean-1|={exact:.5f}")


def test_criterion_4_fully_overlapping_variance_oracle():
    cell = ("ob1", BatchAsymptotics(0.5, INFINITE))
    _, chis = draw_limit_samples([cell], R_LIMIT, GRID, 7300)[cell]
    mc_var = float(chis.var())
    target = obi_variance_fully_overlapping(0.5, 1.0)
    failures: list[str] = []
    assert target == pytest.approx(2 / 3, rel=1e-12)
    if abs(mc_var - target) > 0.05 * target:
        failures.append(f"MC Var(chi2) = {mc_var:.4f} vs analytic 2/3 outside 5%")
    _finish("4", failures, f"MC Var(chi2)={mc_var:.4f} vs 2/3 (within 5%)")


def test_criterion_5_small_batch_consistency():
    n = 100_000
    m = int(round(math.sqrt(n)))
    reps = 200
    layout = make_layout(n, m, 1)
    sums = {"ob1": 0.0, "ob2": 0.0, "ob3": 0.0}
    est = mean_estimator()
    for r in range(reps):
        data = TimeSeriesData(obci.SeedSpec(7400, r).generator().standard_normal(n))
        estimates = batch_estimates(data, layout, est)
        sums["ob1"] += var_ob1(estimates, layout).value
        sums["ob2"] += var_ob2(estimates, layout).value
        sums["ob3"] += var_ob3(data, layout, est).value
    failures: list[str] = []
    averages = {k: v / reps for k, v in sums.items()}
    for method, avg in averages.items():
        if not 0.95 <= avg <= 1.05:
            failures.append(f"avg sigma2_{method} = {avg:.4f} outside [0.95, 1.05]")
    detail = " ".join(f"{k}={v:.4f}" for k, v in averages.items())
    _finish("5", failures, f"n=1e5 m=sqrt(n) d=1, 200-replication averages: {detail}")


REPS_COVERAGE = 10_000


def test_criterion_6a_cvar_gamma07(cv_source):
    gen, truth, est = obci.study_setup("cvar", 1000, gamma=0.7)
    config = MethodConfig(method="ob1", d=1, beta_declared=0.25)
    t0 = time.perf_counter()
    obi = coverage_experiment(gen, truth, est, config, REPS_COVERAGE, 7610, cv_source=cv_source)
    ss = coverage_experiment(gen, truth, est, MethodConfig(method="ss"), REPS_COVERAGE, 7610)
    elapsed = time.perf_counter() - t0
    failures: list[str] = []
    if abs(obi.coverage - 0.951) > 0.012:
        failures.append(f"OB-I coverage {obi.coverage:.4f} not within 0.951+/-0.012")
    if abs(obi.mean_half_width - 0.070) > 0.005:
        failures.append(f"OB-I half-width {obi.mean_half_width:.4f} not within 0.070+/-0.005")
    if abs(ss.coverage - 0.956) > 0.012:
        # the published SS column is only approached, not matched, by the
        # non-Studentized subsampling roots; see README, "Known deviations
        # from the published tables"
        failures.append(f"SS coverage {ss.coverage:.4f} not within 0.956+/-0.012")
    if elapsed > 600:
        failures.append(f"cell runtime {elapsed:.0f}s exceeds 10 minutes")
    _finish(
        "6a",
        failures,
        f"CVaR(0.7) n=1000: OB-I cov={obi.coverage:.4f} hw={obi.mean_half_width:.4f} "
        f"SS cov={ss.coverage:.4f} hw={ss.mean_half_width:.4f} [{elapsed:.0f}s]",
    )


def test_criterion_6b_cvar_gamma09_n500(cv_source):
    gen, truth, est = obci.study_setup("cvar", 500, gamma=0.9)
    large = coverage_experiment(
        gen, truth, est, MethodConfig(method="ob1", d=1, beta_declared=0.25),
        REPS_COVERAGE, 7620, cv_source=cv_source,
    )
    small = coverage_experiment(
        gen, truth, est, MethodConfig(method="ob1", d=1, beta_declared=0.0),
        REPS_COVERAGE, 7620, cv_source=cv_source,
    )
    failures: list[str] = []
    if abs(large.coverage - 0.949) > 0.012:
        failures.append(f"OB-I beta=0.25 coverage {large.coverage:.4f} not within 0.949+/-0.012")
    if small.coverage_strict > 0.01:
        failures.append(f"OB-I beta=0 strict coverage {small.coverage_strict:.4f} > 0.01")
    _finish(
        "6b",
        failures,
        f"CVaR(0.9) n=500: beta=.25 cov={large.coverage:.4f}; "
        f"beta=0 strict={small.coverage_strict:.4f} (na={small.na_count})",
    )


def test_criterion_6c_ar1_phi05(cv_source):
    gen, truth, est = obci.study_setup("ar1", 1000, phi=0.5)
    report = coverage_experiment(
        gen, truth, est, MethodConfig(method="ob1", d=1, beta_declared=0.25),
        REPS_COVERAGE, 7630, cv_source=cv_source,
    )
    failures: list[str] = []
    if abs(report.coverage - 0.946) > 0.012:
        failures.append(f"coverage {report.coverage:.4f} not within 0.946+/-0.012")
    _finish("6c", failures, f"AR1(0.5) n=1000: OB-I beta=.25 cov={report.coverage:.4f}")


def test_criterion_6d_ar1_phi09(cv_source):
    gen, truth, est = obci.study_setup("ar1", 1000, phi=0.9)
    obi = coverage_experiment(
        gen, truth, est, MethodConfig(method="ob1", d=1, beta_declared=0.25),
        REPS_COVERAGE, 7640, cv_source=cv_source,
    )
    ss = coverage_experiment(gen, truth, est, MethodConfig(method="ss"), REPS_COVERAGE, 7640)
    failures: list[str] = []
    if abs(obi.coverage - 0.934) > 0.015:
        failures.append(f"OB-I coverage {obi.coverage:.4f} not within 0.934+/-0.015")
    if abs(ss.coverage - 0.438) > 0.02:
        # no subsampling variant tried comes near the published SS cell; see
        # README, "Known deviations from the published tables"
        failures.append(f"SS coverage {ss.coverage:.4f} not within 0.438+/-0.02")
    _finish(
        "6d",
        failures,
        f"AR1(0.9) n=1000: OB-I cov={obi.coverage:.4f} hw={obi.mean_half_width:.4f} "
        f"SS cov={ss.coverage:.4f} hw={ss.mean_half_width:.4f}",
    )


def test_criterion_6e_offset_study(cv_source):
    gen, truth, est = obci.study_setup("cvar", 1000, gamma=0.9)
    config = MethodConfig(method="ob1", d=1, beta_declared=0.25)
    reports = offset_sweep(
        gen, truth, est, config, [1, 250, 500], REPS_COVERAGE, 7650, cv_source=cv_source
    )
    targets = (0.950, 0.948, 0.949)
    failures: list[str] = []
    for report, target in zip(reports, targets):
        if abs(report.coverage - target) > 0.015:
            failures.append(f"d={report.d}: coverage {report.coverage:.4f} not within {target}+/-0.015")
    if [r.b for r in reports] != [751, 4, 2]:
        failures.append(f"realized batch counts {[r.b for r in reports]} != [751, 4, 2]")
    if not (math.isinf(reports[0].b_inf_class) and reports[1].b_inf_class == 4 and reports[2].b_inf_class == 2):
        failures.append("b_inf classification mismatch")
    detail = " ".join(f"d={r.d}:cov={r.coverage:.4f}(b={r.b})" for r in reports)
    _finish("6e", failures, f"offset study CVaR(0.9) n=1000: {detail}")


def test_criterion_7_nhpp(cv_source):
    gen, truth, est = obci.study_setup("nhpp", 50_000, t=0.25)
    report = coverage_experiment(
        gen, truth, est, MethodConfig(method="ob1", d=1, beta_declared=0.25),
        2_000, 7700, cv_source=cv_source,
    )
    failures: list[str] = []
    assert truth == 6.0
    if not 0.93 <= report.coverage <= 0.975:
        failures.append(f"coverage {report.coverage:.4f} outside [0.93, 0.975]")
    _finish("7", failures, f"NHPP t=0.25 n=50000: cov={report.coverage:.4f} (truth 6 exact)")


def test_criterion_8_worker_determinism(tmp_path):
    from obci.cli import main

    failures: list[str] = []
    tables = []
    for workers in (1, 4, 16):
        out = tmp_path / f"t{workers}.csv"
        code = main([
            "critvals", "--methods", "ob2", "--betas", "0.25", "--b-inf", "inf",
            "--quantiles", "0.9,0.95", "--reps", "10000", "--grid", "256",
            "--seed", "808", "--threads", str(workers), "--out", str(out),
        ])
        assert code == 0
        tables.append(out.read_bytes())
    if not (tables[0] == tables[1] == tables[2]):
        failures.append("critical-value tables differ across worker counts")

    gen, truth, est = obci.study_setup("cvar", 400, gamma=0.7)
    config = MethodConfig(method="ob1", d=1, beta_declared=0.25)
    source = obci.MonteCarloCriticalValues(replications=10_000, grid_count=256, master_seed=808)
    reports = [
        coverage_experiment(gen, truth, est, config, 2_048, 809, cv_source=source, workers=w)
        for w in (1, 4, 16)
    ]
    if not (reports[0] == reports[1] == reports[2]):
        failures.append("coverage reports differ across worker counts")

    cell = ("ob3", BatchAsymptotics(0.5, 10))
    draws = [draw_limit_samples([cell], 4_096, 512, 810, workers=w)[cell] for w in (1, 4, 16)]
    if not all(
        np.array_equal(draws[0][i], d[i]) for d in draws[1:] for i in (0, 1)
    ):
        failures.append("limit draws differ across worker counts")
    _finish("8", failures, "tables, reports, and draws bit-identical for 1/4/16 workers")


def test_criterion_9_property_pack(stub_cv):
    """Representative per-module invariants; the statistical versions live in
    test_properties.py and run in the same suite."""
    failures: list[str] = []

    # symmetry: W -> -W flips the numerator and fixes chi2 (exact)
    gen = np.random.default_rng(99)
    values = np.concatenate(([0.0], gen.standard_normal(512))).cumsum() / np.sqrt(512)
    values[0] = 0.0
    for method, horizon in (("ob1", 1.0), ("ob2", 1.0), ("ob3", 4.0)):
        path = obci.WienerPath(horizon, 512, values)
        neg = obci.WienerPath(horizon, 512, -values)
        asym = BatchAsymptotics(0.25, 10)
        sampler = {
            "ob1": obci.sample_obi_limit,
            "ob2": obci.sample_obii_limit,
            "ob3": lambda a, path: obci.sample_obiii_limit(a, path=path),
        }[method]
        a = sampler(asym, path=path) if method != "ob3" else sampler(asym, path)
        b = sampler(asym, path=neg) if method != "ob3" else sampler(asym, neg)
        if not (b.numerator == -a.numerator and abs(b.chi2 - a.chi2) < 1e-12):
            failures.append(f"{method}: path-flip symmetry broken")

    # quantile monotonicity
    asym = BatchAsymptotics(0.25, INFINITE)
    cvs = [critical_value("ob1", asym, q, 10_000, 256, 11) for q in (0.8, 0.9, 0.95)]
    if cvs != sorted(cvs):
        failures.append("critical values not monotone in q")

    # scale equivariance of the interval pipeline
    data = np.random.default_rng(3).standard_normal(120)
    a = obci.build_interval("ob1", TimeSeriesData(data), 30, 6, 0.05, mean_estimator(), stub_cv)
    b = obci.build_interval("ob1", TimeSeriesData(3.0 * data), 30, 6, 0.05, mean_estimator(), stub_cv)
    if not np.isclose(b.half_width, 3.0 * a.half_width):
        failures.append("half-width not scale equivariant")
    if a.covers(0.0) != b.covers(0.0):
        failures.append("coverage indicator not scale invariant")

    # NA accounting
    gen_spec, truth, est = obci.study_setup("cvar", 200, gamma=0.9)
    report = coverage_experiment(
        gen_spec, truth, est, MethodConfig(method="ob1", m=50, d=10, beta_declared=0.25),
        500, 4242, cv_source=stub_cv,
    )
    if report.covered + report.misses + report.na_count != report.replications:
        failures.append("coverage accounting does not balance")

    # prefix-estimate endpoint identity
    series = TimeSeriesData(np.random.default_rng(5).standard_normal(60))
    layout = make_layout(60, 12, 5)
    ests = batch_estimates(series, layout, mean_estimator())
    for i in range(1, layout.b + 1):
        prefixes = obci.prefix_estimates(series, layout, i, mean_estimator())
        if not np.isclose(prefixes[-1], ests.per_batch[i - 1]):
            failures.append(f"prefix endpoint identity fails at batch {i}")
            break

    _finish("9", failures, "symmetry / monotone quantiles / equivariance / NA accounting / prefix identity")
