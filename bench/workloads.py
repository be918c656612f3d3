"""The three workloads: a critical-value table, coverage studies, single intervals.

Each workload has a ``setup`` (inputs and the critical values it needs ahead
of time; repeatable, same result every time), a ``round`` (the fixed set of
operations that is timed; every round repeats the same operations on the
same inputs) and a ``check`` of one round's outputs against ``oracle``.
The program is reached only through public entry points: ``obci.cli.main``
in-process, ``coverage_experiment`` and ``critical_value``, always with one
worker.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import obci
import oracle
from obci import cli, experiments

ALPHA = 0.05
LIMIT_REPS = 10_000  # the program's minimum for limit quantiles
COARSE_GRID = 256  # set-up critical values only; their accuracy is not measured
MC_SIGMAS = 5.0  # band half-width, in Monte Carlo standard errors, for critical values
COVERAGE_SIGMAS = 4.0


@dataclass
class Round:
    outputs: list
    attempted: int
    failed: int


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``obci.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# critvals
# ---------------------------------------------------------------------------

QUANTILES = (0.05, 0.95, 0.975)  # lower/upper pair plus a third level
# One `obci critvals` invocation per block: the CLI crosses methods x betas x
# b_inf, and the cells below are not a cross product.
CRITVAL_BLOCKS = [
    ("ob1", "0.1", "inf"),  # published OB-I(0.1, inf, .95) = 1.76
    ("ob1", "0.2", "51"),  # published OB-I(0.2, 51, .95) = 1.893
    ("ob2", "0.2", "inf"),
    ("ob2", "0.25", "4"),  # tiling beta = 1/b, b_inf = b: Student t, b - 1 dof
    ("ob3", "0.5", "inf,10"),  # 1/beta-horizon paths
]
PUBLISHED = {("ob1", 0.1, math.inf): 1.76, ("ob1", 0.2, 51.0): 1.893}
PUBLISHED_TOL = 0.02
TILING = ("ob2", 0.25, 4.0)
_TABLE_HEADER = ["method", "beta", "b_inf", "q", "value", "replications", "grid", "seed"]
_LABELS = {"OB-I": "ob1", "OB-II": "ob2", "OB-III": "ob3"}


def parse_table(text: str) -> dict:
    """{(method, beta, b_inf, q): (value, replications, grid, seed)} from table CSV text."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _TABLE_HEADER:
        raise ValueError(f"unexpected table header {rows[:1]}")
    table = {}
    for label, beta, b_inf, q, value, reps, grid, seed in rows[1:]:
        key = (_LABELS[label], float(beta), math.inf if b_inf == "inf" else float(b_inf), float(q))
        table[key] = (float(value), int(reps), int(grid), int(seed))
    return table


class Critvals:
    name = "critvals"
    unit = "critical values"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.argvs: list[list[str]] = []

    def setup(self) -> None:
        self.argvs = []
        for i, (method, beta, b_inf) in enumerate(CRITVAL_BLOCKS):
            self.argvs.append([
                "critvals", "--methods", method, "--betas", beta, "--b-inf", b_inf,
                "--quantiles", ",".join(map(str, QUANTILES)), "--reps", str(LIMIT_REPS),
                "--grid", str(obci.DEFAULT_GRID), "--seed", str(self.seed), "--threads", "1",
                "--out", str(self.workdir / f"critvals-{i}.csv"),
            ])

    def round(self) -> Round:
        outputs, failed = [], 0
        for argv, (_, _, b_inf) in zip(self.argvs, CRITVAL_BLOCKS):
            code, _ = run_cli(argv)
            text = Path(argv[-1]).read_text() if code == 0 else ""
            outputs.append((code, text))
            if code != 0:
                failed += len(b_inf.split(",")) * len(QUANTILES)
        attempted = sum(len(b.split(",")) for _, _, b in CRITVAL_BLOCKS) * len(QUANTILES)
        return Round(outputs, attempted, failed)

    def check(self, outputs: list) -> list[str]:
        problems = []
        table = {}
        for (code, text), argv in zip(outputs, self.argvs):
            if code != 0:
                problems.append(f"critvals {' '.join(argv[1:7])}: exit code {code}")
            else:
                table.update(parse_table(text))
        tiling = oracle.tiling_t_draws(self.seed, int(TILING[2]), obci.DEFAULT_GRID, LIMIT_REPS)
        return problems + check_critvals(table, self.seed, tiling)


def _cells() -> list[tuple]:
    cells = []
    for method, beta, b_infs in CRITVAL_BLOCKS:
        for b_inf in b_infs.split(","):
            cells.append((method, float(beta), math.inf if b_inf == "inf" else float(b_inf)))
    return cells


def check_critvals(table: dict, seed: int, tiling_draws: np.ndarray) -> list[str]:
    """Checks of a critical-value table; ``tiling_draws`` are the oracle's t draws."""
    problems = []
    expected = {(*cell, q) for cell in _cells() for q in QUANTILES}
    if set(table) != expected:
        return [f"table cells {sorted(set(table) ^ expected)} missing or unexpected"]
    for key, (value, reps, grid, row_seed) in table.items():
        if (reps, grid, row_seed) != (LIMIT_REPS, obci.DEFAULT_GRID, seed):
            problems.append(f"{key}: provenance {(reps, grid, row_seed)}")
    lo_q, hi_q, third_q = QUANTILES
    for cell in _cells():
        lo, hi, third = (table[(*cell, q)][0] for q in QUANTILES)
        if not lo < hi < third:
            problems.append(f"{cell}: not increasing in q: {lo}, {hi}, {third}")
            continue
        # the density is falling beyond the upper level, so the secant over
        # [hi_q, third_q] overstates the standard error: a conservative band
        se = oracle.quantile_se(hi_q, LIMIT_REPS, (third_q - hi_q) / (third - hi))
        if abs(lo + hi) > MC_SIGMAS * math.sqrt(2.0) * se:
            problems.append(f"{cell}: c({lo_q}) = {lo} is not -c({hi_q}) = {-hi} within MC error")
        if cell in PUBLISHED and abs(hi - PUBLISHED[cell]) > PUBLISHED_TOL + MC_SIGMAS * se:
            problems.append(f"{cell}: c({hi_q}) = {hi} outside published {PUBLISHED[cell]}"
                            f" +/- {PUBLISHED_TOL + MC_SIGMAS * se:.3f}")
    dof = int(TILING[2]) - 1
    for q in QUANTILES:
        value = table[(*TILING, q)][0]
        mine = oracle.empirical_quantile(tiling_draws, q)
        if not _close(value, mine, 1e-5):  # the table keeps 6 significant digits
            problems.append(f"tiling {TILING} q={q}: table {value} != recomputed {mine}")
        exact = float(stats.t.ppf(q, dof))
        se = oracle.quantile_se(q, LIMIT_REPS, float(stats.t.pdf(exact, dof)))
        if abs(value - exact) > MC_SIGMAS * se:
            problems.append(f"tiling {TILING} q={q}: {value} vs t_{dof} quantile {exact:.4f}")
    return problems


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

# name, study, n, study parameters, method configuration, replications per
# round, replications recomputed by the oracle
COVERAGE_ROWS = [
    ("mean-ob1", "mean", 1000, {}, dict(method="ob1", beta_declared=0.25), 1024, 32),
    ("cvar70-ob1", "cvar", 1000, {"gamma": 0.7}, dict(method="ob1", beta_declared=0.25), 1024, 32),
    ("cvar70-ss", "cvar", 1000, {"gamma": 0.7}, dict(method="ss"), 1024, 32),
    ("cvar90-ob1-d250", "cvar", 1000, {"gamma": 0.9},
     dict(method="ob1", d=250, beta_declared=0.25), 1024, 32),
    ("ar1-ob2", "ar1", 1000, {"phi": 0.5}, dict(method="ob2", beta_declared=0.25), 1024, 32),
    ("nhpp-ob1", "nhpp", 50_000, {"t": 0.25}, dict(method="ob1", beta_declared=0.25), 1536, 4),
]
NOMINAL_ROWS = ("mean-ob1", "cvar70-ob1")  # must lie within 4 MC SE of 0.95
NHPP_BAND = (0.93, 0.975)
NHPP_DELTA = 1e-4


@dataclass(frozen=True)
class CoverageRow:
    covered: int
    misses: int
    na: int
    replications: int
    coverage: float
    mean_half_width: float
    truth: float
    critical_value: float


def _row_setup(study: str, n: int, params: dict):
    if study == "mean":
        return obci.GeneratorSpec.iid_normal(n), 0.0, obci.mean_estimator()
    return experiments.study_setup(study, n, **params)


def _row_oracle(study: str, n: int, params: dict):
    """(truth, estimator tag, data stream) of a study, written out independently."""
    if study == "mean":
        return 0.0, "mean", lambda g: oracle.iid_normal(g, n)
    if study == "cvar":
        q, truth = oracle.cvar_truth(params["gamma"])
        return truth, f"cvartail:{params['gamma']!r}:{q!r}", lambda g: oracle.iid_normal(g, n)
    if study == "ar1":
        return params["phi"], "ar1", lambda g: oracle.ar1_series(g, n, params["phi"])
    t = params["t"]
    return (4.0 + 8.0 * t, f"nhpp:{NHPP_DELTA!r}",
            lambda g: oracle.nhpp_counts(g, n, t, NHPP_DELTA))


def _report_row(report) -> CoverageRow:
    return CoverageRow(report.covered, report.misses, report.na_count, report.replications,
                       report.coverage, report.mean_half_width, report.truth,
                       report.critical_value_used)


def oracle_coverage(name: str, seed: int, replications: int, cv: float) -> tuple[int, int, float]:
    """(covered, NA, mean half-width) over streams (seed, 0..replications-1)."""
    _, study, n, params, config, _, _ = next(r for r in COVERAGE_ROWS if r[0] == name)
    truth, tag, draw = _row_oracle(study, n, params)
    method = config["method"]
    covered, na, widths = 0, 0, []
    for r in range(replications):
        x = draw(oracle.philox(seed, r))
        if method == "ss":
            result = oracle.ss_interval(x, tag, ALPHA)
            if result is None:
                na += 1
                continue
            lower, _, upper, _ = result
            half = (upper - lower) / 2.0
        else:
            result = oracle.ob_interval(method, x, int(round(0.25 * n)), config.get("d", 1), tag, cv)
            if result is None:
                na += 1
                continue
            center, _, half = result
            lower, upper = center - half, center + half
        covered += int(lower <= truth <= upper)
        widths.append(half)
    return covered, na, float(np.mean(widths)) if widths else math.nan


class Coverage:
    name = "coverage"
    unit = "replications"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.source = None
        self.cvs: dict[str, float] = {}

    def setup(self) -> None:
        self.source = obci.MonteCarloCriticalValues(
            replications=LIMIT_REPS, grid_count=COARSE_GRID, master_seed=self.seed + 1, workers=1
        )
        self.cvs = {}
        for name, _, n, _, config, _, _ in COVERAGE_ROWS:
            if config["method"] == "ss":
                continue
            m, d = int(round(0.25 * n)), config.get("d", 1)
            b_inf = oracle.b_inf_class(n, d, (n - m) // d + 1)
            asym = obci.BatchAsymptotics(beta=0.25, b_inf=b_inf)
            self.cvs[name] = self.source.critical_value(config["method"], asym, 1.0 - ALPHA / 2.0)

    def _experiment(self, row, replications: int):
        name, study, n, params, config, _, _ = row
        generator, truth, estimator = _row_setup(study, n, params)
        return experiments.coverage_experiment(
            generator, truth, estimator, experiments.MethodConfig(**config), replications,
            self.seed, cv_source=self.source, workers=1, study=name,
        )

    def round(self) -> Round:
        outputs, attempted, failed = [], 0, 0
        for row in COVERAGE_ROWS:
            attempted += row[5]
            try:
                outputs.append(_report_row(self._experiment(row, row[5])))
            except obci.ObciError:
                outputs.append(None)
                failed += row[5]
        return Round(outputs, attempted, failed)

    def check(self, outputs: list) -> list[str]:
        prefixes = {}
        for row in COVERAGE_ROWS:
            report = _report_row(self._experiment(row, row[6]))
            mine = oracle_coverage(row[0], self.seed, row[6], report.critical_value)
            prefixes[row[0]] = (report, mine)
        return check_coverage(dict(zip((r[0] for r in COVERAGE_ROWS), outputs)), self.cvs, prefixes)


def check_coverage(rows: dict, cvs: dict, prefixes: dict) -> list[str]:
    """Checks of coverage rows, given the set-up critical values and prefix recomputations."""
    problems = []
    for name, study, n, params, config, reps, _ in COVERAGE_ROWS:
        row = rows.get(name)
        if row is None:
            problems.append(f"{name}: failed")
            continue
        truth = _row_oracle(study, n, params)[0]
        defined = row.replications - row.na
        if row.replications != reps or row.covered + row.misses + row.na != reps:
            problems.append(f"{name}: covered + misses + NA = {row.covered}+{row.misses}+{row.na}"
                            f" of {row.replications}, expected {reps}")
        elif not _close(row.coverage, row.covered / defined, 1e-12):
            problems.append(f"{name}: coverage {row.coverage} != {row.covered}/{defined}")
        if not _close(row.truth, truth, 1e-12):
            problems.append(f"{name}: truth {row.truth} != {truth}")
        expected_cv = cvs.get(name, math.nan)
        if not (row.critical_value == expected_cv or math.isnan(row.critical_value) and math.isnan(expected_cv)):
            problems.append(f"{name}: critical value {row.critical_value} != set-up {expected_cv}")
        if name in NOMINAL_ROWS:
            band = COVERAGE_SIGMAS * math.sqrt(0.95 * 0.05 / defined)
            if abs(row.coverage - 0.95) > band:
                problems.append(f"{name}: coverage {row.coverage:.4f} not within 0.95 +/- {band:.4f}")
        if study == "nhpp" and not NHPP_BAND[0] <= row.coverage <= NHPP_BAND[1]:
            problems.append(f"{name}: coverage {row.coverage:.4f} outside {NHPP_BAND}")
        report, (covered, na, width) = prefixes[name]
        if (report.covered, report.na) != (covered, na) or not _close(report.mean_half_width, width, 1e-9):
            problems.append(f"{name}: first {report.replications} replications give covered/NA/width "
                            f"{report.covered}/{report.na}/{report.mean_half_width!r}, "
                            f"recomputed {covered}/{na}/{width!r}")
    return problems


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

Q90 = float(stats.norm.ppf(0.9))
CVARTAIL_Q = f"cvartail:0.9:{Q90!r}"
# name -> (length, generator from a Philox stream)
DATASETS = {
    "iid10k": (10_000, lambda g, n: oracle.iid_normal(g, n)),
    "iid20k": (20_000, lambda g, n: oracle.iid_normal(g, n)),
    "iid1k": (1000, lambda g, n: oracle.iid_normal(g, n)),
    "ar1k": (1000, lambda g, n: oracle.ar1_series(g, n, 0.5)),
    "nhpp1k": (1000, lambda g, n: oracle.nhpp_counts(g, n, 0.25, 0.1)),
    "nhpp50k": (50_000, lambda g, n: oracle.nhpp_counts(g, n, 0.25, NHPP_DELTA)),
}
# (method, estimator tag, dataset, m, d); SS chooses its own m
INTERVAL_CALLS = [
    # plug-in order-statistic kernels on long series, beta = .25, d = 1
    ("ob1", "quantile:0.9", "iid10k", 2500, 1),
    ("ob2", "quantile:0.9", "iid10k", 2500, 1),
    ("ss", "quantile:0.9", "iid20k", None, None),
    ("ob1", "cvar:0.9", "iid10k", 2500, 1),
    ("ob2", "cvar:0.9", "iid10k", 2500, 1),
    ("ss", "cvar:0.9", "iid20k", None, None),
    # OB-III's per-prefix estimate() loop
    ("ob3", CVARTAIL_Q, "iid1k", 250, 10),
    ("ob3", "ar1", "ar1k", 250, 10),
    ("ob3", "nhpp:0.1", "nhpp1k", 250, 10),
    ("ob3", "quantile:0.9", "iid1k", 250, 10),
    # cheap cumulative-sum estimators
    ("ob1", "mean", "iid1k", 250, 1),
    ("ob2", "mean", "iid1k", 250, 1),
    ("ob3", "mean", "iid1k", 250, 10),
    ("ss", "mean", "iid1k", None, None),
    ("ob1", CVARTAIL_Q, "iid1k", 250, 1),
    ("ob2", CVARTAIL_Q, "iid1k", 250, 1),
    ("ss", CVARTAIL_Q, "iid1k", None, None),
    ("ob1", "ar1", "ar1k", 250, 1),
    ("ob2", "ar1", "ar1k", 250, 1),
    ("ss", "ar1", "ar1k", None, None),
    ("ob1", f"nhpp:{NHPP_DELTA!r}", "nhpp50k", 12_500, 1),
    ("ob2", f"nhpp:{NHPP_DELTA!r}", "nhpp50k", 12_500, 1),
    ("ss", f"nhpp:{NHPP_DELTA!r}", "nhpp50k", None, None),
]


class Intervals:
    name = "intervals"
    unit = "ci calls"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.table_path = workdir / "intervals-table.csv"
        self.data: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        self.data = {}
        for k, (name, (n, draw)) in enumerate(DATASETS.items()):
            x = draw(oracle.philox(self.seed, k), n)
            (self.workdir / f"{name}.txt").write_text("\n".join(map(repr, x.tolist())) + "\n")
            self.data[name] = x
        code, _ = run_cli([
            "critvals", "--methods", "ob1,ob2,ob3", "--betas", "0.25", "--b-inf", "inf",
            "--quantiles", str(1.0 - ALPHA / 2.0), "--reps", str(LIMIT_REPS),
            "--grid", str(COARSE_GRID), "--seed", str(self.seed), "--threads", "1",
            "--out", str(self.table_path),
        ])
        if code != 0:
            raise RuntimeError(f"obci critvals for the intervals table exited with {code}")

    def argv(self, call) -> list[str]:
        method, tag, dataset, m, d = call
        argv = ["ci", "--method", method, "--alpha", str(ALPHA), "--estimator", tag,
                "--data", str(self.workdir / f"{dataset}.txt"), "--threads", "1"]
        if method != "ss":
            argv += ["--m", str(m), "--d", str(d), "--table", str(self.table_path)]
        return argv

    def round(self) -> Round:
        outputs, failed = [], 0
        for call in INTERVAL_CALLS:
            code, out = run_cli(self.argv(call))
            outputs.append((code, out))
            failed += code != 0
        return Round(outputs, len(INTERVAL_CALLS), failed)

    def check(self, outputs: list) -> list[str]:
        table = parse_table(self.table_path.read_text())
        return check_intervals(outputs, self.data, table)


def check_intervals(outputs: list, data: dict, table: dict) -> list[str]:
    """Checks of ``obci ci`` outputs, one per INTERVAL_CALLS entry."""
    problems = []
    for call, (code, out) in zip(INTERVAL_CALLS, outputs):
        method, tag, dataset, m, d = call
        label = f"ci {method} {tag} {dataset}"
        if code != 0:
            problems.append(f"{label}: exit code {code}")
            continue
        fields = out.strip().split(",")
        lower, center, upper, half, sigma, cv, beta = map(float, fields[:7])
        b, b_inf = int(fields[7]), float(fields[8])
        x = data[dataset]
        n = x.size
        if not lower < center < upper:
            problems.append(f"{label}: not lower < center < upper: {lower}, {center}, {upper}")
        if method == "ss":
            mine = oracle.ss_interval(x, tag, ALPHA)
            if mine is None:
                problems.append(f"{label}: recomputation is degenerate")
                continue
            m = int(round(math.sqrt(n)))
            expect = dict(lower=mine[0], center=mine[1], upper=mine[2], critical_value=mine[3],
                          half_width=(mine[2] - mine[0]) / 2.0, sigma_hat=1.0)
            d = 1
        else:
            b_inf_class = oracle.b_inf_class(n, d, (n - m) // d + 1)
            q = 1.0 - ALPHA / 2.0
            entry = min((k for k in table
                         if k[0] == method and k[2] == b_inf_class and abs(k[3] - q) < 1e-12),
                        key=lambda k: abs(k[1] - m / n), default=None)
            if entry is None:
                problems.append(f"{label}: no table entry for {method}, b_inf={b_inf_class}, q={q}")
                continue
            mine = oracle.ob_interval(method, x, m, d, tag, table[entry][0])
            if mine is None:
                problems.append(f"{label}: recomputation is degenerate")
                continue
            expect = dict(center=mine[0], sigma_hat=mine[1], half_width=mine[2],
                          critical_value=table[entry][0])
            if not _close(half, cv * sigma / math.sqrt(n), 5e-9):
                problems.append(f"{label}: half_width {half} != cv * sigma_hat / sqrt(n)")
        got = dict(lower=lower, center=center, upper=upper, half_width=half, sigma_hat=sigma,
                   critical_value=cv)
        for field, value in expect.items():
            if not _close(got[field], value, 1e-8):
                problems.append(f"{label}: {field} {got[field]!r}, recomputed {value!r}")
        b_expect = (n - m) // d + 1
        if (beta, b, b_inf) != (m / n, b_expect, oracle.b_inf_class(n, d, b_expect)):
            problems.append(f"{label}: geometry beta={beta} b={b} b_inf={b_inf}")
    return problems


WORKLOADS = {w.name: w for w in (Critvals, Coverage, Intervals)}
