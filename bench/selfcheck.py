"""Self-check of the benchmark's output checks: each must pass on correct
outputs and fail on a deliberately wrong one.

Run from the root of a checkout: ``python3 bench/selfcheck.py``.  It takes
about half a minute and exits 1 if any check passed a wrong value or failed
a correct one.  Correct outputs come from small real runs of obci where that
is cheap (a critical value, coverage prefixes, one pass of the interval mix)
and are written out by hand where it is not (a full critical-value table, full
coverage rows).
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time

from run import END_TO_END_UNITS, ROOT, SRC

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import obci  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
results: list[tuple[str, bool]] = []


def expect(label: str, problems: list[str], catch: str | None = None) -> None:
    """Correct outputs (``catch`` None) must raise no problem; a wrong one
    must make the check whose message contains ``catch`` fail."""
    if catch is None:
        ok, detail = not problems, problems[0] if problems else "no problem reported"
    else:
        hits = [p for p in problems if catch in p]
        ok, detail = bool(hits), hits[0] if hits else f"no problem mentions {catch!r}: {problems}"
    results.append((label, ok))
    print(f"{'ok  ' if ok else 'BAD '} {'right' if catch is None else 'wrong'}: {label} -- {detail}")


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    traced = set(spans.SELF_TIME_METRICS) | set(spans.COUNT_METRICS) | {"trace.overhead_s"}
    problems = []
    if e2e != END_TO_END_UNITS:
        problems.append(f"end-to-end metrics {e2e} != printed {END_TO_END_UNITS}")
    if layers != traced:
        problems.append(f"per-layer metrics differ: {sorted(layers ^ traced)}")
    if {w["name"] for w in spec["workloads"]} != set(wl.WORKLOADS):
        problems.append("workload names differ")
    expect("BENCHMARK.json names what run.py prints", problems)


def check_oracle() -> np.ndarray:
    problems = []
    for beta in (0.1, 0.25, 0.5, 0.75):
        lag, cont = oracle.kappa2(beta, 20_001), oracle.kappa2(beta, math.inf)
        if abs(lag - cont) > 1e-3:
            problems.append(f"kappa2({beta}): lag sum {lag} vs continuum {cont}")
        for b_inf in (math.inf, 4.0, 51.0):
            if not wl._close(oracle.kappa2(beta, b_inf), obci.kappa2(beta, b_inf), 1e-12):
                problems.append(f"kappa2({beta}, {b_inf}) differs from obci")
    # the one-sample t statistics of the tiling reproduce obci's draws
    draws = oracle.tiling_t_draws(SEED, 4, obci.DEFAULT_GRID, wl.LIMIT_REPS)
    program = obci.critical_value("ob2", obci.BatchAsymptotics(0.25, 4), 0.95,
                                  wl.LIMIT_REPS, obci.DEFAULT_GRID, SEED)
    if not wl._close(program, oracle.empirical_quantile(draws, 0.95), 1e-9):
        problems.append(f"tiling quantile {program} vs recomputed {oracle.empirical_quantile(draws, 0.95)}")
    expect("oracle bias constants and tiling draws agree with obci", problems)
    return draws


def synthetic_table(draws: np.ndarray) -> dict:
    table = {}
    for cell in wl._cells():
        if cell == wl.TILING:
            values = [oracle.empirical_quantile(draws, q) for q in wl.QUANTILES]
            values = [float(f"{v:.6g}") for v in values]
        else:
            c = wl.PUBLISHED.get(cell, 2.0)
            values = [-c, c, 1.22 * c]
        for q, v in zip(wl.QUANTILES, values):
            table[(*cell, q)] = (v, wl.LIMIT_REPS, obci.DEFAULT_GRID, SEED)
    return table


def check_critvals(draws: np.ndarray) -> None:
    good = synthetic_table(draws)
    expect("critvals table", wl.check_critvals(good, SEED, draws))
    lo, hi, third = wl.QUANTILES
    pub = ("ob1", 0.1, math.inf)

    def mutated(key, fn):
        table = dict(good)
        value = table[key]
        table[key] = (fn(value[0]), *value[1:])
        return table

    expect("tiling critical value shifted by 0.1",
           wl.check_critvals(mutated((*wl.TILING, hi), lambda v: v + 0.1), SEED, draws),
           "recomputed")
    # the whole cell moves outward, so it stays ordered and mirrored
    wide = dict(good)
    for q, sign in zip(wl.QUANTILES, (-1, 1, 1)):
        value = good[(*pub, q)]
        wide[(*pub, q)] = (value[0] + sign * 0.3, *value[1:])
    expect("published cell shifted by 0.3", wl.check_critvals(wide, SEED, draws), "published")
    expect("lower level not mirrored by 0.5",
           wl.check_critvals(mutated((*pub, lo), lambda v: v + 0.5), SEED, draws), "is not -c")
    swapped = dict(good)
    swapped[(*pub, hi)], swapped[(*pub, third)] = good[(*pub, third)], good[(*pub, hi)]
    expect("quantile levels out of order", wl.check_critvals(swapped, SEED, draws), "not increasing")
    stale = dict(good)
    stale[(*pub, hi)] = (good[(*pub, hi)][0], wl.LIMIT_REPS - 1, obci.DEFAULT_GRID, SEED)
    expect("wrong replication count", wl.check_critvals(stale, SEED, draws), "provenance")
    missing = dict(good)
    del missing[(*pub, hi)]
    expect("missing cell", wl.check_critvals(missing, SEED, draws), "missing")
    # draws that agree with the table and are symmetric, but are not Student's t
    scaled = draws * 1.5
    off = {k: ((float(f"{oracle.empirical_quantile(scaled, k[3]):.6g}"),) + v[1:]
               if k[:3] == wl.TILING else v) for k, v in good.items()}
    expect("tiling cell off Student's t", wl.check_critvals(off, SEED, scaled), "vs t_3")


def check_coverage() -> None:
    workload = wl.Coverage(SEED, None)
    workload.setup()
    prefixes = {}
    rows = {}
    for row in wl.COVERAGE_ROWS:
        name, study, n, params, config, reps, _ = row
        small = 2 if study == "nhpp" else 8
        report = wl._report_row(workload._experiment(row, small))
        prefixes[name] = (report, wl.oracle_coverage(name, SEED, small, report.critical_value))
        covered = int(round(0.95 * reps))
        rows[name] = wl.CoverageRow(covered, reps - covered, 0, reps, covered / reps, 0.1,
                                    wl._row_oracle(study, n, params)[0],
                                    workload.cvs.get(name, math.nan))
    expect("coverage rows and prefixes", wl.check_coverage(rows, workload.cvs, prefixes))

    def with_row(name, **changes):
        return {**rows, name: dataclasses.replace(rows[name], **changes)}

    def with_prefix(name, **changes):
        report, mine = prefixes[name]
        return {**prefixes, name: (dataclasses.replace(report, **changes), mine)}

    first = wl.COVERAGE_ROWS[0][0]
    row = rows[first]
    report = prefixes[first][0]
    expect("prefix covered count off by one",
           wl.check_coverage(rows, workload.cvs, with_prefix(first, covered=report.covered - 1)),
           "recomputed")
    expect("prefix mean half-width off by 1e-8 relative",
           wl.check_coverage(rows, workload.cvs,
                             with_prefix(first, mean_half_width=report.mean_half_width * (1 + 1e-8))),
           "recomputed")
    expect("covered + misses + NA != replications",
           wl.check_coverage(with_row(first, misses=row.misses + 1), workload.cvs, prefixes),
           "covered + misses + NA")
    expect("coverage 0.92 on a nominal row",
           wl.check_coverage(with_row(first, covered=942, misses=82, coverage=942 / 1024),
                             workload.cvs, prefixes), "not within 0.95")
    nhpp = wl.COVERAGE_ROWS[-1][0]
    expect("NHPP coverage 0.98",
           wl.check_coverage(with_row(nhpp, covered=1505, misses=31, coverage=1505 / 1536),
                             workload.cvs, prefixes), "outside")
    expect("wrong truth", wl.check_coverage(with_row(first, truth=0.01), workload.cvs, prefixes), "truth")
    expect("critical value other than the set-up one",
           wl.check_coverage(with_row(first, critical_value=row.critical_value + 0.1),
                             workload.cvs, prefixes), "set-up")


def check_intervals() -> None:
    workdir = ROOT / ".bench_runs" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = wl.Intervals(SEED, workdir)
    workload.setup()
    outputs = workload.round().outputs
    table = wl.parse_table(workload.table_path.read_text())
    expect("interval mix", wl.check_intervals(outputs, workload.data, table))

    def mutated(index, fn):
        out = list(outputs)
        code, line = out[index]
        fields = [float(f) for f in line.strip().split(",")[:7]]
        out[index] = (code, ",".join(map(repr, fn(fields))) + "," + ",".join(line.strip().split(",")[7:]))
        return wl.check_intervals(out, workload.data, table)

    for index in (0, 2):  # one OB-I call, one SS call
        label = " ".join(wl.INTERVAL_CALLS[index][:2])
        expect(f"{label}: swapped endpoints",
               mutated(index, lambda f: [f[2], f[1], f[0], *f[3:]]), "not lower < center")
        expect(f"{label}: center off by 1e-6",
               mutated(index, lambda f: [f[0], f[1] + 1e-6, *f[2:]]), ": center ")
        expect(f"{label}: critical value shifted by 0.1",
               mutated(index, lambda f: [*f[:5], f[5] + 0.1, f[6]]), ": critical_value ")
        expect(f"{label}: half-width off by 1e-6 relative",
               mutated(index, lambda f: [*f[:3], f[3] * (1 + 1e-6), *f[4:]]), ": half_width ")
    expect("OB-I sigma_hat off by 1e-6 relative",
           mutated(0, lambda f: [*f[:4], f[4] * (1 + 1e-6), *f[5:]]), ": sigma_hat ")
    failing = list(outputs)
    failing[5] = (4, "")
    expect("a call that exits with code 4", wl.check_intervals(failing, workload.data, table),
           "exit code")


def check_tracer() -> None:
    originals = (obci.paths.wiener_block, obci.limits.wiener_block, obci.cip.var_ob3)
    tracer = spans.Tracer()
    data = obci.TimeSeriesData(np.arange(1.0, 21.0) % 7)
    with tracer.install():
        obci.critical_value("ob1", obci.BatchAsymptotics(0.25, 4), 0.9, 10_000, 64, SEED)
        obci.build_interval("ob3", data, 10, 5, 0.05, obci.ar1_estimator(), cv_source=_Fixed())
    problems = []
    restored = (obci.paths.wiener_block, obci.limits.wiener_block, obci.cip.var_ob3)
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("originals not restored")
    metrics = tracer.layer_metrics(1)
    # ob3 generic loop: 3 batches x prefixes 2..10, plus the sectioning estimate
    want = {"paths.normals": 10_000 * 64, "paths.bytes_computed": 10_000 * 65 * 8,
            "limits.draw_rows": 10_000, "functionals.estimate_calls": 3 * 9 + 1}
    for key, value in want.items():
        if metrics[key] != value:
            problems.append(f"{key} = {metrics[key]}, expected {value}")
    names = [s[0] for s in tracer.spans]
    parent = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    if parent.get("limits.draw_limit_samples") != "limits.critical_value" or \
            parent.get("paths.wiener_block") != "limits.draw_limit_samples":
        problems.append(f"span nesting {parent}")
    if "cip.var_ob3" not in names or "functionals.prefix" not in names:
        problems.append(f"spans {sorted(set(names))}")
    if min(tracer.self_times().values()) < 0:
        problems.append("negative self time")
    expect("tracer counts, nesting and restore", problems)


class _Fixed:
    def critical_value(self, method, asym, q):
        return 2.0


def main() -> int:
    t0 = time.perf_counter()
    check_manifest()
    draws = check_oracle()
    check_critvals(draws)
    check_coverage()
    check_intervals()
    check_tracer()
    bad = [label for label, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} as expected in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
