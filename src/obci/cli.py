"""Command-line front end: critical-value tables, single intervals, coverage runs.

Every run echoes its resolved configuration to stderr so results can be
reproduced; data rows go to stdout.  Exit codes: 0 success, 2 usage (also an
out-of-range argument value, such as a level outside (0, 1) or a batch size
the series cannot hold), 3 unreadable or malformed data or table file (also
a table with no entry for the requested method, b_inf and level), 4
degenerate estimate, 5 degenerate interval, 6 out of memory (``ci``: the
series and batch size need more memory than is available).  Every nonzero
exit prints a message to stderr, not a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import experiments, limits
from .cip import MonteCarloCriticalValues, TableCriticalValues, build_interval
from .errors import DataFormatError, DegenerateEstimateError, DegenerateIntervalError
from .functionals import parse_estimator_tag
from .limits import (
    DEFAULT_REPLICATIONS,
    INFINITE,
    BatchAsymptotics,
    CriticalValueEntry,
    CriticalValueTable,
    critical_values,
    round_table_precision,
)
from .paths import DEFAULT_GRID
from .series import load_series
from .subsampling import subsampling_interval

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DEGENERATE_ESTIMATE = 4
EXIT_DEGENERATE_INTERVAL = 5
EXIT_OUT_OF_MEMORY = 6

DEFAULT_MASTER_SEED = 20240601
TABLE_DIR_ENV = "OBCI_TABLE_DIR"


def _echo(args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func")
    print(f"# config: {pairs}", file=sys.stderr)


def _parse_b_inf(text: str) -> float:
    if text.lower() in ("inf", "infinite"):
        return INFINITE
    value = int(text)
    if value < 2:
        raise ValueError("finite b_inf must be >= 2")
    return float(value)


def _csv_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _run_critvals(args: argparse.Namespace) -> int:
    _echo(args)
    try:
        methods = [m for m in args.methods.split(",") if m]
        betas = _csv_floats(args.betas)
        b_infs = [_parse_b_inf(x) for x in args.b_inf.split(",") if x]
        quantiles = _csv_floats(args.quantiles)
        if not (methods and betas and b_infs and quantiles):
            raise ValueError("empty method/beta/b_inf/quantile grid")
        unknown = [m for m in methods if m not in limits.METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}")
        cells = [
            (method, BatchAsymptotics(beta=beta, b_inf=b_inf))
            for method in methods
            for beta in betas
            for b_inf in b_infs
        ]
        values = critical_values(
            cells, quantiles,
            replications=args.reps, grid_count=args.grid,
            master_seed=args.seed, workers=args.threads,
        )
    except ValueError as exc:
        print(f"critvals: {exc}", file=sys.stderr)
        return EXIT_USAGE
    table = CriticalValueTable()
    for method, asym in cells:
        for q, value in zip(quantiles, values[(method, asym)]):
            table.add(CriticalValueEntry(
                method=method, beta=asym.beta, b_inf=asym.b_inf, q=q, value=value,
                replications=args.reps, grid=args.grid, seed=args.seed,
            ))
    table.validate()
    try:
        table.to_csv(args.out)
    except OSError as exc:
        print(f"critvals: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {len(table.entries)} critical values to {args.out}")
    return EXIT_OK


def _resolve_table_path(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    table_dir = os.environ.get(TABLE_DIR_ENV)
    if table_dir and (Path(table_dir) / path).exists():
        return Path(table_dir) / path
    return candidate


def _run_ci(args: argparse.Namespace) -> int:
    _echo(args)
    try:
        data = load_series(args.data)
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        estimator = parse_estimator_tag(args.estimator)
    except ValueError as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.method == "ss":
            result = subsampling_interval(data, estimator, args.alpha)
        else:
            if args.m is None or args.d is None:
                print("ci: --m and --d are required for OB methods", file=sys.stderr)
                return EXIT_USAGE
            if args.table:
                try:
                    table = CriticalValueTable.from_csv(_resolve_table_path(args.table))
                except (OSError, ValueError, KeyError) as exc:
                    print(f"ci: cannot read table {args.table}: {exc}", file=sys.stderr)
                    return EXIT_PARSE
                source = TableCriticalValues(table)
            else:
                # round to the table precision so in-process values match a
                # written-then-reloaded table bit for bit
                inner = MonteCarloCriticalValues(
                    replications=args.reps, grid_count=args.grid,
                    master_seed=args.seed, workers=args.threads,
                )
                source = _RoundedSource(inner)
            result = build_interval(
                args.method, data, args.m, args.d, args.alpha, estimator, source,
                beta_declared=args.beta_declared,
            )
    except KeyError as exc:
        print(f"ci: {exc.args[0]}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"ci: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateEstimateError as exc:
        print(f"ci: degenerate estimate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_ESTIMATE
    except DegenerateIntervalError as exc:
        print(f"ci: degenerate interval: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_INTERVAL
    except MemoryError as exc:
        print(f"ci: out of memory ({str(exc) or 'allocation failed'}); "
              "try a smaller --m or a shorter series", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    print(result.csv_line())
    return EXIT_OK


class _RoundedSource:
    def __init__(self, inner):
        self.inner = inner

    def critical_value(self, method, asym, q):
        return round_table_precision(self.inner.critical_value(method, asym, q))


COVERAGE_PRESETS = {
    # rows of the published studies at desk scale
    "cvar70-n1000-ob1-b25": dict(study="cvar", gamma=0.7, n=1000, method="ob1", beta=0.25),
    "cvar70-n1000-ss": dict(study="cvar", gamma=0.7, n=1000, method="ss"),
    "cvar90-n500-ob1-b25": dict(study="cvar", gamma=0.9, n=500, method="ob1", beta=0.25),
    "ar1-phi05-n1000-ob1-b25": dict(study="ar1", phi=0.5, n=1000, method="ob1", beta=0.25),
    "ar1-phi09-n1000-ob1-b25": dict(study="ar1", phi=0.9, n=1000, method="ob1", beta=0.25),
    "ar1-phi09-n1000-ss": dict(study="ar1", phi=0.9, n=1000, method="ss"),
    "nhpp-t025-n50000-ob1-b25": dict(study="nhpp", t=0.25, n=50000, method="ob1", beta=0.25),
}


def _run_coverage(args: argparse.Namespace) -> int:
    if args.preset:
        if args.preset not in COVERAGE_PRESETS:
            print(f"coverage: unknown preset {args.preset!r}; known: "
                  f"{', '.join(sorted(COVERAGE_PRESETS))}", file=sys.stderr)
            return EXIT_USAGE
        for key, value in COVERAGE_PRESETS[args.preset].items():
            setattr(args, key, value)
    _echo(args)
    if args.study not in ("cvar", "ar1", "nhpp"):
        print(f"coverage: unknown study {args.study!r}", file=sys.stderr)
        return EXIT_USAGE
    config = experiments.MethodConfig(
        method=args.method, alpha=args.alpha, d=args.d,
        beta_declared=None if args.method == "ss" else args.beta,
    )
    cv_source = MonteCarloCriticalValues(
        replications=args.cv_reps, grid_count=args.grid,
        master_seed=args.cv_seed, workers=args.threads,
    )
    try:
        generator, truth, estimator = experiments.study_setup(
            args.study, args.n, gamma=args.gamma, phi=args.phi, t=args.t, delta=args.delta,
        )
        report = experiments.coverage_experiment(
            generator, truth, estimator, config, args.reps, args.seed,
            cv_source=cv_source, workers=args.threads, study=args.study,
        )
    except ValueError as exc:
        print(f"coverage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateEstimateError as exc:
        print(f"coverage: degenerate estimate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_ESTIMATE
    except (DegenerateIntervalError, experiments.AllDegenerateError) as exc:
        print(f"coverage: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_INTERVAL
    print("study,n,method,beta,d,coverage,half_width,mc_se,na_count,replications,seed")
    print(report.csv_row())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obci",
        description="Overlapping-batch confidence intervals on statistical functionals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cv = sub.add_parser("critvals", help="generate a critical-value table CSV")
    p_cv.add_argument("--methods", default="ob1", help="comma list of ob1,ob2,ob3")
    p_cv.add_argument("--betas", required=True, help="comma list of asymptotic batch fractions")
    p_cv.add_argument("--b-inf", dest="b_inf", default="inf", help="comma list of batch counts or inf")
    p_cv.add_argument("--quantiles", required=True, help="comma list of quantile levels")
    p_cv.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p_cv.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_cv.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_cv.add_argument("--threads", type=int, default=1)
    p_cv.add_argument("--out", required=True)
    p_cv.set_defaults(func=_run_critvals)

    p_ci = sub.add_parser("ci", help="one confidence interval from a dataset file")
    p_ci.add_argument("--method", required=True, choices=["ob1", "ob2", "ob3", "ss"])
    p_ci.add_argument("--m", type=int)
    p_ci.add_argument("--d", type=int)
    p_ci.add_argument("--alpha", type=float, default=0.05)
    p_ci.add_argument("--estimator", required=True, help="mean | quantile:G | cvar:G[:Q] | cvartail:G[:Q] | ar1 | nhpp:D")
    p_ci.add_argument("--data", required=True)
    p_ci.add_argument("--table", help=f"critical-value CSV (also searched in ${TABLE_DIR_ENV})")
    p_ci.add_argument("--beta-declared", dest="beta_declared", type=float)
    p_ci.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p_ci.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_ci.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_ci.add_argument("--threads", type=int, default=1)
    p_ci.set_defaults(func=_run_ci)

    p_cov = sub.add_parser("coverage", help="coverage experiment over replications")
    p_cov.add_argument("--preset", help="named table row; overrides other flags")
    p_cov.add_argument("--study", default="cvar", help="cvar | ar1 | nhpp")
    p_cov.add_argument("--n", type=int, default=1000)
    p_cov.add_argument("--method", default="ob1", choices=["ob1", "ob2", "ob3", "ss"])
    p_cov.add_argument("--beta", type=float, default=0.25, help="asymptotic batch fraction; 0 for small batch")
    p_cov.add_argument("--d", type=int, default=1)
    p_cov.add_argument("--alpha", type=float, default=0.05)
    p_cov.add_argument("--gamma", type=float, default=0.7, help="cvar tail level")
    p_cov.add_argument("--phi", type=float, default=0.5, help="ar1 coefficient")
    p_cov.add_argument("--t", type=float, default=0.25, help="nhpp evaluation time")
    p_cov.add_argument("--delta", type=float, default=1e-4, help="nhpp increment length")
    p_cov.add_argument("--reps", type=int, default=10_000)
    p_cov.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_cov.add_argument("--cv-reps", dest="cv_reps", type=int, default=DEFAULT_REPLICATIONS)
    p_cov.add_argument("--cv-seed", dest="cv_seed", type=int, default=experiments.CRITVAL_SEED)
    p_cov.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_cov.add_argument("--threads", type=int, default=1)
    p_cov.set_defaults(func=_run_coverage)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
