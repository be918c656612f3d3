"""Benchmark of obci: critical-value tables, coverage studies and single intervals.

Usage, from the root of a checkout:

    python3 bench/run.py --workload critvals|coverage|intervals --seed N \
        --seconds S --trace 0|1

It imports obci from the checkout's ``src/`` (exit code 2 when there is
none), sets the workload up three times, then repeats the workload's round
until ``--seconds`` have passed (at least one round), checks the first
round's outputs and that every later round reproduced them, and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same number of rounds is run again with spans recorded around obci's public
functions, and the metrics are per layer and per round.  Inputs, tables and
the span file go to ``.bench_runs/<workload>-<seed>/`` in the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "table_s": "s", "ops_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["critvals", "coverage", "intervals"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def measure(workload, seconds=None, rounds=None):
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds`` rounds."""
    done, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(workload.round())
        times.append(time.perf_counter() - t0)
        if len(done) == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            return done, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "obci" / "__init__.py").is_file():
        print(f"bench: no obci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one worker means one core: keep BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    t0 = time.perf_counter()
    import obci
    import obci.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if Path(obci.__file__).resolve().parent != SRC / "obci":
        print(f"bench: imported obci from {obci.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workdir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    done, times = measure(workload, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = spans.Tracer()
        with tracer.install():
            traced, traced_times = measure(workload, rounds=len(done))
        done += traced
        tracer.write(workdir / "spans.json")
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = (sum(traced_times) - sum(times)) / len(times)
        units = {k: spans.COUNT_METRICS.get(k, "s") for k in metrics}
    else:
        ops = sum(r.attempted - r.failed for r in done)
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "table_s": statistics.median(times),
            "ops_per_s": ops / sum(times),
        }
        units = END_TO_END_UNITS

    problems = workload.check(done[0].outputs)
    problems += [f"round {i + 1} differs from round 1"
                 for i, r in enumerate(done) if repr(r.outputs) != repr(done[0].outputs)]
    for problem in problems:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print(f"# {args.workload}: {len(done)} rounds of {done[0].attempted} {workload.unit}, "
          f"rounds {[round(t, 3) for t in times]} s, import {import_s:.3f} s, "
          f"set-up {[round(t, 3) for t in setup_times]} s, "
          f"wall {time.perf_counter() - _START:.1f} s", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
