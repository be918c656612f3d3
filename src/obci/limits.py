"""Weak-limit machinery for the three overlapping-batch procedures.

Houses the bias-correction constants, Monte Carlo samplers for the OB-I /
OB-II / OB-III limit random variables (joint numerator and chi-square draws
from a single Wiener path), the critical-value engine with its CSV table
format, and the closed-form OB-I asymptotic moment expressions.

Every Studentized draw takes its numerator and denominator from the same
path, and stream r maps to row r of every cell.  Only OB-II needs the joint
draw for correctness: its numerator is correlated with its chi-square
denominator, and sampling them independently would corrupt the tails of the
T distribution.  For OB-I and OB-III the numerator is exactly independent
of the denominator, on the grid too: for OB-I, Cov(W(1), W(t + beta) - W(t)
- beta W(1)) = 0 for every window; for OB-III, the ``half`` term of each
window area cancels the covariance of its left-endpoint sum with the
numerator.  The shared path stays for those two because it keeps stream r
on row r of every cell.
"""

from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import stats

from .paths import DEFAULT_GRID, SeedSpec, WienerPath, wiener_block

__all__ = [
    "INFINITE",
    "DEFAULT_REPLICATIONS",
    "BatchAsymptotics",
    "LimitSample",
    "WeightFunction",
    "constant_sqrt12",
    "weighting_condition_estimate",
    "kappa1",
    "kappa2",
    "sample_obi_limit",
    "sample_obii_limit",
    "sample_obiii_limit",
    "draw_limit_samples",
    "studentized_draws",
    "limit_quantiles",
    "critical_values",
    "critical_value",
    "CriticalValueEntry",
    "CriticalValueTable",
    "obi_asymptotic_variance",
    "obi_variance_fully_overlapping",
]

logger = logging.getLogger(__name__)

INFINITE = math.inf

# Replication default puts the Monte Carlo error of a 0.95 critical value
# near +/-0.01, below the tolerance used when comparing against published
# values.
DEFAULT_REPLICATIONS = 200_000

METHODS = ("ob1", "ob2", "ob3")
METHOD_LABELS = {"ob1": "OB-I", "ob2": "OB-II", "ob3": "OB-III"}
LABEL_METHODS = {v: k for k, v in METHOD_LABELS.items()}

# Memory budget per Wiener block; rows adapt to the path length.
_BLOCK_BYTES = 1.6e8
# Row chunk of a block that an evaluator works on at once (fits in L2 cache).
_CHUNK_BYTES = 1 << 20


def _is_infinite(b_inf: float) -> bool:
    return math.isinf(b_inf)


@dataclass(frozen=True)
class BatchAsymptotics:
    """Asymptotic batching regime ``(beta, b_inf)``, optionally with ``eta``.

    ``beta`` is the limiting batch fraction m/n; ``b_inf`` the limiting batch
    count (an integer >= 2 or ``INFINITE``); ``eta`` the limit of b/n, needed
    only by the OB-I moment formula.  The limiting offset is
    ``d = (1 - beta) / eta`` when ``eta > 0`` and infinite when ``eta = 0``
    (with the convention that infinity times zero is zero).
    """

    beta: float
    b_inf: float = INFINITE
    eta: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.beta < 1:
            raise ValueError("beta must lie in [0, 1)")
        if not _is_infinite(self.b_inf):
            if self.b_inf != int(self.b_inf) or self.b_inf < 2:
                raise ValueError("finite b_inf must be an integer >= 2")
        if self.eta is not None and self.eta < 0:
            raise ValueError("eta must be nonnegative")

    @property
    def d_lim(self) -> float:
        if self.eta is None:
            raise ValueError("eta is not set")
        return INFINITE if self.eta == 0 else (1 - self.beta) / self.eta


@dataclass(frozen=True)
class LimitSample:
    """One joint draw of (Studentized-root numerator, chi-square denominator)."""

    numerator: float
    chi2: float

    def __post_init__(self) -> None:
        if self.chi2 < 0:
            raise ValueError("chi2 draws are nonnegative")

    @property
    def t_value(self) -> float:
        return self.numerator / math.sqrt(self.chi2)


def _sqrt12(v: np.ndarray) -> np.ndarray:
    return np.full_like(np.asarray(v, dtype=float), math.sqrt(12.0))


@dataclass(frozen=True)
class WeightFunction:
    """Weighting function on [0, 1] for the weighted area estimator.

    Must satisfy the normalization E[(integral of f B)^2] = 1 for a standard
    Brownian bridge B; ``weighting_condition_estimate`` checks it by Monte
    Carlo.  ``constant`` is set when f is constant, enabling the O(path)
    evaluation route.
    """

    fn: callable
    tag: str
    constant: float | None = None


def constant_sqrt12() -> WeightFunction:
    """The constant weight sqrt(12), the simplest normalized member of C^2[0,1]."""
    return WeightFunction(fn=_sqrt12, tag="constant-sqrt12", constant=math.sqrt(12.0))


def weighting_condition_estimate(
    weight: WeightFunction,
    replications: int = 20_000,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 1771,
) -> float:
    """Monte Carlo estimate of E[(integral_0^1 f(t) B(t) dt)^2].

    A valid weight keeps this within a few percent of 1.
    """
    fvals = np.asarray(weight.fn(np.arange(grid_count) / grid_count), dtype=float)
    total = 0.0
    for lo in range(0, replications, 4096):
        rows = min(4096, replications - lo)
        w = wiener_block(grid_count, 1.0 / grid_count, master_seed, lo, rows)
        v = np.arange(grid_count) / grid_count
        bridge = w[:, :grid_count] - v * w[:, grid_count][:, None]
        vals = bridge @ fvals / grid_count
        total += float(np.sum(vals**2))
    return total / replications


def kappa1(beta: float) -> float:
    """OB-I bias-correction constant, 1 - beta."""
    if not 0 <= beta < 1:
        raise ValueError("beta must lie in [0, 1)")
    return 1.0 - beta


def kappa2(beta: float, b_inf: float = INFINITE) -> float:
    """OB-II bias-correction constant.

    Equal to 1 at beta = 0; for beta > 0 it is the limit of the expected
    (uncorrected) batch sample variance, in its continuum form when b_inf is
    infinite and as a finite lag sum otherwise.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must lie in [0, 1)")
    if beta == 0:
        return 1.0
    g = min(beta / (1.0 - beta), 1.0)
    if _is_infinite(b_inf):
        return 1.0 - 2.0 * g + g**2 / beta - (2.0 / 3.0) * (1.0 - beta) / beta * g**3
    b = int(b_inf)
    h = np.arange(1, b + 1, dtype=float)
    terms = np.maximum(1.0 - h / (b - 1) * (1.0 - beta) / beta, 0.0) * (1.0 - h / b)
    return float(1.0 - 1.0 / b - 2.0 / b * terms.sum())


# ---------------------------------------------------------------------------
# Block evaluators.  Each maps a matrix of Wiener paths (rows) to the joint
# (numerator, chi2) arrays of one limit law.  All batching geometry is taken
# at the grid's own resolution so the Gaussian increments are exact.
# ---------------------------------------------------------------------------


def _finite_starts(grid_span: int, b: int) -> np.ndarray:
    """Grid indices of the b batch anchors c_j = (j-1) * span / (b-1)."""
    return np.rint(np.arange(b) * grid_span / (b - 1)).astype(np.int64)


def _obi_pair(w: np.ndarray, beta: float, b_inf: float) -> tuple[np.ndarray, np.ndarray]:
    n = w.shape[1] - 1
    k = max(1, int(round(beta * n)))
    bd = k / n
    w1 = w[:, n]
    scale = 1.0 / kappa1(bd)
    if _is_infinite(b_inf):
        d = w[:, k:] - w[:, : n + 1 - k] - bd * w1[:, None]
        integral = np.einsum("ij,ij->i", d[:, : n - k], d[:, : n - k]) / n
        chi = scale * integral / (bd * (1.0 - bd))
    else:
        b = int(b_inf)
        cs = _finite_starts(n - k, b)
        d = w[:, cs + k] - w[:, cs] - bd * w1[:, None]
        chi = scale * np.einsum("ij,ij->i", d, d) / (bd * b)
    return w1.copy(), chi


def _obii_pair(w: np.ndarray, beta: float, b_inf: float) -> tuple[np.ndarray, np.ndarray]:
    n = w.shape[1] - 1
    k = max(1, int(round(beta * n)))
    bd = k / n
    if _is_infinite(b_inf):
        wt = (w[:, k:] - w[:, : n + 1 - k])[:, : n - k]
        mean = wt.mean(axis=1)
        centred = wt - mean[:, None]
        integral = np.einsum("ij,ij->i", centred, centred) / n
        chi = integral / (kappa2(bd, INFINITE) * bd * (1.0 - bd))
        num = mean / bd
    else:
        b = int(b_inf)
        cs = _finite_starts(n - k, b)
        wt = w[:, cs + k] - w[:, cs]
        mean = wt.mean(axis=1)
        centred = wt - mean[:, None]
        chi = np.einsum("ij,ij->i", centred, centred) / (kappa2(bd, b) * bd * b)
        num = mean / bd
    return num, chi


def _obiii_pair(
    w: np.ndarray, beta: float, b_inf: float, cpu: int, weight: WeightFunction
) -> tuple[np.ndarray, np.ndarray]:
    m = w.shape[1] - 1
    num = math.sqrt(cpu / m) * w[:, m]
    if weight.constant is not None:
        # integral of f * B_u over a unit window, via prefix sums of the path
        half = (cpu - 1) / (2.0 * cpu)  # left-endpoint mean of v over the window
        if _is_infinite(b_inf):
            lo, hi = slice(0, m - cpu), slice(cpu, m)
            area = np.empty((w.shape[0], m - cpu))
        else:
            lo = _finite_starts(m - cpu, int(b_inf))
            hi = lo + cpu
            # column-major, as indexing ``s[:, hi]`` would give: the row sums
            # of squares below depend on the memory order, not only the values
            area = np.empty((w.shape[0], lo.size), order="F")
        # a few rows at a time, so that the prefix sums and temporaries stay
        # in cache; every step is elementwise or along a row, so the values
        # do not depend on the chunking
        step = max(1, _CHUNK_BYTES // (8 * (m + 1)))
        for r in range(0, w.shape[0], step):
            wr = w[r : r + step]
            s = np.empty_like(wr)
            s[:, 0] = 0.0
            np.cumsum(wr[:, :-1], axis=1, out=s[:, 1:])
            s /= cpu
            a = area[r : r + step]
            np.subtract(s[:, hi], s[:, lo], out=a)
            a -= wr[:, lo]
            rise = wr[:, hi] - wr[:, lo]
            rise *= half
            a -= rise
            a *= weight.constant
    else:
        fvals = np.asarray(weight.fn(np.arange(cpu) / cpu), dtype=float)
        fbar = fvals.mean()
        fv = np.dot(fvals, np.arange(cpu) / cpu) / cpu
        from scipy.signal import fftconvolve

        conv = fftconvolve(w, fvals[None, ::-1], mode="valid", axes=1) / cpu
        if _is_infinite(b_inf):
            count = m - cpu
            idx = np.arange(count)
        else:
            idx = _finite_starts(m - cpu, int(b_inf))
        area = conv[:, idx] - w[:, idx] * fbar - (w[:, idx + cpu] - w[:, idx]) * fv
    chi = np.einsum("ij,ij->i", area, area) / area.shape[1]
    return num, chi


def _horizon_cells(method: str, beta: float, grid_count: int) -> int:
    if method == "ob3":
        return int(round(grid_count / beta))
    return grid_count


def _evaluate_block(
    method: str, w: np.ndarray, beta: float, b_inf: float, grid_count: int, weight
) -> tuple[np.ndarray, np.ndarray]:
    if method == "ob1":
        return _obi_pair(w, beta, b_inf)
    if method == "ob2":
        return _obii_pair(w, beta, b_inf)
    if method == "ob3":
        return _obiii_pair(w, beta, b_inf, grid_count, weight or constant_sqrt12())
    raise ValueError(f"unknown method {method!r}")


Cell = tuple[str, BatchAsymptotics]


def _draw_block(
    cells: Sequence[Cell],
    horizon: int,
    grid_count: int,
    master_seed: int,
    stream_lo: int,
    rows: int,
    weight: WeightFunction | None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw one block of ``horizon``-cell paths and evaluate every cell on it.

    The evaluators only read the block, so the cells share it unchanged.
    """
    w = wiener_block(horizon, 1.0 / grid_count, master_seed, stream_lo, rows)
    return [
        _evaluate_block(method, w, asym.beta, asym.b_inf, grid_count, weight)
        for method, asym in cells
    ]


def _draw_block_star(args):
    return _draw_block(*args)


def _require_large_batch(asym: BatchAsymptotics) -> None:
    if asym.beta == 0:
        raise ValueError(
            "beta = 0 has a closed-form normal limit; use normal quantiles instead"
        )


def _draw_cells(
    cells: Sequence[Cell],
    replications: int,
    grid_count: int,
    master_seed: int,
    weight: WeightFunction | None,
    workers: int,
) -> dict[Cell, tuple[np.ndarray, np.ndarray]]:
    """Joint (numerator, chi2) draws for every cell, one path set per horizon.

    Cells whose paths have the same length (every ob1/ob2 cell, and ob3 cells
    of equal beta) are evaluated on the same blocks: replication r of each
    cell uses stream r, exactly as if the cell were drawn alone.
    """
    groups: dict[int, list[Cell]] = {}
    for method, asym in dict.fromkeys(cells):
        _require_large_batch(asym)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        groups.setdefault(_horizon_cells(method, asym.beta, grid_count), []).append((method, asym))
    tasks = []
    for horizon, group in groups.items():
        # block rows depend on the path length only, never on ``workers``
        rows = max(16, min(4096, int(_BLOCK_BYTES / (8 * (horizon + 1)))))
        tasks += [
            (group, horizon, grid_count, master_seed, lo, min(rows, replications - lo), weight)
            for lo in range(0, replications, rows)
        ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_draw_block_star, tasks))
    else:
        results = [_draw_block_star(t) for t in tasks]
    parts: dict[Cell, list[tuple[np.ndarray, np.ndarray]]] = {}
    for task, pairs in zip(tasks, results):
        for cell, pair in zip(task[0], pairs):
            parts.setdefault(cell, []).append(pair)
    return {
        cell: (np.concatenate([p[0] for p in ps]), np.concatenate([p[1] for p in ps]))
        for cell, ps in parts.items()
    }


def _single_sample(
    method: str,
    asym: BatchAsymptotics,
    seed: SeedSpec | None,
    path: WienerPath | None,
    grid_count: int,
    weight: WeightFunction | None,
) -> LimitSample:
    _require_large_batch(asym)
    if path is not None:
        cpu = int(round(path.grid_count / path.horizon))
        w = path.values[None, :]
        num, chi = _evaluate_block(method, w, asym.beta, asym.b_inf, cpu, weight)
    else:
        if seed is None:
            raise ValueError("either a seed or an explicit path is required")
        horizon = _horizon_cells(method, asym.beta, grid_count)
        [(num, chi)] = _draw_block(
            [(method, asym)], horizon, grid_count, seed.master_seed, seed.stream_index, 1, weight
        )
    return LimitSample(numerator=float(num[0]), chi2=float(chi[0]))


def sample_obi_limit(
    asym: BatchAsymptotics,
    seed: SeedSpec | None = None,
    *,
    path: WienerPath | None = None,
    grid_count: int = DEFAULT_GRID,
) -> LimitSample:
    """Joint draw of the OB-I limit pair from one Wiener path on [0, 1]."""
    return _single_sample("ob1", asym, seed, path, grid_count, None)


def sample_obii_limit(
    asym: BatchAsymptotics,
    seed: SeedSpec | None = None,
    *,
    path: WienerPath | None = None,
    grid_count: int = DEFAULT_GRID,
) -> LimitSample:
    """Joint draw of the OB-II limit pair from one Wiener path on [0, 1]."""
    return _single_sample("ob2", asym, seed, path, grid_count, None)


def sample_obiii_limit(
    asym: BatchAsymptotics,
    weight: WeightFunction | None = None,
    seed: SeedSpec | None = None,
    *,
    path: WienerPath | None = None,
    grid_count: int = DEFAULT_GRID,
) -> LimitSample:
    """Joint draw of the OB-III limit pair from one Wiener path on [0, 1/beta].

    The path is simulated on horizon 1/beta so batches have unit length; the
    numerator sqrt(beta) * W(1/beta) is the time-rescaled image of W(1).
    """
    return _single_sample("ob3", asym, seed, path, grid_count, weight or constant_sqrt12())


def draw_limit_samples(
    method: str,
    asym: BatchAsymptotics,
    replications: int,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 0,
    weight: WeightFunction | None = None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``replications`` joint limit samples, one stream per replication.

    Work is split into fixed-size blocks whose composition does not depend on
    ``workers``, so results are bit-identical for any worker count.
    """
    cell = (method, asym)
    return _draw_cells([cell], replications, grid_count, master_seed, weight, workers)[cell]


def _require_replications(replications: int) -> None:
    if replications < 10_000:
        raise ValueError("at least 10^4 replications are required for limit quantiles")


def _studentize(
    method: str,
    asym: BatchAsymptotics,
    nums: np.ndarray,
    chis: np.ndarray,
    replications: int,
    grid_count: int,
    master_seed: int,
    weight: WeightFunction | None,
) -> np.ndarray:
    """``nums / sqrt(chis)`` after redrawing the zero chi-square draws of one cell.

    Zero chi-square draws, possible under discretization though they have
    probability zero at the limit, are rejected and redrawn from fresh
    streams ``replications``, ``replications + 1``, ... with a logged count.
    """
    horizon = _horizon_cells(method, asym.beta, grid_count)
    bad = np.flatnonzero(chis <= 0.0)
    redraws = 0
    next_stream = replications
    while bad.size:
        redraws += bad.size
        [(fresh_n, fresh_c)] = _draw_block(
            [(method, asym)], horizon, grid_count, master_seed, next_stream, bad.size, weight
        )
        next_stream += bad.size
        nums[bad] = fresh_n
        chis[bad] = fresh_c
        bad = bad[fresh_c <= 0.0]
    if redraws:
        logger.warning("rejected and redrew %d zero chi-square draws", redraws)
    return nums / np.sqrt(chis)


def studentized_draws(
    cells: Sequence[Cell],
    replications: int = DEFAULT_REPLICATIONS,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 0,
    weight: WeightFunction | None = None,
    workers: int = 1,
) -> dict[Cell, np.ndarray]:
    """Draws of the Studentized limit ``numerator / sqrt(chi2)`` for each cell.

    Cells are ``(method, BatchAsymptotics)`` pairs with beta > 0; cells on
    the same path horizon share their paths.  Each cell's zero chi-square
    draws are then redrawn on their own, from fresh streams.
    """
    _require_replications(replications)
    draws = _draw_cells(cells, replications, grid_count, master_seed, weight, workers)
    return {
        (method, asym): _studentize(
            method, asym, nums, chis, replications, grid_count, master_seed, weight
        )
        for (method, asym), (nums, chis) in draws.items()
    }


def _check_levels(qs: Sequence[float]) -> None:
    if not all(0 < q < 1 for q in qs):
        raise ValueError("quantile level must lie in (0, 1)")


def limit_quantiles(t: np.ndarray, qs: Sequence[float]) -> tuple[float, ...]:
    """Empirical (inverted-cdf) quantiles of Studentized draws at levels ``qs``."""
    _check_levels(qs)
    return tuple(float(v) for v in np.quantile(t, list(qs), method="inverted_cdf"))


def critical_values(
    cells: Sequence[Cell],
    qs: Sequence[float],
    replications: int = DEFAULT_REPLICATIONS,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 0,
    weight: WeightFunction | None = None,
    workers: int = 1,
) -> dict[Cell, tuple[float, ...]]:
    """Quantiles at every level of ``qs`` for every ``(method, BatchAsymptotics)`` cell.

    Each cell's values are read from one set of Studentized draws, and cells
    on the same path horizon share their paths (see :func:`studentized_draws`).
    Small-batch cells (beta = 0) get standard normal quantiles.  The result
    maps each cell to its values in the order of ``qs``; a cell's values equal
    those of one :func:`critical_value` call per level.
    """
    qs = list(qs)
    _check_levels(qs)
    values = {cell: tuple(float(stats.norm.ppf(q)) for q in qs) for cell in cells if cell[1].beta == 0}
    drawn = [cell for cell in cells if cell[1].beta != 0]
    if drawn:
        draws = studentized_draws(drawn, replications, grid_count, master_seed, weight, workers)
        values.update((cell, limit_quantiles(t, qs)) for cell, t in draws.items())
    return values


def critical_value(
    method: str,
    asym: BatchAsymptotics,
    q: float,
    replications: int = DEFAULT_REPLICATIONS,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 0,
    weight: WeightFunction | None = None,
    workers: int = 1,
) -> float:
    """q-quantile of the Studentized limit ``numerator / sqrt(chi2)``.

    Small-batch procedures (beta = 0) dispatch to the standard normal
    quantile.  Equal to the one-cell, one-level :func:`critical_values`.
    It draws through :func:`draw_limit_samples`, keeping the
    ``critical_value`` -> ``draw_limit_samples`` -> ``wiener_block`` call
    chain that ``bench/spans.py`` traces.  Deterministic given all inputs.
    """
    _check_levels([q])
    if asym.beta == 0:
        return float(stats.norm.ppf(q))
    _require_replications(replications)
    nums, chis = draw_limit_samples(method, asym, replications, grid_count, master_seed, weight, workers)
    t = _studentize(method, asym, nums, chis, replications, grid_count, master_seed, weight)
    return limit_quantiles(t, [q])[0]


# ---------------------------------------------------------------------------
# Critical value tables
# ---------------------------------------------------------------------------

_CSV_HEADER = ["method", "beta", "b_inf", "q", "value", "replications", "grid", "seed"]


def round_table_precision(value: float) -> float:
    """Round to the 6 significant digits the table format stores."""
    return float(f"{value:.6g}")


@dataclass(frozen=True)
class CriticalValueEntry:
    method: str  # ob1 | ob2 | ob3
    beta: float
    b_inf: float
    q: float
    value: float
    replications: int
    grid: int
    seed: int


@dataclass
class CriticalValueTable:
    """Critical values with full provenance, regenerable bit-exactly."""

    entries: list[CriticalValueEntry] = field(default_factory=list)

    def add(self, entry: CriticalValueEntry) -> None:
        self.entries.append(entry)

    def validate(self) -> None:
        """Quantile monotonicity within each (method, beta, b_inf) group."""
        groups: dict[tuple, list[CriticalValueEntry]] = {}
        for e in self.entries:
            groups.setdefault((e.method, e.beta, e.b_inf), []).append(e)
        for key, group in groups.items():
            group = sorted(group, key=lambda e: e.q)
            values = [e.value for e in group]
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(f"critical values not monotone in q for {key}")

    def lookup(
        self, method: str, beta: float, b_inf: float, q: float, warn_tolerance: float = 0.01
    ) -> float:
        """Value at the nearest tabulated beta for exact (method, b_inf, q).

        Warns when the nearest grid beta is more than ``warn_tolerance`` away
        from the requested one.
        """
        candidates = [
            e
            for e in self.entries
            if e.method == method
            and abs(e.q - q) < 1e-12
            and (math.isinf(e.b_inf) == math.isinf(b_inf))
            and (math.isinf(b_inf) or int(e.b_inf) == int(b_inf))
        ]
        if not candidates:
            raise KeyError(f"no table entry for ({method}, b_inf={b_inf}, q={q})")
        best = min(candidates, key=lambda e: abs(e.beta - beta))
        if abs(best.beta - beta) > warn_tolerance:
            logger.warning(
                "nearest tabulated beta %.4g is %.4g away from requested %.4g",
                best.beta,
                abs(best.beta - beta),
                beta,
            )
        return best.value

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            for e in self.entries:
                b_inf = "inf" if math.isinf(e.b_inf) else str(int(e.b_inf))
                writer.writerow(
                    [
                        METHOD_LABELS[e.method],
                        f"{e.beta:g}",
                        b_inf,
                        f"{e.q:g}",
                        f"{e.value:.6g}",
                        e.replications,
                        e.grid,
                        e.seed,
                    ]
                )

    @classmethod
    def from_csv(cls, path: str | Path) -> "CriticalValueTable":
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header}")
            for row in reader:
                label, beta, b_inf, q, value, reps, grid, seed = row
                table.add(
                    CriticalValueEntry(
                        method=LABEL_METHODS[label],
                        beta=float(beta),
                        b_inf=INFINITE if b_inf == "inf" else float(int(b_inf)),
                        q=float(q),
                        value=float(value),
                        replications=int(reps),
                        grid=int(grid),
                        seed=int(seed),
                    )
                )
        return table


# ---------------------------------------------------------------------------
# OB-I asymptotic moments
# ---------------------------------------------------------------------------


def obi_asymptotic_variance(asym: BatchAsymptotics, sigma: float) -> float:
    """Reported closed form of the limiting variance of the OB-I estimator.

    Evaluated verbatim, including each b_inf branch and the convention that
    the offset term vanishes when eta = 0.  Known not to agree with the
    independently verified fully-overlapping value from
    :func:`obi_variance_fully_overlapping`; both are exposed deliberately.
    """
    b = asym.beta
    if not 0 < b < 1:
        raise ValueError("the large-batch variance formula needs beta in (0, 1)")
    g = min(b / (1.0 - b), 1.0)
    if _is_infinite(asym.b_inf):
        if asym.eta is None:
            raise ValueError("eta is required when b_inf is infinite")
        mu0_tilde = 0.5 * ((1 - 2 * b) / (1 - b)) ** 2 if b <= 0.5 else 0.0
        mu0 = g * (1 - g / 2)
        if asym.eta > 0:
            d = (1 - b) / asym.eta
            mu1 = g**2 * (asym.eta / b) * (3 - 2 * g) / 6.0
            mu2 = 0.5 * g**3 * (asym.eta / b) ** 2 * (2.0 / 3.0 - g / 2.0)
            offset_term = -8.0 * d * (1 - b) * mu1
        else:
            mu2 = 0.0
            offset_term = 0.0  # d = inf and mu1 = 0; inf * 0 := 0
    else:
        binf = int(asym.b_inf)
        ceil_term = math.ceil(b / (1 - b) * (binf - 1))
        mu0_tilde = (
            0.5 * (1 - ceil_term / binf) * (1 - ceil_term / binf + 1.0 / binf)
            if b <= 0.5
            else 0.0
        )
        floor_term = math.floor(g * (binf - 1))
        mu0 = floor_term / binf * (1 - 0.5 * floor_term / binf - 0.5)
        mu2 = 0.0
        offset_term = 0.0
    shape = 2 * (1 - 2 * b + 3 * b**2) * mu0_tilde + 6 * (1 - b) ** 2 * mu0 + offset_term + 4 * mu2
    return sigma**4 / (1 - b) ** 2 * shape


def obi_variance_fully_overlapping(beta: float, sigma: float) -> float:
    """Limiting variance of the OB-I estimator under full overlap.

    Matches the independent covariance-integral oracle (2/3 at beta = 1/2 for
    unit sigma) and scales as sigma^4.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    shape = beta**4 * (4 / beta**3 - 11 / beta**2 + 4 / beta + 6) / (3 * (1 - beta) ** 4)
    return sigma**4 * shape
