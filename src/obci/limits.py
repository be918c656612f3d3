"""Weak-limit machinery for the three overlapping-batch procedures.

Houses the bias-correction constants, Monte Carlo samplers for the OB-I /
OB-II / OB-III limit random variables (joint numerator and chi-square draws
from a single Wiener path), the critical-value engine with its CSV table
format, and the closed-form OB-I asymptotic moment expressions.

Every Monte Carlo critical value comes from one chain: ``critical_value`` is
the one-cell, one-level case of ``critical_values``, which reads its
quantiles from ``studentized_draws``, which takes its (numerator, chi2) pairs
from ``draw_limit_samples``.  That groups the cells by path horizon and hands
each group to one pipeline (``_draw_block``).  Paths are drawn a
chunk of rows at a time, about ``_CHUNK_BYTES`` (1 MiB) of them, and every
cell that shares their horizon is evaluated on the chunk while it is still in
cache; only the per-row (numerator, chi2) pairs are kept.  Memory therefore
stays near one chunk and its temporaries whatever the replication count, and
a row's values do not depend on the chunking or on the worker count.

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
import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .paths import DEFAULT_GRID, SeedSpec, WienerPath, wiener_block

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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

# Paths drawn and evaluated at once: a chunk of rows this size stays in L2
# cache while every cell reads it.
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
    Brownian bridge B; ``weighting_condition_estimate`` computes that
    expectation.  ``constant`` is set when f is constant, enabling the O(path)
    evaluation route.
    """

    fn: callable
    tag: str
    constant: float | None = None


def constant_sqrt12() -> WeightFunction:
    """The constant weight sqrt(12), the simplest normalized member of C^2[0,1]."""
    return WeightFunction(fn=_sqrt12, tag="constant-sqrt12", constant=math.sqrt(12.0))


def weighting_condition_estimate(weight: WeightFunction) -> float:
    """E[(integral_0^1 f(t) B(t) dt)^2] for a standard Brownian bridge B.

    The integral equals integral_0^1 h(u) dW(u) with
    h(u) = integral_u^1 f - integral_0^1 s f(s) ds, so the expectation is
    integral_0^1 h(u)^2 du.  Both integrals are 64-node Gauss-Legendre
    rules, the inner one on [u, 1]; for a smooth f the result is exact to
    rounding.  A valid weight gives 1.
    """
    x, wx = np.polynomial.legendre.leggauss(64)
    u, wu = (x + 1.0) / 2.0, wx / 2.0  # nodes and weights on [0, 1]
    inner = u[:, None] + (1.0 - u[:, None]) * u  # row i: the nodes on [u_i, 1]
    f = np.asarray(weight.fn(np.concatenate([u, inner.ravel()])), dtype=float)
    f_u, f_inner = f[: u.size], f[u.size :].reshape(inner.shape)
    h = (1.0 - u) * (f_inner @ wu) - wu @ (u * f_u)
    return float(wu @ (h * h))


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
# at the grid's own resolution so the Gaussian increments are exact.  A row's
# values never depend on the other rows of the matrix, so paths may be
# evaluated in chunks of any number of rows.
# ---------------------------------------------------------------------------


def _finite_starts(grid_span: int, b: int) -> np.ndarray:
    """Grid indices of the b batch anchors c_j = (j-1) * span / (b-1)."""
    return np.rint(np.arange(b) * grid_span / (b - 1)).astype(np.int64)


def _ordered_row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of ``a`` accumulated left to right, in any memory order.

    Sums over batch anchors use this.  numpy's reductions accumulate the
    column-major arrays that anchor indexing gives in this order, but switch
    to pairwise or SIMD sums on a single row, which is contiguous either way.
    """
    return np.cumsum(a, axis=1)[:, -1]


def _obi_pair(w: np.ndarray, beta: float, b_inf: float) -> tuple[np.ndarray, np.ndarray]:
    n = w.shape[1] - 1
    k = max(1, int(round(beta * n)))
    bd = k / n
    w1 = w[:, n]
    scale = 1.0 / kappa1(bd)
    if _is_infinite(b_inf):
        d = w[:, k:] - w[:, : n + 1 - k]
        d -= bd * w1[:, None]
        integral = np.einsum("ij,ij->i", d[:, : n - k], d[:, : n - k]) / n
        chi = scale * integral / (bd * (1.0 - bd))
    else:
        b = int(b_inf)
        cs = _finite_starts(n - k, b)
        d = w[:, cs + k] - w[:, cs] - bd * w1[:, None]
        chi = scale * _ordered_row_sums(d * d) / (bd * b)
    return w1.copy(), chi


def _obii_pair(w: np.ndarray, beta: float, b_inf: float) -> tuple[np.ndarray, np.ndarray]:
    n = w.shape[1] - 1
    k = max(1, int(round(beta * n)))
    bd = k / n
    if _is_infinite(b_inf):
        wt = (w[:, k:] - w[:, : n + 1 - k])[:, : n - k]
        mean = wt.mean(axis=1)
        wt -= mean[:, None]
        integral = np.einsum("ij,ij->i", wt, wt) / n
        chi = integral / (kappa2(bd, INFINITE) * bd * (1.0 - bd))
        num = mean / bd
    else:
        b = int(b_inf)
        cs = _finite_starts(n - k, b)
        wt = w[:, cs + k] - w[:, cs]
        mean = _ordered_row_sums(wt) / b
        wt -= mean[:, None]
        chi = _ordered_row_sums(wt * wt) / (kappa2(bd, b) * bd * b)
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
        else:
            lo = _finite_starts(m - cpu, int(b_inf))
            hi = lo + cpu
        s = np.empty_like(w)
        s[:, 0] = 0.0
        np.cumsum(w[:, :-1], axis=1, out=s[:, 1:])
        s /= cpu
        area = s[:, hi] - s[:, lo]
        area -= w[:, lo]
        # into the spent prefix sums, to save a chunk-sized temporary
        rise = np.subtract(w[:, hi], w[:, lo], out=s[:, : area.shape[1]])
        rise *= half
        area -= rise
        area *= weight.constant
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
    if _is_infinite(b_inf) and weight.constant is not None:
        chi = np.einsum("ij,ij->i", area, area)  # contiguous windows, one row at a time
    else:
        chi = _ordered_row_sums(area * area)  # anchor-indexed columns
    return num, chi / area.shape[1]


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


def _draw_chunk(
    cells: Sequence[Cell],
    horizon: int,
    grid_count: int,
    master_seed: int,
    weight: WeightFunction | None,
    stream_lo: int,
    rows: int,
    out: np.ndarray | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw one chunk of ``horizon``-cell paths and evaluate every cell on it.

    The paths go into ``out`` when given.  The evaluators only read the chunk,
    so the cells share it unchanged.
    """
    w = wiener_block(horizon, 1.0 / grid_count, master_seed, stream_lo, rows, out=out)
    return [
        _evaluate_block(method, w, asym.beta, asym.b_inf, grid_count, weight)
        for method, asym in cells
    ]


def _draw_block(
    cells: Sequence[Cell],
    horizon: int,
    grid_count: int,
    master_seed: int,
    stream_lo: int,
    rows: int,
    weight: WeightFunction | None,
    pool: ProcessPoolExecutor | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Joint draws of every cell on paths ``stream_lo`` to ``stream_lo + rows - 1``.

    The paths are drawn and evaluated in chunks of about ``_CHUNK_BYTES``, and
    only the per-row (numerator, chi2) pairs are kept, so memory is bounded by
    the chunk, not by ``rows``.  The chunks depend on the path length alone; a
    process pool, if given, runs each one as a task.
    """
    step = max(1, _CHUNK_BYTES // (8 * (horizon + 1)))
    starts = range(stream_lo, stream_lo + rows, step)
    sizes = [min(step, stream_lo + rows - lo) for lo in starts]
    draw = partial(_draw_chunk, cells, horizon, grid_count, master_seed, weight)
    if pool is None:
        # one path buffer for every chunk: with a new one, and more chunk-sized
        # temporaries, each chunk the allocator hands memory back to the system
        # and faults it in again (350,000 page faults for one OB-III group)
        buf = np.empty((sizes[0], horizon + 1))
        chunks = (draw(lo, n, buf[:n]) for lo, n in zip(starts, sizes))
    else:
        chunks = pool.map(draw, starts, sizes)
    return [
        (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
        for parts in zip(*chunks)
    ]


def _require_large_batch(asym: BatchAsymptotics) -> None:
    if asym.beta == 0:
        raise ValueError(
            "beta = 0 has a closed-form normal limit; use normal quantiles instead"
        )


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


def _require_picklable(obj, label: str) -> None:
    """Reject what worker processes cannot receive, before any pool starts."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"{label} cannot be sent to worker processes ({exc}); "
            "define its function at module level, not as a lambda or closure"
        ) from None


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")


def _process_pool(workers: int):
    """A pool of ``workers`` processes, or a null context (``None``) for one.

    ``concurrent.futures`` is imported only here, so a serial run never
    loads it.
    """
    if workers == 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def draw_limit_samples(
    cells: Sequence[Cell],
    replications: int,
    grid_count: int = DEFAULT_GRID,
    master_seed: int = 0,
    weight: WeightFunction | None = None,
    workers: int = 1,
) -> dict[Cell, tuple[np.ndarray, np.ndarray]]:
    """Joint (numerator, chi2) draws for every ``(method, BatchAsymptotics)`` cell.

    Cells whose paths have the same length (every ob1/ob2 cell, and ob3 cells
    of equal beta) are evaluated on the same chunks of paths: replication r of
    each cell uses stream r, exactly as if the cell were drawn alone.  Work is
    split into chunks of rows whose composition does not depend on
    ``workers``, and a row's values do not depend on its chunk, so results
    are bit-identical for any worker count.  With ``workers`` > 1 the
    weight must pickle, as a module-level function does.
    """
    _require_workers(workers)
    if workers > 1 and weight is not None:
        _require_picklable(weight, f"weight {weight.tag!r}")
    groups: dict[int, list[Cell]] = {}
    for method, asym in dict.fromkeys(cells):
        _require_large_batch(asym)
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        groups.setdefault(_horizon_cells(method, asym.beta, grid_count), []).append((method, asym))
    with _process_pool(workers) as pool:
        return {
            cell: pair
            for horizon, group in groups.items()
            for cell, pair in zip(
                group,
                _draw_block(group, horizon, grid_count, master_seed, 0, replications, weight, pool),
            )
        }


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
    draws = draw_limit_samples(cells, replications, grid_count, master_seed, weight, workers)
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
    maps each cell to its values in the order of ``qs``.
    """
    qs = list(qs)
    _check_levels(qs)
    _require_workers(workers)
    small = [cell for cell in cells if cell[1].beta == 0]
    values = {}
    if small:
        from scipy.special import ndtri  # equals scipy.stats.norm.ppf bit for bit

        values = {cell: tuple(float(ndtri(q)) for q in qs) for cell in small}
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

    The one-cell, one-level case of :func:`critical_values`: small-batch
    procedures (beta = 0) get the standard normal quantile.  Deterministic
    given all inputs.
    """
    cell = (method, asym)
    return critical_values([cell], [q], replications, grid_count, master_seed, weight, workers)[cell][0]


# ---------------------------------------------------------------------------
# Critical value tables
# ---------------------------------------------------------------------------

_CSV_HEADER = ["method", "beta", "b_inf", "q", "value", "replications", "grid", "seed"]

# A lookup farther than this from the nearest tabulated beta logs a warning.
_BETA_WARN_TOLERANCE = 0.01


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

    def lookup(self, method: str, beta: float, b_inf: float, q: float) -> float:
        """Value at the nearest tabulated beta for exact (method, b_inf, q).

        Warns when the nearest grid beta is more than ``_BETA_WARN_TOLERANCE``
        away from the requested one.
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
        if abs(best.beta - beta) > _BETA_WARN_TOLERANCE:
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
