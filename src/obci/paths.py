"""Standard Wiener paths on uniform grids and the path functionals they feed.

All randomness in the package flows through :class:`SeedSpec`, a counter-based
(Philox) stream keyed by ``(master_seed, stream_index)``.  Stream ``r`` is
reproducible on its own, so Monte Carlo loops give identical results for any
scheduling or worker count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_GRID",
    "SeedSpec",
    "WienerPath",
    "simulate_wiener",
    "bridge_weight_integral",
    "stream_generators",
    "wiener_block",
]

# Grid cells per unit of time for limit functionals.  Discretization bias in
# quantiles at this resolution is second order relative to Monte Carlo error
# at the default replication counts.
DEFAULT_GRID = 4096


@dataclass(frozen=True)
class SeedSpec:
    """Key of one reproducible random stream.

    ``(master_seed, stream_index)`` fully determines every draw of the stream;
    distinct stream indices give statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def key(self) -> np.ndarray:
        """The Philox key of the stream; its counter starts at zero."""
        return np.array(
            [self.master_seed % (1 << 64), self.stream_index % (1 << 64)],
            dtype=np.uint64,
        )

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))


@dataclass(frozen=True)
class WienerPath:
    """A standard Wiener path sampled on a uniform grid.

    ``values[k]`` approximates ``W(k * horizon / grid_count)``; increments are
    independent ``Normal(0, horizon / grid_count)`` draws and ``values[0] == 0``.
    """

    horizon: float
    grid_count: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.grid_count < 1:
            raise ValueError("grid_count must be at least 1")
        if self.values.shape != (self.grid_count + 1,):
            raise ValueError("values must have grid_count + 1 entries")
        if self.values[0] != 0.0:
            raise ValueError("a Wiener path starts at zero")

    @property
    def step(self) -> float:
        return self.horizon / self.grid_count

    def grid_index(self, t: float) -> int:
        """Nearest grid index for time ``t``, ties rounded toward zero."""
        if t < 0 or t > self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        x = t * self.grid_count / self.horizon
        return min(self.grid_count, max(0, math.ceil(x - 0.5)))

    def eval_at(self, t: float) -> float:
        return float(self.values[self.grid_index(t)])


def stream_generators(master_seed: int, stream_lo: int, count: int) -> Iterator[np.random.Generator]:
    """Generators at the start of streams ``stream_lo`` to ``stream_lo + count - 1``.

    Each yielded generator draws exactly what ``SeedSpec(master_seed, r).generator()``
    would.  It is one generator, rekeyed for each stream, so it must be done
    with before the next is taken: rekeying costs a few microseconds, while a
    new ``Philox`` first seeds itself from OS entropy only to have the key
    replace it.
    """
    bits = np.random.Philox(key=SeedSpec(master_seed, stream_lo).key())
    gen = np.random.Generator(bits)
    fresh = bits.state
    for r in range(stream_lo, stream_lo + count):
        if r != stream_lo:
            fresh["state"]["key"] = SeedSpec(master_seed, r).key()
            bits.state = fresh
        yield gen


def wiener_block(
    grid_count: int,
    step: float,
    master_seed: int,
    stream_lo: int,
    rows: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate ``rows`` Wiener paths, row ``r`` drawn from stream ``stream_lo + r``.

    Returns a float64 array of shape ``(rows, grid_count + 1)`` whose columns
    are the path values on the grid with spacing ``step``; it is ``out`` when
    given, a C-contiguous float64 array of that shape.
    """
    z = np.empty((rows, grid_count + 1)) if out is None else out
    z[:, 0] = 0.0
    for r, gen in enumerate(stream_generators(master_seed, stream_lo, rows)):
        gen.standard_normal(grid_count, out=z[r, 1:])
    # in place: a second rows x (grid_count + 1) buffer would double the block
    np.cumsum(z, axis=1, out=z)
    z *= math.sqrt(step)
    return z


def simulate_wiener(horizon: float, grid_count: int, seed: SeedSpec) -> WienerPath:
    """Simulate one standard Wiener path on ``[0, horizon]``.

    Deterministic given ``seed``; rejects nonpositive horizons and empty grids.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if grid_count < 1:
        raise ValueError("grid_count must be at least 1")
    values = wiener_block(grid_count, horizon / grid_count, seed.master_seed, seed.stream_index, 1)[0]
    return WienerPath(horizon=float(horizon), grid_count=int(grid_count), values=values)


def bridge_weight_integral(path: WienerPath, s: float, weight) -> float:
    """Left-endpoint Riemann sum of ``integral_0^1 f(v) * B_s(v) dv``.

    ``B_s(v) = W(s + v) - W(s) - v * (W(s + 1) - W(s))`` is the unit-length
    bridge of the path anchored at ``s``; ``weight`` is a weighting function
    (or anything with an ``fn`` attribute) evaluated on ``[0, 1)``.
    """
    if s + 1 > path.horizon + 1e-12:
        raise ValueError(f"bridge window [s, s+1] = [{s}, {s + 1}] exceeds horizon {path.horizon}")
    cells = int(round(1.0 / path.step))
    i0 = path.grid_index(s)
    i0 = min(i0, path.grid_count - cells)
    fn = getattr(weight, "fn", weight)
    v = np.arange(cells) / cells
    w0 = path.values[i0]
    span = path.values[i0 + cells] - w0
    bridge = path.values[i0 : i0 + cells] - w0 - v * span
    return float(np.sum(np.asarray(fn(v), dtype=float) * bridge) / cells)
