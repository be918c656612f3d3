"""Plain-numpy forms of the definitions the benchmark checks obci against.

Nothing here imports obci.  Each function restates a definition directly:
explicit window slicing instead of cumulative sums, the double sum of the
weighted area estimator instead of prefix tricks, the bias constants from
their lag-sum and continuum formulas, and the subsampling root quantiles.
The random streams are the documented ones: stream ``(master_seed, r)`` is a
Philox generator keyed by that pair.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def philox(master_seed: int, stream: int) -> np.random.Generator:
    key = np.array([master_seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Data streams of the coverage studies
# ---------------------------------------------------------------------------


def iid_normal(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.standard_normal(n)


def ar1_series(gen: np.random.Generator, n: int, phi: float, burn_in: int = 1000) -> np.ndarray:
    """y_t = phi * y_{t-1} + e_t from y_{-1} = 0, keeping the last n of burn_in + n steps."""
    eps = gen.standard_normal(burn_in + n)
    y = np.empty_like(eps)
    prev = 0.0
    for t, e in enumerate(eps):
        prev = e + phi * prev
        y[t] = prev
    return y[burn_in:]


def nhpp_counts(gen: np.random.Generator, n: int, t: float, delta: float,
                rate_a: float = 4.0, rate_b: float = 8.0) -> np.ndarray:
    """Counts of a Poisson process with rate a + b s over [t, t + delta], n copies."""
    mean = delta * (rate_a + rate_b * t) + rate_b * delta**2 / 2.0
    return gen.poisson(mean, n).astype(float)


def cvar_truth(gamma: float) -> tuple[float, float]:
    """(gamma-quantile, tail mean above it) of the standard normal."""
    q = float(stats.norm.ppf(gamma))
    return q, float(stats.norm.pdf(q) / (1.0 - gamma))


# ---------------------------------------------------------------------------
# Estimators on one window; None marks a window on which the functional is
# undefined (too short, or no observation at or above a known threshold).
# ---------------------------------------------------------------------------


def _order_stat(w: np.ndarray, gamma: float) -> float:
    """Smallest order statistic whose empirical cdf reaches gamma."""
    return float(np.sort(w)[math.ceil(gamma * w.size) - 1])


def _tail_possible(gamma: float, size: int) -> bool:
    return math.ceil(gamma * size) < size


def estimator(tag: str):
    """Window estimator for an obci estimator tag, as a function of the window."""
    kind, *par = tag.split(":")
    if kind == "mean":
        return lambda w: float(np.mean(w))
    if kind == "nhpp":
        delta = float(par[0])
        return lambda w: float(np.mean(w)) / delta
    if kind == "ar1":
        def ar1(w):
            if w.size < 2:
                return None
            den = float(np.dot(w[:-1], w[:-1]))
            return None if den == 0.0 else float(np.dot(w[:-1], w[1:])) / den
        return ar1
    gamma = float(par[0])
    known = float(par[1]) if len(par) == 2 else None
    if kind == "quantile":
        return lambda w: _order_stat(w, gamma)

    def tail(w):
        if not _tail_possible(gamma, w.size):
            return None
        q = _order_stat(w, gamma) if known is None else known
        above = w[w >= q]
        if above.size == 0:
            return None
        if kind == "cvar":
            return float(above.sum()) / (w.size * (1.0 - gamma))
        return float(above.mean())

    if kind in ("cvar", "cvartail"):
        return tail
    raise ValueError(f"unknown estimator tag {tag!r}")


# ---------------------------------------------------------------------------
# Bias constants
# ---------------------------------------------------------------------------


def kappa1(beta: float) -> float:
    return 1.0 - beta


def kappa2(beta: float, b_inf: float) -> float:
    """OB-II bias constant: 1 - 2 * (mean overlap correlation of batch pairs).

    Finite b_inf: lag sum over batch pairs h apart, whose overlap fraction is
    1 - h (1 - beta) / ((b - 1) beta).  Infinite b_inf: its continuum limit
    1 - 2 * integral_0^1 max(1 - u (1 - beta) / beta, 0) (1 - u) du.
    """
    c = (1.0 - beta) / beta
    if math.isinf(b_inf):
        g = min(1.0 / c, 1.0)  # overlap vanishes beyond u = g
        integral = g - (c + 1.0) * g**2 / 2.0 + c * g**3 / 3.0
        return 1.0 - 2.0 * integral
    b = int(b_inf)
    lag = 0.0
    for h in range(1, b + 1):
        lag += max(1.0 - h * c / (b - 1), 0.0) * (1.0 - h / b)
    return 1.0 - 1.0 / b - 2.0 / b * lag


def b_inf_class(n: int, d: int, b: int) -> float:
    """Infinite when the offset is at most sqrt(n), else the realized b."""
    return math.inf if d <= math.sqrt(n) else float(b)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def batch_values(x: np.ndarray, m: int, d: int, est) -> list:
    b = (x.size - m) // d + 1
    return [est(x[i * d : i * d + m]) for i in range(b)]


def ob_interval(method: str, x: np.ndarray, m: int, d: int, tag: str, cv: float):
    """(center, sigma_hat, half_width) of an OB-x interval, or None when degenerate."""
    est = estimator(tag)
    n = x.size
    full = est(x)
    batches = batch_values(x, m, d, est)
    b = len(batches)
    if full is None or any(v is None for v in batches):
        return None
    beta = m / n
    theta = np.array(batches)
    if method == "ob1":
        center = full
        var = m / b * float(np.sum((theta - full) ** 2)) / kappa1(beta)
    elif method == "ob2":
        center = float(np.mean(theta))
        var = m / b * float(np.sum((theta - center) ** 2)) / kappa2(beta, b_inf_class(n, d, b))
    else:
        center = full
        var = ob3_variance(x, m, d, est)
    sigma = math.sqrt(var)
    if sigma == 0.0:
        return None
    return center, sigma, cv * sigma / math.sqrt(n)


def ob3_variance(x: np.ndarray, m: int, d: int, est) -> float:
    """(1/b) sum_i A_i^2 with A_i = sum_j f(j/m) j (theta_{i,j} - theta_{i,m}) / (m sqrt(m)).

    theta_{i,j} is the estimate on the first j observations of batch i, f the
    constant weight sqrt(12); undefined prefixes contribute zero.
    """
    b = (x.size - m) // d + 1
    total = 0.0
    for i in range(b):
        w = x[i * d : i * d + m]
        last = est(w)
        area = 0.0
        for j in range(1, m + 1):
            v = est(w[:j])
            if v is not None:
                area += j * (v - last)
        area *= math.sqrt(12.0) / (m * math.sqrt(m))
        total += area * area
    return total / b


def ss_interval(x: np.ndarray, tag: str, alpha: float):
    """(lower, center, upper, c_hi) of the subsampling interval, or None.

    Subsample size m = round(sqrt(n)); roots sqrt(m) (theta_j - theta_n) over
    every window with a defined estimate; the upper root quantile sets the
    lower endpoint and the lower one the upper endpoint.
    """
    est = estimator(tag)
    n = x.size
    m = int(round(math.sqrt(n)))
    full = est(x)
    values = [v for v in batch_values(x, m, 1, est) if v is not None]
    if len(values) < 10:
        return None
    roots = np.sort(math.sqrt(m) * (np.array(values) - full))

    def quantile(q):
        return float(roots[max(1, math.ceil(q * roots.size)) - 1])

    c_hi, c_lo = quantile(1.0 - alpha / 2.0), quantile(alpha / 2.0)
    return full - c_hi / math.sqrt(n), full, full - c_lo / math.sqrt(n), c_hi


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------


def tiling_t_draws(master_seed: int, b: int, grid: int, replications: int) -> np.ndarray:
    """OB-II(1/b, b) limit draws: one-sample t statistics of b disjoint increments.

    With beta = 1/b and b batches the OB-II batches tile [0, 1], so the limit
    is the t statistic of the b increments of W over the tiles.  Path r's
    increments come from the documented stream (master_seed, r) on the grid.
    """
    cells = grid // b
    t = np.empty(replications)
    for r in range(replications):
        z = philox(master_seed, r).standard_normal(grid)
        inc = z[: b * cells].reshape(b, cells).sum(axis=1) / math.sqrt(grid)
        t[r] = inc.mean() / (inc.std(ddof=1) / math.sqrt(b))
    return t


def empirical_quantile(draws: np.ndarray, q: float) -> float:
    """Smallest draw whose empirical cdf reaches q."""
    return float(np.quantile(draws, q, method="inverted_cdf"))


def quantile_se(q: float, replications: int, density: float) -> float:
    """Asymptotic standard error of an empirical q-quantile."""
    return math.sqrt(q * (1.0 - q) / replications) / density
