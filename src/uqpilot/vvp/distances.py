"""Distances between two 1-D sample arrays: Hellinger, Jensen-Shannon, Wasserstein-1.

Hellinger and JS compare mass vectors: `as_masses` bins both sample
arrays on one set of Freedman-Diaconis edges computed on the pooled
data, so both sides see identical bins. JS uses base-2 logs, so both
metrics live in [0, 1]. Wasserstein-1 works directly on the samples
through the quantile-function formulation.
"""

from __future__ import annotations

import numpy as np

from uqpilot.errors import EmptyInput

MAX_BINS = 512


def samples(values) -> np.ndarray:
    """`values` as a flat float array; empty or non-finite input is refused."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise EmptyInput("a distance needs at least one sample on each side")
    if not np.all(np.isfinite(x)):
        raise EmptyInput("samples must be finite")
    return x


def fd_edges(pooled: np.ndarray) -> np.ndarray:
    """Freedman-Diaconis shared bin edges over pooled data."""
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi - lo <= 0:
        return np.array([lo - 0.5, lo + 0.5])
    q75, q25 = np.percentile(pooled, [75, 25])
    iqr = q75 - q25
    width = 2.0 * iqr / len(pooled) ** (1 / 3) if iqr > 0 else 0.0
    if width <= 0:
        nbins = max(1, int(np.ceil(np.sqrt(len(pooled)))))
    else:
        nbins = max(1, int(np.ceil((hi - lo) / width)))
    nbins = min(nbins, MAX_BINS)
    return np.linspace(lo, hi, nbins + 1)


def _bin_samples(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # out-of-range samples are clipped into the end bins so mass is kept
    clipped = np.clip(x, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts / counts.sum()


def as_masses(p_samples, q_samples) -> tuple[np.ndarray, np.ndarray]:
    """Mass vectors of two sample arrays on their shared FD bins."""
    x, y = samples(p_samples), samples(q_samples)
    edges = fd_edges(np.concatenate([x, y]))
    return _bin_samples(x, edges), _bin_samples(y, edges)


def hellinger(pm: np.ndarray, qm: np.ndarray) -> float:
    """H(p, q) = sqrt(sum (sqrt(p_i) - sqrt(q_i))^2) / sqrt(2), in [0, 1],
    for two mass vectors over the same bins."""
    h = np.sqrt(np.sum((np.sqrt(pm) - np.sqrt(qm)) ** 2) / 2.0)
    return float(min(h, 1.0))


def jensen_shannon_dist(pm: np.ndarray, qm: np.ndarray) -> float:
    """sqrt of the JS divergence against the even mixture, base-2 logs,
    for two mass vectors over the same bins."""
    m = 0.5 * (pm + qm)
    div = 0.5 * _kl(pm, m) + 0.5 * _kl(qm, m)
    return float(min(np.sqrt(max(div, 0.0)), 1.0))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def wasserstein1(p_samples, q_samples) -> float:
    """1-D earth mover's distance via the CDF-difference integral."""
    x = np.sort(samples(p_samples))
    y = np.sort(samples(q_samples))
    if x.size == y.size:
        return float(np.mean(np.abs(x - y)))
    values = np.concatenate([x, y])
    values.sort(kind="mergesort")
    deltas = np.diff(values)
    x_cdf = np.searchsorted(x, values[:-1], side="right") / x.size
    y_cdf = np.searchsorted(y, values[:-1], side="right") / y.size
    return float(np.sum(np.abs(x_cdf - y_cdf) * deltas))
