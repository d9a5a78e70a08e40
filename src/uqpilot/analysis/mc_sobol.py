"""Saltelli pick-freeze Monte Carlo Sobol estimator.

Independent of the spectral path on purpose: it serves as the
cross-check oracle for Sobol indices. Uses (d+2)*n model evaluations:
two base matrices A and B plus the d column-swapped hybrids A_B^(i).
First-order indices use the Saltelli 2010 estimator, total-order the
Jansen estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uqpilot.errors import DomainError
from uqpilot.sampling.distributions import Distribution1D


@dataclass
class McSobolResult:
    param_names: list[str]
    n: int
    seed: int
    variance: float
    first: dict[str, float]
    total: dict[str, float]
    first_se: dict[str, float]
    total_se: dict[str, float]


def sobol_mc(
    model,
    dists: list[Distribution1D],
    n: int,
    seed: int,
    param_names: list[str] | None = None,
) -> McSobolResult:
    """Estimate S_i and ST_i for `model` over independent inputs.

    `model` maps an (m, d) array to m scalar outputs. Reproducible from
    the seed (counter-based Philox stream).
    """
    if n < 2:
        raise DomainError(f"pick-freeze needs n >= 2, got {n}")
    d = len(dists)
    if param_names is None:
        param_names = [f"x{i + 1}" for i in range(d)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((2 * n, d))
    u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    base = np.empty_like(u)
    for j, dist in enumerate(dists):
        base[:, j] = dist.quantile(u[:, j])
    a, b = base[:n], base[n:]

    fa = np.asarray(model(a), dtype=float).reshape(n)
    fb = np.asarray(model(b), dtype=float).reshape(n)
    f_all = np.concatenate([fa, fb])
    var = float(np.var(f_all, ddof=1))

    first, total, first_se, total_se = {}, {}, {}, {}
    for i, name in enumerate(param_names):
        ab = a.copy()
        ab[:, i] = b[:, i]
        fab = np.asarray(model(ab), dtype=float).reshape(n)
        # Saltelli 2010 first-order elementary estimates
        elem_first = fb * (fab - fa)
        # Jansen total-order elementary estimates
        elem_total = 0.5 * (fa - fab) ** 2
        first[name] = float(np.mean(elem_first) / var)
        total[name] = float(np.mean(elem_total) / var)
        first_se[name] = float(np.std(elem_first, ddof=1) / np.sqrt(n) / var)
        total_se[name] = float(np.std(elem_total, ddof=1) / np.sqrt(n) / var)

    return McSobolResult(
        param_names=list(param_names),
        n=n,
        seed=seed,
        variance=var,
        first=first,
        total=total,
        first_se=first_se,
        total_se=total_se,
    )
