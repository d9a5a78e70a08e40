"""Pseudo-spectral projection, moments, and Sobol indices.

Coefficients come from weighted sums over quadrature points,

    c_k = sum_p w_p * y(x_p) * Phi_k(x_p).

``project_sparse`` is the one projection. Each component tensor grid of
a ``SparseGrid`` is projected onto its own alias-free degree range and
the results are summed with the combination coefficients (the sparse
pseudo-spectral method of Constantine, Eldred & Phipps, CMAME 2012); a
full tensor grid is the one-component case. The grid's points must be in
the physical domain, as ``samplers.stage_grid`` returns them:
``evaluate_basis`` is the one place that maps them back to the reference
domain. With an orthonormal basis the mean is c_0,
the variance is the sum of the other squared coefficients, and Sobol
indices are ratios of coefficient-subset sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from uqpilot.analysis.basis import evaluate_basis
from uqpilot.errors import MissingRunError
from uqpilot.sampling.distributions import Distribution1D
from uqpilot.sampling.sparse import SparseGrid

DEGENERATE_VARIANCE = 1e-14


@dataclass
class SpectralSurrogate:
    """Orthonormal-basis coefficients for one QoI."""

    param_names: list[str]
    dists: list[Distribution1D]
    qoi: str
    index: np.ndarray | None               # time/index vector, len T
    terms: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(next(iter(self.terms.values())))

    def coefficient(self, key: tuple[int, ...]) -> np.ndarray:
        return self.terms.get(key, np.zeros(self.n_points))


@dataclass
class SobolReport:
    param_names: list[str]
    index: np.ndarray | None
    variance: np.ndarray                    # per time point
    first: dict[str, np.ndarray]            # S_i, NaN where variance degenerate
    total: dict[str, np.ndarray]            # ST_i
    degenerate: np.ndarray                  # bool mask per time point
    mean: np.ndarray | None = None


def _values_matrix(values, n_expected: int, what: str) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != n_expected:
        raise MissingRunError(
            f"{what}: expected {n_expected} model evaluations, got {y.shape[0]}"
        )
    return y


def project_sparse(
    values,
    grid: SparseGrid,
    dists: list[Distribution1D],
    param_names: list[str],
    qoi: str = "y",
    index=None,
) -> SpectralSurrogate:
    """Combination-technique projection over a grid with physical points.

    `values` holds one row per grid point. Each component tensor grid
    projects onto its own alias-free degree range; component surrogates
    are summed with the combination coefficients. Terms are truncated to
    total degree <= grid.total_degree when that is set.
    """
    y = _values_matrix(values, len(grid.points), "projection")
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for comp in grid.components:
        pts = grid.points[comp.rows]
        caps = [_alias_free_cap(rule, order) for rule, order in zip(grid.rules, comp.orders)]
        basis = [
            evaluate_basis(dist, pts[:, i], caps[i]) for i, dist in enumerate(dists)
        ]
        wy = comp.weights[:, None] * y[comp.rows]
        for key in itertools.product(*[range(c + 1) for c in caps]):
            if grid.total_degree is not None and sum(key) > grid.total_degree:
                continue
            phi = np.ones(len(pts))
            for i, k in enumerate(key):
                phi = phi * basis[i][k]
            contrib = comp.coefficient * (phi @ wy)
            if key in terms:
                terms[key] = terms[key] + contrib
            else:
                terms[key] = contrib
    return SpectralSurrogate(list(param_names), list(dists), qoi, index, terms)


def _alias_free_cap(rule: str, order: int) -> int:
    # n-point Gauss rules integrate products of two degree-(n-1) basis
    # polynomials exactly; CC with m points is exact through degree m-1,
    # so cap at floor((m-1)/2) to keep component projections alias-free
    return (order - 1) // 2 if rule == "clenshaw-curtis" else order - 1


def moments(s: SpectralSurrogate) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) per time point: c_0 and sum of squared c_k, k != 0."""
    zero = tuple([0] * len(s.param_names))
    mean = s.coefficient(zero).copy()
    var = np.zeros_like(mean)
    for key, c in s.terms.items():
        if key != zero:
            var += c * c
    return mean, var


def sobol(s: SpectralSurrogate) -> SobolReport:
    """First- and total-order Sobol indices from the coefficients.

    Where the variance is degenerate (<= 1e-14) the indices are reported
    as NaN, not zero.
    """
    mean, var = moments(s)
    d = len(s.param_names)
    zero = tuple([0] * d)
    first_num = {i: np.zeros_like(var) for i in range(d)}
    total_num = {i: np.zeros_like(var) for i in range(d)}
    for key, c in s.terms.items():
        if key == zero:
            continue
        c2 = c * c
        active = [i for i in range(d) if key[i] > 0]
        for i in active:
            total_num[i] += c2
        if len(active) == 1:
            first_num[active[0]] += c2
    degenerate = var <= DEGENERATE_VARIANCE
    safe = np.where(degenerate, 1.0, var)
    first = {}
    total = {}
    for i, name in enumerate(s.param_names):
        first[name] = np.where(degenerate, np.nan, first_num[i] / safe)
        total[name] = np.where(degenerate, np.nan, total_num[i] / safe)
    return SobolReport(
        param_names=list(s.param_names),
        index=s.index,
        variance=var,
        first=first,
        total=total,
        degenerate=degenerate,
        mean=mean,
    )

