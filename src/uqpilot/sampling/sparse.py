"""Smolyak sparse grids via the combination technique.

A level-L grid over d dimensions is the signed sum of component tensor
grids Q_{k_1} x ... x Q_{k_d} over multi-indices k with |k|_1 <= L,
where the combination coefficient

    c_k = (-1)^(L - |k|) * C(d - 1, L - |k|)   for L-d+1 <= |k| <= L

and zero otherwise. ``combine`` is the one grid constructor: it builds,
merges and weights any signed sum of tensor grids, and keeps each
component's provenance so spectral projection can process each tensor grid
separately and sum with c_k. ``smolyak_grid`` enumerates the Smolyak
components; a full tensor grid is the one component ((L, ..., L), 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from uqpilot.errors import DomainError, SizeError
from uqpilot.sampling.quadrature import (
    TENSOR_SIZE_CAP,
    QuadRule,
    rule_at_level,
    tensor_grid,
)

MERGE_TOL = 1e-12


@dataclass(frozen=True)
class Component:
    """One tensor grid of the combination, with its signed coefficient."""

    index: tuple[int, ...]             # per-dimension levels
    coefficient: int
    rows: np.ndarray                   # indices into the merged point list
    weights: np.ndarray                # tensor-product weights, sum 1
    orders: tuple[int, ...]            # 1-D rule orders per dimension


@dataclass(frozen=True)
class SparseGrid:
    rules: tuple[str, ...]             # per-dimension 1-D rule names
    points: np.ndarray                 # (N, d) merged nodes, reference domain
    weights: np.ndarray                # (N,) combined weights, sum 1
    components: list[Component] = field(repr=False)
    merged: bool = True
    total_degree: int | None = None    # projection keeps |k|_1 <= this; None: no cap

    def __len__(self) -> int:
        return len(self.points)


def combination_coefficient(d: int, level: int, norm: int) -> int:
    q = level - norm
    if q < 0 or q > d - 1:
        return 0
    return (-1) ** q * math.comb(d - 1, q)


def multi_indices(d: int, level: int):
    """Every k in N^d with |k|_1 <= level, in lexicographic order.

    The order is that of ``itertools.product(range(level + 1), repeat=d)``
    with the other indices left out, but only C(d + level, d) are visited.
    """
    if d == 0:
        yield ()
        return
    for first in range(level + 1):
        for rest in multi_indices(d - 1, level - first):
            yield (first, *rest)


def smolyak_grid(
    d: int,
    level: int,
    rules: list[str] | str = "clenshaw-curtis",
) -> SparseGrid:
    """Build the level-`level` Smolyak grid over `d` dimensions.

    `rules` is a single 1-D rule name or one per dimension. The grid is
    the `combine` of every multi-index with a nonzero coefficient, and
    projection truncates to total degree <= `level`.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if level < 0:
        raise DomainError(f"level must be >= 0, got {level}")
    if isinstance(rules, str):
        rules = [rules] * d
    if len(rules) != d:
        raise DomainError(f"need one rule per dimension ({d}), got {len(rules)}")
    indices = [(k, c) for k in multi_indices(d, level)
               if (c := combination_coefficient(d, level, sum(k)))]
    return combine(rules, indices, total_degree=level)


def combine(
    rules: list[str],
    indices: list[tuple[tuple[int, ...], int]],
    total_degree: int | None,
) -> SparseGrid:
    """The signed sum of the tensor grids `indices` over the 1-D `rules`.

    Each `(k, c)` in `indices` is the tensor grid whose dimension i takes
    `rules[i]` at level `k[i]`, with coefficient `c`. Duplicate points are
    merged (weights summed) unless a dimension uses the non-nested
    Gauss-Hermite rule. Projection keeps total degree <= `total_degree`.
    """
    merge = all(r != "gauss-hermite" for r in rules)

    rule_cache: dict[tuple[str, int], QuadRule] = {}

    def rule_at(dim: int, lvl: int) -> QuadRule:
        key = (rules[dim], lvl)
        if key not in rule_cache:
            rule_cache[key] = rule_at_level(*key)
        return rule_cache[key]

    grids = []   # (index, coefficient, points, weights, orders) of each component
    budget = 0

    for k, coeff in indices:
        comp_rules = [rule_at(i, lvl) for i, lvl in enumerate(k)]
        budget += math.prod(r.order for r in comp_rules)
        if budget > TENSOR_SIZE_CAP:
            raise SizeError(f"grid exceeds {TENSOR_SIZE_CAP} points before merging")
        pts, wts = tensor_grid(comp_rules)
        grids.append((k, coeff, pts, wts, tuple(r.order for r in comp_rules)))

    points = np.concatenate([pts for _, _, pts, _, _ in grids])
    if merge:
        # bucket coordinates on a MERGE_TOL lattice; nested rules produce
        # bitwise-equal duplicates so bucket boundaries are not a concern.
        # A merged point is its first occurrence, and rows are numbered in
        # order of first occurrence.
        keys = np.round(points / MERGE_TOL).astype(np.int64)
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rows = rank[inverse.reshape(-1)]
        points = points[first[order]]
    else:
        rows = np.arange(len(points))
    # bincount adds each point's weight in turn, in input order, so each sum
    # equals a point-by-point loop's bitwise
    weights = np.bincount(rows, np.concatenate([coeff * wts for _, coeff, _, wts, _ in grids]),
                          len(points))
    starts = np.cumsum([0, *(len(pts) for _, _, pts, _, _ in grids)])
    components = [Component(index=k, coefficient=coeff, rows=rows[a:b], weights=wts, orders=o)
                  for (k, coeff, _, wts, o), a, b in zip(grids, starts, starts[1:])]

    return SparseGrid(
        rules=tuple(rules),
        points=points,
        weights=weights,
        components=components,
        merged=merge,
        total_degree=total_degree,
    )
