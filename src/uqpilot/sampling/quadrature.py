"""One-dimensional quadrature rules and tensor products.

All rules carry probability-normalized weights: Gauss-Legendre and
Clenshaw-Curtis integrate against the uniform measure on [-1, 1]
(density 1/2), Gauss-Hermite against the standard normal. Weights of a
rule therefore sum to 1, and an n-point Gauss rule reproduces moments
of monomials up to degree 2n-1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uqpilot.errors import DomainError, SizeError

TENSOR_SIZE_CAP = 10**7


@dataclass(frozen=True)
class QuadRule:
    rule: str          # gauss-legendre | gauss-hermite | clenshaw-curtis
    order: int         # number of nodes
    nodes: np.ndarray  # strictly increasing, reference domain
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DomainError(f"rule needs at least one node, got {self.order}")
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise DomainError("node/weight lengths disagree with order")


def gauss_legendre(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule for the uniform measure on [-1, 1]."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadRule("gauss-legendre", n, nodes, weights / 2.0)


def gauss_hermite(n: int) -> QuadRule:
    """n-point Gauss-Hermite rule (probabilists') for the standard normal."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    return QuadRule("gauss-hermite", n, nodes, weights / weights.sum())


def cc_num_nodes(level: int) -> int:
    """Clenshaw-Curtis growth: m(0) = 1, m(l) = 2^l + 1."""
    if level < 0:
        raise DomainError(f"level must be >= 0, got {level}")
    return 1 if level == 0 else 2**level + 1


def clenshaw_curtis(level: int) -> QuadRule:
    """Nested Clenshaw-Curtis rule at the given level.

    Nodes are cosine-spaced on [-1, 1] and bitwise identical to the
    matching subset of the next level, so sparse-grid merging is exact.
    """
    m = cc_num_nodes(level)
    if m == 1:
        return QuadRule("clenshaw-curtis", 1, np.array([0.0]), np.array([1.0]))
    n = m - 1
    j = np.arange(m)
    raw = -np.cos(np.pi * j / n)
    # antisymmetrize: pins the center node to exactly 0 and keeps the
    # level-to-level bitwise nesting (both mirror components nest).
    nodes = (raw - raw[::-1]) / 2.0

    # Waldvogel's DFT construction of the classical weights (sum = 2).
    c = np.zeros((m, 2))
    k = 2 * (1 + np.arange(n // 2))
    c[::2, 0] = 2.0 / np.hstack((1.0, 1.0 - k * k))
    c[1, 1] = -float(n)
    v = np.vstack((c, np.flipud(c[1:n, :])))
    f = np.real(np.fft.ifft(v, axis=0))
    weights = np.hstack((f[0, 0], 2 * f[1:n, 0], f[n, 0]))
    return QuadRule("clenshaw-curtis", m, nodes, weights / 2.0)


def rule_at_level(kind: str, level: int) -> QuadRule:
    """The 1-D rule of `kind` at a growth level: Clenshaw-Curtis takes the
    level itself (2^l + 1 nodes), Gauss rules grow linearly (l + 1 nodes)."""
    if kind == "clenshaw-curtis":
        return clenshaw_curtis(level)
    if kind == "gauss-legendre":
        return gauss_legendre(level + 1)
    if kind == "gauss-hermite":
        return gauss_hermite(level + 1)
    raise DomainError(f"unknown quadrature rule {kind!r}")


def tensor_grid(rules: list[QuadRule]) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian product of 1-D rules.

    Returns (points, weights) with points of shape (N, d); the weight of
    a point is the product of its 1-D weights, so weights sum to 1.
    """
    if not rules:
        raise DomainError("tensor grid needs at least one rule")
    total = math.prod(r.order for r in rules)
    if total > TENSOR_SIZE_CAP:
        raise SizeError(f"tensor grid has {total} points, cap is {TENSOR_SIZE_CAP}")
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    points = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wgrids = np.meshgrid(*[r.weights for r in rules], indexing="ij")
    weights = np.ones(total)
    for w in wgrids:
        weights = weights * w.reshape(-1)
    return points, weights
