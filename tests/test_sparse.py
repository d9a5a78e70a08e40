"""Smolyak grids checked against an independent brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest

from uqpilot.sampling.quadrature import clenshaw_curtis, gauss_legendre
from uqpilot.sampling.sparse import smolyak_grid

TOL = 1e-12


def oracle_rule(name: str, level: int):
    """1-D nodes/weights, deliberately reusing only the rule constructors."""
    if name == "clenshaw-curtis":
        r = clenshaw_curtis(level)
    else:
        r = gauss_legendre(level + 1)
    return list(zip(r.nodes.tolist(), r.weights.tolist()))


def oracle_smolyak(d: int, level: int, rule: str) -> dict[tuple, float]:
    """Brute-force combination technique: enumerate every component tensor
    grid, accumulate signed weights keyed on coordinate buckets."""
    acc: dict[tuple, tuple[tuple, float]] = {}
    for k in itertools.product(range(level + 1), repeat=d):
        q = level - sum(k)
        if q < 0 or q > d - 1:
            continue
        coeff = (-1) ** q * math.comb(d - 1, q)
        pairs = [oracle_rule(rule, ki) for ki in k]
        for combo in itertools.product(*pairs):
            point = tuple(c[0] for c in combo)
            weight = coeff * math.prod(c[1] for c in combo)
            key = tuple(round(x / TOL) for x in point)
            if key in acc:
                acc[key] = (acc[key][0], acc[key][1] + weight)
            else:
                acc[key] = (point, weight)
    return {key: pw for key, pw in acc.items()}


@pytest.mark.parametrize("rule", ["clenshaw-curtis", "gauss-legendre"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_matches_brute_force_oracle(rule, d, level):
    grid = smolyak_grid(d, level, rule)
    expected = oracle_smolyak(d, level, rule)
    assert len(grid) == len(expected)
    for point, weight in zip(grid.points, grid.weights):
        key = tuple(round(x / TOL) for x in point)
        assert key in expected, f"unexpected point {point}"
        ref_point, ref_weight = expected[key]
        assert point == pytest.approx(ref_point, abs=TOL)
        assert weight == pytest.approx(ref_weight, abs=1e-12)
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def test_one_dimension_reduces_to_single_rule():
    for level in range(4):
        grid = smolyak_grid(1, level, "clenshaw-curtis")
        r = clenshaw_curtis(level)
        assert np.allclose(np.sort(grid.points[:, 0]), r.nodes)
        order = np.argsort(grid.points[:, 0])
        assert np.allclose(grid.weights[order], r.weights)


def test_level_zero_single_center_point():
    for d in (1, 2, 5):
        grid = smolyak_grid(d, 0, "clenshaw-curtis")
        assert len(grid) == 1
        assert grid.points.tolist() == [[0.0] * d]
        assert grid.weights.tolist() == [1.0]


def test_sparse_not_larger_than_tensor():
    for d in (2, 3):
        for level in (1, 2, 3):
            grid = smolyak_grid(d, level, "clenshaw-curtis")
            tensor_count = clenshaw_curtis(level).order ** d
            assert len(grid) <= tensor_count
            assert len(grid) < tensor_count, f"d={d} level={level} not strictly smaller"


def test_known_point_counts_d6():
    # CC growth over six dimensions: the classic count sequence
    assert len(smolyak_grid(6, 1, "clenshaw-curtis")) == 13
    assert len(smolyak_grid(6, 2, "clenshaw-curtis")) == 85
    assert len(smolyak_grid(6, 3, "clenshaw-curtis")) == 389


@pytest.mark.slow
def test_point_count_matches_published_plan_sizes():
    # levels 5 and 6 land exactly on the 4865 / 15121 ensemble sizes
    assert len(smolyak_grid(6, 5, "clenshaw-curtis")) == 4865
    assert len(smolyak_grid(6, 6, "clenshaw-curtis")) == 15121


def test_gauss_hermite_dimensions_disable_merging():
    grid = smolyak_grid(2, 2, ["gauss-hermite", "gauss-hermite"])
    assert len(grid) == sum(len(c.rows) for c in grid.components)
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def test_mixed_rules():
    grid = smolyak_grid(2, 2, ["clenshaw-curtis", "gauss-hermite"])
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def test_combination_coefficients_window():
    from uqpilot.sampling.sparse import combination_coefficient

    # d=3, L=4: nonzero only for L-d+1 <= |k| <= L, alternating signs
    assert combination_coefficient(3, 4, 4) == 1
    assert combination_coefficient(3, 4, 3) == -2
    assert combination_coefficient(3, 4, 2) == 1
    assert combination_coefficient(3, 4, 1) == 0
    assert combination_coefficient(3, 4, 0) == 0


def product_filter(d: int, level: int):
    """The full (level+1)^d product with |k|_1 > level dropped."""
    return (k for k in itertools.product(range(level + 1), repeat=d) if sum(k) <= level)


@pytest.mark.parametrize("rule", ["clenshaw-curtis", "gauss-legendre"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_index_enumeration_matches_product_filter_bitwise(rule, d, level, monkeypatch):
    from uqpilot.sampling import sparse

    assert list(sparse.multi_indices(d, level)) == list(product_filter(d, level))
    grid = smolyak_grid(d, level, rule)
    monkeypatch.setattr(sparse, "multi_indices", product_filter)
    reference = smolyak_grid(d, level, rule)
    assert grid.points.tobytes() == reference.points.tobytes()
    assert grid.weights.tobytes() == reference.weights.tobytes()
    assert [c.index for c in grid.components] == [c.index for c in reference.components]


def test_high_dimension_low_level_grid_returns():
    # the product filter would walk 4^16 = 4.3e9 indices here
    grid = smolyak_grid(16, 3, "clenshaw-curtis")
    assert len(grid.components) == math.comb(16 + 3, 3)   # every |k|_1 <= 3 contributes
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def loop_merged(d: int, level: int, rules):
    """(points, weights, per-component rows) merged one point at a time, the
    way `smolyak_grid` once merged them: a dict from each point's
    MERGE_TOL-lattice key to its row, rows numbered as first met."""
    from uqpilot.sampling import sparse
    from uqpilot.sampling.quadrature import rule_at_level, tensor_grid

    rules = [rules] * d if isinstance(rules, str) else rules
    merge = "gauss-hermite" not in rules
    index_to_row, points, weights, rows = {}, [], [], []
    for k in sparse.multi_indices(d, level):
        coeff = sparse.combination_coefficient(d, level, sum(k))
        if coeff == 0:
            continue
        pts, wts = tensor_grid([rule_at_level(rules[i], k[i]) for i in range(d)])
        component = np.empty(len(pts), dtype=np.int64)
        for i, p in enumerate(pts):
            key = tuple(int(round(x / sparse.MERGE_TOL)) for x in p)
            row = index_to_row.get(key) if merge else None
            if row is None:
                row = len(points)
                if merge:
                    index_to_row[key] = row
                points.append(p)
                weights.append(0.0)
            component[i] = row
            weights[row] += coeff * wts[i]
        rows.append(component)
    return np.array(points), np.array(weights), rows


@pytest.mark.parametrize("d, level, rules", [
    *((6, level, "clenshaw-curtis") for level in (1, 2, 3, 4)),
    (4, 3, "gauss-legendre"),
    (3, 3, "gauss-hermite"),
    (3, 3, ["clenshaw-curtis", "gauss-legendre", "clenshaw-curtis"]),
    (3, 2, ["gauss-legendre", "gauss-hermite", "clenshaw-curtis"]),
])
def test_the_vectorised_merge_equals_a_point_by_point_loop_bitwise(d, level, rules):
    grid = smolyak_grid(d, level, rules)
    points, weights, rows = loop_merged(d, level, rules)
    assert grid.points.tobytes() == points.tobytes()
    assert grid.weights.tobytes() == weights.tobytes()
    assert len(grid.components) == len(rows)
    for component, expected in zip(grid.components, rows):
        assert component.rows.tobytes() == expected.tobytes()
