"""``stage_grid`` against the per-sampler grid construction it replaced.

Stored stages are matched to grid points by run order, so ``draw`` must
give exactly the parameter sets and weights of the earlier code for every
quadrature variant. The reference below keeps that code: the rule chain
with Gauss rules of level + 1 points and Clenshaw-Curtis rules by level,
and a per-point scalar map into physical space. It also keeps the earlier
tensor projection, with which tensor Gauss surrogates must agree bit for
bit given physical points; sparse surrogates must equal the sum of its
per-component projections.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from uqpilot.analysis.basis import evaluate_basis
from uqpilot.analysis.spectral import _alias_free_cap, project_sparse
from uqpilot.sampling.distributions import constant, normal, uniform
from uqpilot.sampling.quadrature import (
    clenshaw_curtis,
    gauss_hermite,
    gauss_legendre,
    rule_at_level,
    tensor_grid,
)
from uqpilot.sampling.samplers import SamplerSpec, draw, rule_name_for, stage_grid, to_physical
from uqpilot.sampling.sparse import smolyak_grid

SPACE = [("a", uniform(3, 7)), ("k", constant(2.5)), ("b", normal(2, 0.5)),
         ("c", uniform(-1, 1))]


def reference_rules(spec, dists):
    level = spec.level if spec.variant == "sc" else spec.order
    rules = []
    for dist in dists:
        name = rule_name_for(dist, spec.growth)
        if name == "gauss-legendre":
            rules.append(gauss_legendre(level + 1))
        elif name == "gauss-hermite":
            rules.append(gauss_hermite(level + 1))
        else:
            rules.append(clenshaw_curtis(level))
    return rules


def reference_draw(space, spec):
    active = [(n, d) for n, d in space if not d.is_constant]
    pinned = {n: d.args[0] for n, d in space if d.is_constant}
    if spec.sparse:
        rules = [rule_name_for(d, spec.growth) for _, d in active]
        grid = smolyak_grid(len(active), spec.level, rules)
        points, weights = grid.points, grid.weights
    else:
        points, weights = tensor_grid(reference_rules(spec, [d for _, d in active]))
    sets = []
    for point in points:
        params = dict(pinned)
        for (name, dist), z in zip(active, point):
            params[name] = dist.from_reference(float(z))
        sets.append({n: params[n] for n, _ in space})
    return sets, [float(w) for w in weights]


def reference_project_tensor(values, rules, dists, points, degree_caps=None,
                             total_degree=None):
    """Terms of the earlier tensor projection; `points` are physical."""
    if degree_caps is None:
        degree_caps = [r.order - 1 for r in rules]
    _, weights = tensor_grid(rules)
    basis = [evaluate_basis(dist, points[:, i], degree_caps[i]) for i, dist in enumerate(dists)]
    terms = {}
    wy = weights[:, None] * values
    for key in itertools.product(*[range(c + 1) for c in degree_caps]):
        if total_degree is not None and sum(key) > total_degree:
            continue
        phi = np.ones(len(points))
        for i, k in enumerate(key):
            phi = phi * basis[i][k]
        terms[key] = phi @ wy
    return terms


def model(x):
    return np.stack([x[:, 0] ** 2 + x[:, 0] * x[:, 1] ** 3 + np.sin(x[:, 2]),
                     np.exp(0.1 * x[:, 1]) * x[:, 0]], axis=1)


QUADRATURE_SPECS = [
    SamplerSpec(variant, growth=growth, sparse=sparse, **{arg: n})
    for growth in ("linear", "exp2")
    for variant, sparse, arg in (("sc", False, "level"), ("sc", True, "level"),
                                 ("pce", False, "order"))
    for n in range(4)
]


@pytest.mark.parametrize("spec", QUADRATURE_SPECS, ids=lambda s: (
    f"{s.variant}-{'sparse' if s.sparse else 'tensor'}-{s.growth}-{s.level or s.order}"))
def test_draw_matches_reference_exactly(spec):
    assert draw(SPACE, spec) == reference_draw(SPACE, spec)


@pytest.mark.parametrize("spec", [
    SamplerSpec("sc", level=2), SamplerSpec("sc", level=3),
    SamplerSpec("pce", order=2), SamplerSpec("pce", order=4),
], ids=["sc-2", "sc-3", "pce-2", "pce-4"])
def test_tensor_gauss_surrogate_is_bitwise_the_tensor_projection(spec):
    dists = [d for _, d in SPACE if not d.is_constant]
    grid = stage_grid(spec, dists)
    x = to_physical(grid.points, dists)
    s = project_sparse(model(x), dataclasses.replace(grid, points=x),
                       dists, ["a", "b", "c"])
    want = reference_project_tensor(
        model(x), reference_rules(spec, dists), dists, x,
        total_degree=spec.order if spec.variant == "pce" else None)
    assert list(s.terms) == list(want)
    assert all(s.terms[k].tobytes() == want[k].tobytes() for k in want)


@pytest.mark.parametrize("growth", ["linear", "exp2"])
@pytest.mark.parametrize("level", [2, 3])
def test_sparse_surrogate_is_bitwise_the_sum_of_component_projections(growth, level):
    dists = [d for _, d in SPACE if not d.is_constant]
    grid = stage_grid(SamplerSpec("sc", level=level, growth=growth, sparse=True), dists)
    x = to_physical(grid.points, dists)
    y = model(x)
    s = project_sparse(y, dataclasses.replace(grid, points=x), dists,
                       ["a", "b", "c"])
    want = {}
    for comp in grid.components:
        rules = [rule_at_level(r, k) for r, k in zip(grid.rules, comp.index)]
        caps = [_alias_free_cap(r.rule, r.order) for r in rules]
        terms = reference_project_tensor(y[comp.rows], rules, dists, x[comp.rows],
                                         degree_caps=caps, total_degree=level)
        for key, c in terms.items():
            contrib = comp.coefficient * c
            want[key] = want[key] + contrib if key in want else contrib
    assert list(s.terms) == list(want)
    assert all(s.terms[k].tobytes() == want[k].tobytes() for k in want)
