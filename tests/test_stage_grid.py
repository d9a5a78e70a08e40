"""``stage_grid`` against the per-sampler grid construction it replaced.

Stored stages are matched to grid points by run order, so ``draw`` must
give exactly the parameter sets and weights of the earlier code for every
quadrature variant. The reference below keeps that code: the rule chain
with Gauss rules of level + 1 points and Clenshaw-Curtis rules by level,
and a per-point scalar map into physical space. It also keeps the earlier
tensor projection, with which tensor Gauss surrogates must agree bit for
bit given physical points; sparse surrogates must equal the sum of its
per-component projections. Last, the Ishigami and Sobol' G functions
check the Sobol indices of stage grids against their closed forms.
"""

import itertools
import math

import numpy as np
import pytest

from uqpilot.analysis.basis import evaluate_basis
from uqpilot.analysis.spectral import _alias_free_cap, project_sparse, sobol
from uqpilot.sampling.distributions import constant, normal, uniform
from uqpilot.sampling.quadrature import (
    clenshaw_curtis,
    gauss_hermite,
    gauss_legendre,
    rule_at_level,
    tensor_grid,
)
from uqpilot.sampling.samplers import SamplerSpec, draw, rule_name_for, stage_grid
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
    x = grid.points
    s = project_sparse(model(x), grid, dists, ["a", "b", "c"])
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
    x = grid.points
    y = model(x)
    s = project_sparse(y, grid, dists, ["a", "b", "c"])
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


# Ishigami, a = 7 and b = 0.1, on uniform(-pi, pi)^3: V_1 = (1 + b pi^4 / 5)^2 / 2,
# V_2 = a^2 / 8, V_13 = 8 b^2 pi^8 / 225, and every other term is zero
ISHIGAMI_A, ISHIGAMI_B = 7.0, 0.1
V1 = 0.5 * (1 + ISHIGAMI_B * math.pi ** 4 / 5) ** 2
V2 = ISHIGAMI_A ** 2 / 8
V13 = 8 * ISHIGAMI_B ** 2 * math.pi ** 8 / 225
V = V1 + V2 + V13


def ishigami(x):
    return (np.sin(x[:, 0]) + ISHIGAMI_A * np.sin(x[:, 1]) ** 2
            + ISHIGAMI_B * x[:, 2] ** 4 * np.sin(x[:, 0]))


# Sobol' G on uniform(0, 1)^6: V_i = 1 / (3 (1 + a_i)^2), V = prod(1 + V_i) - 1
G_A = (0.0, 1.0, 4.5, 9.0, 99.0, 99.0)
G_V = [1 / (3 * (1 + a) ** 2) for a in G_A]
G_VAR = math.prod(1 + v for v in G_V) - 1


def sobol_g(x):
    return np.prod([(np.abs(4 * x[:, i] - 2) + a) / (1 + a) for i, a in enumerate(G_A)],
                   axis=0)


# each bound sits above the error measured against the closed form: 0.0017
# (Gauss tensor), 0.0018 (pce), 0.0047 (sparse CC) and 0.012 (Sobol' G)
@pytest.mark.parametrize("fn, dists, first, total, spec, bound", [
    (ishigami, [uniform(-math.pi, math.pi)] * 3, (V1 / V, V2 / V, 0.0),
     ((V1 + V13) / V, V2 / V, V13 / V), spec, bound)
    for spec, bound in ((SamplerSpec("sc", level=8), 0.0025),
                        (SamplerSpec("pce", order=8), 0.0025),
                        (SamplerSpec("sc", level=7, growth="exp2", sparse=True), 0.006))
] + [
    (sobol_g, [uniform(0, 1)] * 6, [v / G_VAR for v in G_V],
     [v * math.prod(1 + w for w in G_V) / (1 + v) / G_VAR for v in G_V],
     SamplerSpec("sc", level=5, growth="exp2", sparse=True), 0.015),
], ids=["ishigami-gauss-8", "ishigami-pce-8", "ishigami-sparse-cc-7", "sobol-g-sparse-cc-5"])
def test_sobol_indices_match_closed_forms(fn, dists, first, total, spec, bound):
    grid = stage_grid(spec, dists)
    names = [f"x{i}" for i in range(len(dists))]
    report = sobol(project_sparse(fn(grid.points), grid, dists, names))
    for name, s1, st in zip(names, first, total, strict=True):
        assert abs(report.first[name][0] - s1) <= bound
        assert abs(report.total[name][0] - st) <= bound
