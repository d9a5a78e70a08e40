import math

import numpy as np
import pytest

from tests.conftest import write_config
from uqpilot.analysis.models import ADDITIVE, ALL_MODELS, BILINEAR, SINGLE_FACTOR
from uqpilot.analysis.pipeline import _mean_interval, analyze_mc_stage, analyze_quadrature_stage
from uqpilot.analysis.spectral import moments, project_sparse, sobol
from uqpilot.campaign.ops import Campaign
from uqpilot.errors import MissingRunError
from uqpilot.sampling.distributions import normal, uniform
from uqpilot.sampling.samplers import SamplerSpec, stage_grid
from uqpilot.sampling.sparse import smolyak_grid

U2 = [uniform(-1, 1), uniform(-1, 1)]


def gauss_grid(n, dists):
    """Tensor grid of n Gauss points per dimension (sc level n - 1)."""
    return stage_grid(SamplerSpec("sc", level=n - 1), list(dists))


def tensor_surrogate(model_fn, n, dists, names=("x1", "x2")):
    grid = gauss_grid(n, dists)
    return project_sparse(model_fn(grid.points), grid, list(dists), list(names))


class TestProjection:
    def test_constant_function_orthonormality(self):
        s = tensor_surrogate(lambda p: np.full(len(p), 5.0), 3, U2)
        assert s.coefficient((0, 0))[0] == pytest.approx(5.0, abs=1e-12)
        for key, c in s.terms.items():
            if key != (0, 0):
                assert abs(float(c[0])) < 1e-10

    def test_linear_model_coefficient(self):
        # hand integral: <x, sqrt(3) x> over uniform(-1,1) = sqrt(3)/3
        grid = gauss_grid(2, [uniform(-1, 1)])
        s = project_sparse(grid.points[:, 0], grid, [uniform(-1, 1)], ["x"])
        assert s.coefficient((1,))[0] == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_pure_interaction_hits_single_term(self):
        s = tensor_surrogate(lambda p: p[:, 0] * p[:, 1], 3, U2)
        for key, c in s.terms.items():
            if key == (1, 1):
                assert abs(float(c[0])) > 0.1
            else:
                assert abs(float(c[0])) < 1e-12

    def test_physical_domain_mapping(self):
        # y = x over uniform(3, 7): mean 5, variance (7-3)^2/12
        dist = uniform(3, 7)
        grid = stage_grid(SamplerSpec("sc", level=2), [dist])
        s = project_sparse(grid.points[:, 0], grid, [dist], ["x"])
        mean, var = moments(s)
        assert mean[0] == pytest.approx(5.0, abs=1e-10)
        assert var[0] == pytest.approx(16 / 12, abs=1e-10)


class TestMoments:
    def test_constant(self):
        s = tensor_surrogate(lambda p: np.full(len(p), 5.0), 2, U2)
        mean, var = moments(s)
        assert mean[0] == pytest.approx(5.0)
        assert var[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_linear_variance(self):
        grid = gauss_grid(2, [uniform(-1, 1)])
        s = project_sparse(grid.points[:, 0], grid, [uniform(-1, 1)], ["x"])
        mean, var = moments(s)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert var[0] == pytest.approx(1 / 3, abs=1e-10)

    def test_standard_normal_linear(self):
        grid = gauss_grid(3, [normal(0, 1)])
        s = project_sparse(grid.points[:, 0], grid, [normal(0, 1)], ["z"])
        mean, var = moments(s)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert var[0] == pytest.approx(1.0, abs=1e-10)


class TestSobol:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_analytic_models_tensor(self, model):
        s = tensor_surrogate(model, model.degree + 1, model.dists)
        report = sobol(s)
        for i, name in enumerate(report.param_names):
            assert report.first[name][0] == pytest.approx(model.first[i], abs=1e-8)
            assert report.total[name][0] == pytest.approx(model.total[i], abs=1e-8)

    @pytest.mark.parametrize("rule", ["gauss-legendre", "clenshaw-curtis"])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_analytic_models_sparse(self, model, rule):
        level = 3
        grid = smolyak_grid(model.dimension, level, rule)
        s = project_sparse(model(grid.points), grid, list(model.dists), ["x1", "x2"])
        report = sobol(s)
        for i, name in enumerate(report.param_names):
            assert report.first[name][0] == pytest.approx(model.first[i], abs=1e-8)
            assert report.total[name][0] == pytest.approx(model.total[i], abs=1e-8)

    def test_symmetric_additive(self):
        report = sobol(tensor_surrogate(ADDITIVE, 2, U2))
        assert report.first["x1"][0] == pytest.approx(0.5, abs=1e-10)
        assert report.total["x1"][0] == pytest.approx(report.first["x1"][0], abs=1e-10)

    def test_inert_parameter(self):
        report = sobol(tensor_surrogate(SINGLE_FACTOR, 2, U2))
        assert report.first["x1"][0] == pytest.approx(1.0, abs=1e-10)
        assert report.first["x2"][0] == pytest.approx(0.0, abs=1e-10)

    def test_bilinear_hand_decomposition(self):
        report = sobol(tensor_surrogate(BILINEAR, 3, U2))
        assert report.first["x1"][0] == pytest.approx(3 / 7, abs=1e-10)
        assert report.total["x1"][0] == pytest.approx(4 / 7, abs=1e-10)

    def test_additive_models_sum_to_one(self):
        report = sobol(tensor_surrogate(ADDITIVE, 4, U2))
        total = sum(report.first[name][0] for name in report.param_names)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_variance_reported_undefined(self):
        report = sobol(tensor_surrogate(lambda p: np.zeros(len(p)), 2, U2))
        assert report.degenerate[0]
        assert math.isnan(report.first["x1"][0])
        assert math.isnan(report.total["x2"][0])

    def test_bounds_hold(self):
        fn = lambda p: np.sin(p[:, 0]) + p[:, 1] ** 3 + 0.3 * p[:, 0] * p[:, 1]
        report = sobol(tensor_surrogate(fn, 4, U2))
        eps = 1e-8
        total_first = 0.0
        for name in report.param_names:
            s1 = report.first[name][0]
            st = report.total[name][0]
            assert -eps <= s1 <= st + eps
            assert st <= 1 + eps
            total_first += s1
        assert total_first <= 1 + eps


class TestDegreeSaturation:
    def test_coefficients_stable_beyond_model_degree(self):
        def get_terms(n):
            return tensor_surrogate(BILINEAR, n, U2).terms

        small = get_terms(2)
        large = get_terms(5)
        for key, c in small.items():
            assert abs(float(large[key][0]) - float(c[0])) < 1e-10
        for key, c in large.items():
            if key not in small:
                assert abs(float(c[0])) < 1e-10


class TestVectorQoI:
    def test_pointwise_equals_scalar_analysis(self):
        grid = gauss_grid(3, U2)
        pts = grid.points
        series = np.stack(
            [ADDITIVE(pts), BILINEAR(pts), 3.0 * SINGLE_FACTOR(pts)], axis=1
        )
        s_vec = project_sparse(series, grid, U2, ["x1", "x2"])
        report_vec = sobol(s_vec)
        for t, model_fn in enumerate([ADDITIVE, BILINEAR, lambda p: 3.0 * SINGLE_FACTOR(p)]):
            s_scalar = project_sparse(model_fn(pts), grid, U2, ["x1", "x2"])
            report_scalar = sobol(s_scalar)
            for name in ("x1", "x2"):
                assert report_vec.first[name][t] == pytest.approx(
                    report_scalar.first[name][0], abs=1e-12
                )
            assert report_vec.variance[t] == pytest.approx(
                report_scalar.variance[0], abs=1e-12
            )


class TestTensorClenshawCurtis:
    def test_alias_free_caps_make_tensor_cc_exact(self):
        # x1^2 + x1*x2^3 over U(-1,1)^2: V = 4/45 + (1/3)(1/7) = 43/315.
        # 9 CC points a dimension are exact through degree 9, so caps of
        # degree 4 project exactly; caps of degree 8 would alias.
        grid = stage_grid(SamplerSpec("sc", level=3, growth="exp2"), U2)
        assert [c.orders for c in grid.components] == [(9, 9)]
        x = grid.points
        _, var = moments(project_sparse(x[:, 0] ** 2 + x[:, 0] * x[:, 1] ** 3, grid, U2, ["x1", "x2"]))
        assert abs(var[0] - 43 / 315) <= 1e-12


class TestStageAnalysis:
    """analyze_quadrature_stage on a store whose inputs are off the reference
    domain: a ~ uniform(3, 7), b ~ normal(2, 0.5), k pinned at 2.5.

    With u = (a - 5)/2 ~ U(-1, 1) and z = (b - 2)/0.5 ~ N(0, 1):
    y0 = a + 2b + ab + k = 21.5 + 6u + 3.5z + uz, so V = 12 + 12.25 + 1/3;
    y1 = a^2 = 25 + 20u + 4u^2, so mean 25 + 4/3 and V = 400/3 + 64/45.
    """

    V0 = 12 + 12.25 + 1 / 3
    MEAN = (21.5, 25 + 4 / 3)
    VARIANCE = (V0, 400 / 3 + 64 / 45)
    FIRST = {"a": (12 / V0, 1.0), "b": (12.25 / V0, 0.0)}
    TOTAL = {"a": ((12 + 1 / 3) / V0, 1.0), "b": ((12.25 + 1 / 3) / V0, 0.0)}

    @staticmethod
    def collated_stage(tmp_path, spec):
        params = [
            {"name": "a", "kind": "real", "default": 5.0,
             "distribution": {"type": "uniform", "args": [3, 7]}},
            {"name": "k", "kind": "real", "default": 2.5,
             "distribution": {"type": "constant", "args": [2.5]}},
            {"name": "b", "kind": "real", "default": 2.0,
             "distribution": {"type": "normal", "args": [2, 0.5]}},
        ]
        config = write_config(tmp_path, params, "a=$a k=$k b=$b\n", ["true"])
        campaign = Campaign.create(config, tmp_path / "camp")
        stage = campaign.add_stage(spec)
        store = campaign.store
        for row in store.runs(stage_id=stage):
            for status in ("ENCODED", "SUBMITTED", "COMPLETED"):
                store.set_status(row["run_id"], status)
            p = store.run_params(row)
            y = [p["a"] + 2 * p["b"] + p["a"] * p["b"] + p["k"], p["a"] ** 2]
            store.insert_qoi(row["run_id"], [0.0, 1.0], {"y": y})
        return store, stage

    @pytest.mark.parametrize("spec", [
        SamplerSpec("sc", level=2, growth="exp2", sparse=True),
        SamplerSpec("sc", level=2, growth="linear", sparse=True),
        SamplerSpec("sc", level=2),
        SamplerSpec("sc", level=2, growth="exp2"),
        SamplerSpec("pce", order=2),
        SamplerSpec("pce", order=2, growth="exp2"),
    ], ids=["sparse-cc", "sparse-gauss", "tensor-gauss", "tensor-cc", "pce", "pce-cc"])
    def test_analytic_moments_and_indices(self, tmp_path, spec):
        store, stage = self.collated_stage(tmp_path, spec)
        report = analyze_quadrature_stage(store, stage, "y")
        store.close()
        assert report.param_names == ["a", "b"]
        assert report.mean == pytest.approx(self.MEAN, rel=1e-12)
        assert report.variance == pytest.approx(self.VARIANCE, rel=1e-10)
        for name in ("a", "b"):
            assert report.first[name] == pytest.approx(self.FIRST[name], abs=1e-10)
            assert report.total[name] == pytest.approx(self.TOTAL[name], abs=1e-10)


class TestMeanInterval:
    """The percentile bootstrap interval of the mean that `analyze_mc_stage`
    reports for each time point."""

    def test_zero_spread(self):
        assert _mean_interval(np.full(25, 7.0), 0) == {"lower": 7.0, "upper": 7.0, "point": 7.0}

    def test_interval_width_matches_clt(self):
        # CLT oracle: for n=1e4 draws of N(0,1) the 95% CI for the mean
        # has width about 2 * 1.96 / sqrt(n)
        rng = np.random.Generator(np.random.Philox(key=123))
        ci = _mean_interval(rng.standard_normal(10_000), 1)
        expected = 2 * 1.96 / 100
        assert abs((ci["upper"] - ci["lower"]) - expected) <= 0.2 * expected

    def test_point_estimate_inside(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        samples = rng.standard_normal(500) + 2.0
        ci = _mean_interval(samples, 2)
        assert ci["lower"] <= ci["point"] == samples.mean() <= ci["upper"]

    def test_deterministic_from_key(self):
        samples = np.arange(50, dtype=float)
        assert _mean_interval(samples, 9) == _mean_interval(samples, 9)
        assert _mean_interval(samples, 9) != _mean_interval(samples, 10)

    def test_empty_input(self, tmp_path):
        params = [{"name": "a", "kind": "real", "default": 0.5,
                   "distribution": {"type": "uniform", "args": [0, 1]}}]
        config = write_config(tmp_path, params, "a=$a\n", ["true"])
        campaign = Campaign.create(config, tmp_path / "camp")
        stage = campaign.add_stage(SamplerSpec("mc", n=3, seed=0))
        with pytest.raises(MissingRunError, match="no collated values for qoi 'y' in stage 1"):
            analyze_mc_stage(campaign.store, stage, "y", allow_missing=True)
        campaign.store.close()
