import pytest

from uqpilot.analysis.mc_sobol import sobol_mc
from uqpilot.analysis.models import ADDITIVE, BILINEAR, SINGLE_FACTOR
from uqpilot.errors import DomainError

N = 100_000


class TestPickFreeze:
    def test_symmetric_additive(self):
        r = sobol_mc(ADDITIVE, list(ADDITIVE.dists), n=N, seed=11)
        assert r.first["x1"] == pytest.approx(0.5, abs=0.02)
        assert r.first["x2"] == pytest.approx(0.5, abs=0.02)

    def test_inert_parameter_near_zero(self):
        r = sobol_mc(SINGLE_FACTOR, list(SINGLE_FACTOR.dists), n=N, seed=12)
        assert r.first["x2"] == pytest.approx(0.0, abs=0.02)
        assert r.total["x2"] == pytest.approx(0.0, abs=0.02)

    def test_interaction_model_against_analytic(self):
        r = sobol_mc(BILINEAR, list(BILINEAR.dists), n=N, seed=13)
        assert r.first["x1"] == pytest.approx(3 / 7, abs=0.02)
        assert r.total["x1"] == pytest.approx(4 / 7, abs=0.02)

    def test_within_three_standard_errors(self):
        for model, seed in ((ADDITIVE, 21), (SINGLE_FACTOR, 22), (BILINEAR, 23)):
            r = sobol_mc(model, list(model.dists), n=N, seed=seed)
            for i, name in enumerate(r.param_names):
                halfwidth = 3 * r.first_se[name] + 1e-4
                assert abs(r.first[name] - model.first[i]) <= halfwidth
                halfwidth = 3 * r.total_se[name] + 1e-4
                assert abs(r.total[name] - model.total[i]) <= halfwidth

    def test_cross_estimator_agreement(self):
        from uqpilot.analysis.spectral import project_sparse, sobol
        from uqpilot.sampling.samplers import SamplerSpec, stage_grid

        dists = list(BILINEAR.dists)
        grid = stage_grid(SamplerSpec("sc", level=1), dists)   # 2 Gauss points a dimension
        spectral = sobol(project_sparse(BILINEAR(grid.points), grid, dists, ["x1", "x2"]))
        mc = sobol_mc(BILINEAR, list(BILINEAR.dists), n=N, seed=31)
        for name in ("x1", "x2"):
            assert mc.first[name] == pytest.approx(
                float(spectral.first[name][0]), abs=0.02
            )

    def test_reproducible(self):
        a = sobol_mc(ADDITIVE, list(ADDITIVE.dists), n=1000, seed=5)
        b = sobol_mc(ADDITIVE, list(ADDITIVE.dists), n=1000, seed=5)
        assert a.first == b.first
        assert a.total == b.total

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            sobol_mc(ADDITIVE, list(ADDITIVE.dists), n=1, seed=0)

    def test_evaluation_budget(self):
        calls = []

        def counting(x):
            calls.append(len(x))
            return ADDITIVE(x)

        sobol_mc(counting, list(ADDITIVE.dists), n=500, seed=1)
        # (d + 2) * n evaluations: one 2n batch plus d swapped batches
        assert sum(calls) == (2 + 2) * 500
