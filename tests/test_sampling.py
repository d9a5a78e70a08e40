import numpy as np
import pytest

from uqpilot.errors import SamplerError
from uqpilot.sampling.distributions import constant, normal, uniform
from uqpilot.sampling.samplers import SamplerSpec, draw, halton_sequence


def unit_space(d: int):
    return [(f"x{i}", uniform(0, 1)) for i in range(d)]


class TestMonteCarlo:
    def test_reproducible_from_seed(self):
        space = [("x", uniform(0, 1))]
        spec = SamplerSpec("mc", n=3, seed=99)
        a, wa = draw(space, spec)
        b, wb = draw(space, spec)
        assert a == b
        assert wa is None and wb is None
        assert len(a) == 3

    def test_different_seeds_differ(self):
        space = unit_space(2)
        a, _ = draw(space, SamplerSpec("mc", n=5, seed=1))
        b, _ = draw(space, SamplerSpec("mc", n=5, seed=2))
        assert a != b

    def test_values_respect_support(self):
        space = [("a", uniform(2, 3)), ("b", normal(0, 1))]
        sets, _ = draw(space, SamplerSpec("mc", n=50, seed=0))
        assert all(2 <= s["a"] <= 3 for s in sets)

    def test_constants_pinned(self):
        space = [("a", uniform(0, 1)), ("c", constant(7.5))]
        sets, _ = draw(space, SamplerSpec("mc", n=4, seed=0))
        assert all(s["c"] == 7.5 for s in sets)

    def test_all_constant_rejected(self):
        with pytest.raises(SamplerError):
            draw([("c", constant(1.0))], SamplerSpec("mc", n=3, seed=0))


class TestHalton:
    def test_hand_computed_radical_inverses(self):
        pts = halton_sequence(4, 2, skip=0)
        expected = [
            (1 / 2, 1 / 3),
            (1 / 4, 2 / 3),
            (3 / 4, 1 / 9),
            (1 / 8, 4 / 9),
        ]
        for row, exp in zip(pts, expected):
            assert row == pytest.approx(exp, abs=1e-15)

    def test_skip_offsets_the_sequence(self):
        tail = halton_sequence(2, 2, skip=2)
        full = halton_sequence(4, 2, skip=0)
        assert tail.tolist() == full[2:].tolist()

    @pytest.mark.parametrize("spec", [SamplerSpec("mc", n=500, seed=3),
                                      SamplerSpec("halton", n=300, skip=7)],
                             ids=["mc", "halton"])
    def test_column_draws_equal_a_per_element_loop(self, spec):
        space = [("a", uniform(3, 7)), ("b", normal(2, 0.5)), ("c", constant(1.5)),
                 ("d", uniform(-1, 1))]
        active = [(name, dist) for name, dist in space if not dist.is_constant]
        if spec.variant == "mc":
            u = np.random.Generator(np.random.Philox(key=spec.seed)).random((spec.n, 3))
            u[u == 0.0] = np.nextafter(0.0, 1.0)
        else:
            u = halton_sequence(spec.n, 3, spec.skip)
        expected = []
        for row in u:
            params = {name: float(dist.quantile(float(ui))) for (name, dist), ui in zip(active, row)}
            expected.append([params.get(name, 1.5) for name, _ in space])
        sets, _ = draw(space, spec)
        assert [list(s.values()) for s in sets] == expected
        assert all(type(v) is float for s in sets for v in s.values())

    def test_draw_maps_through_quantiles(self):
        space = [("a", uniform(10, 20))]
        sets, weights = draw(space, SamplerSpec("halton", n=2))
        assert weights is None
        assert sets[0]["a"] == pytest.approx(15.0)   # u = 1/2
        assert sets[1]["a"] == pytest.approx(12.5)   # u = 1/4


class TestQuadraturePlans:
    def test_tensor_counts_two_dims(self):
        sets, weights = draw(unit_space(2), SamplerSpec("sc", level=2))
        assert len(sets) == 9
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_order_two_six_dims(self):
        sets, weights = draw(unit_space(6), SamplerSpec("sc", level=1))
        assert len(sets) == 2**6
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_plan(self):
        sets, weights = draw(unit_space(6), SamplerSpec("sc", level=2, growth="exp2", sparse=True))
        assert len(sets) == 85
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)

    def test_pce_plan(self):
        sets, weights = draw(unit_space(2), SamplerSpec("pce", order=2))
        assert len(sets) == 9

    def test_normal_dims_use_hermite_nodes(self):
        sets, weights = draw([("z", normal(5, 2))], SamplerSpec("sc", level=1))
        values = sorted(s["z"] for s in sets)
        # two-point probabilists' rule at +-1 mapped through mu + sigma*z
        assert values == pytest.approx([3.0, 7.0])

    def test_quadrature_over_constant_dim_rejected(self):
        with pytest.raises(SamplerError):
            draw([("c", constant(2.0)), ("x", constant(1.0))], SamplerSpec("sc", level=1))


class TestSpecValidation:
    def test_bad_specs(self):
        with pytest.raises(SamplerError):
            SamplerSpec("mc", n=0, seed=1)
        with pytest.raises(SamplerError):
            SamplerSpec("sc", level=-1)
        with pytest.raises(SamplerError):
            SamplerSpec("nope")

    def test_json_round_trip(self):
        for spec in (
            SamplerSpec("mc", n=10, seed=3),
            SamplerSpec("halton", n=4, skip=2),
            SamplerSpec("sc", level=2, growth="exp2", sparse=True),
            SamplerSpec("pce", order=3),
            SamplerSpec("pce", order=3, growth="exp2"),
        ):
            assert SamplerSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("doc", [
        {"variant": "mc", "n": 10},
        {"variant": "halton", "skip": 2},
        {"variant": "sc", "growth": "exp2"},
        {"variant": "pce"},
    ], ids=["mc-seed", "halton-n", "sc-level", "pce-order"])
    def test_a_missing_field_is_a_sampler_error(self, doc):
        with pytest.raises(SamplerError, match=f"{doc['variant']} sampler needs"):
            SamplerSpec.from_json(doc)

    def test_growth_defaults_to_exp2_for_a_sparse_grid_only(self):
        assert SamplerSpec.from_json({"variant": "sc", "level": 2, "sparse": True}).growth == "exp2"
        assert SamplerSpec.from_json({"variant": "sc", "level": 2}).growth == "linear"
        assert SamplerSpec.from_json({"variant": "pce", "order": 2, "growth": None}).growth == "linear"
