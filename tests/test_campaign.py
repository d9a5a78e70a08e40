import json

import pytest

from tests.conftest import uniform_param, write_config
from uqpilot.campaign.config import load_config
from uqpilot.campaign.ops import Campaign
from uqpilot.errors import ConfigError, DecodeError, SamplerError, TemplateError
from uqpilot.sampling.samplers import SamplerSpec

TABLE_PARAMS = [
    uniform_param("infection_rate", 0.0035, 0.14, default=0.07),
    uniform_param("mortality_period", 4.0, 16.0, default=8.0),
    uniform_param("recovery_period", 4.0, 16.0, default=8.0),
    uniform_param("mild_recovery_period", 4.5, 12.5, default=8.05),
    uniform_param("incubation_period", 2.0, 6.0, default=3.0),
    uniform_param("period_to_hospitalisation", 8.0, 16.0, default=12.0),
]
TABLE_TEMPLATE = "".join(f"{p['name']}=${p['name']}\n" for p in TABLE_PARAMS)


class TestCreate:
    def test_six_parameter_campaign(self, tmp_path):
        cfg = write_config(tmp_path, TABLE_PARAMS, TABLE_TEMPLATE, ["true"])
        campaign = Campaign.create(cfg, tmp_path / "camp")
        params = campaign.store.parameters()
        assert len(params) == 6
        assert params[0].name == "infection_rate"
        assert params[0].distribution.args == (0.0035, 0.14)
        assert params[0].default == 0.07
        assert (tmp_path / "camp" / "campaign.db").is_file()
        assert campaign.store.latest_stage_id() is None
        assert len(campaign.store.runs()) == 0

    def test_zero_parameters_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [], "static\n", ["true"])
        with pytest.raises(ConfigError):
            Campaign.create(cfg, tmp_path / "camp")

    def test_undeclared_placeholder_named(self, tmp_path):
        cfg = write_config(
            tmp_path, [uniform_param("rate", 0, 1)], "r=$rate t=$typo_rate\n", ["true"]
        )
        with pytest.raises(TemplateError, match="typo_rate"):
            Campaign.create(cfg, tmp_path / "camp")

    def test_missing_template(self, tmp_path):
        cfg = write_config(tmp_path, [uniform_param("a", 0, 1)], "a=$a\n", ["true"])
        (tmp_path / "input.template").unlink()
        with pytest.raises(ConfigError, match="template"):
            Campaign.create(cfg, tmp_path / "camp")

    def test_output_that_is_the_rendered_input_rejected(self, tmp_path):
        cfg = write_config(tmp_path, [uniform_param("a", 0, 1)], "y\n$a\n", ["true"],
                           decoder={"output_relpath": "./input.json", "format": "csv",
                                    "qoi_columns": ["y"]})
        with pytest.raises(ConfigError, match="also the rendered input"):
            Campaign.create(cfg, tmp_path / "camp")

    @pytest.mark.parametrize("command, callable, error", [
        ([], "pkg.mod:main", None),
        (["true"], "pkg.mod:Runner.main", None),
        ([], None, "non-empty command or a callable"),
        (["true"], "pkg.mod", "module:function"),
        (["true"], "pkg.mod:main:x", "module:function"),
        (["true"], "pkg/mod:main", "module:function"),
    ], ids=["callable-alone", "both", "neither", "no-function", "two-colons", "a-path"])
    def test_an_app_is_a_command_or_a_callable(self, tmp_path, command, callable, error):
        cfg = write_config(tmp_path, [uniform_param("a", 0, 1)], "a=$a\n", command,
                           callable=callable)
        if error is not None:
            with pytest.raises(ConfigError, match=error):
                load_config(cfg)
            return
        # the module is named, not imported: it need not exist here
        with Campaign.create(cfg, tmp_path / "camp") as campaign:
            assert (campaign.app.callable, campaign.app.command) == (callable, tuple(command))

    def test_bad_distribution_params(self, tmp_path):
        bad = {
            "name": "a", "kind": "real", "default": 0.5,
            "distribution": {"type": "uniform", "args": [1.0, 0.0]},
        }
        cfg = write_config(tmp_path, [bad], "a=$a\n", ["true"])
        with pytest.raises(ConfigError):
            Campaign.create(cfg, tmp_path / "camp")

    def test_default_outside_support(self, tmp_path):
        bad = {
            "name": "a", "kind": "real", "default": 5.0,
            "distribution": {"type": "uniform", "args": [0.0, 1.0]},
        }
        cfg = write_config(tmp_path, [bad], "a=$a\n", ["true"])
        with pytest.raises(ConfigError, match="support"):
            Campaign.create(cfg, tmp_path / "camp")

    def test_duplicate_names(self, tmp_path):
        cfg = write_config(
            tmp_path, [uniform_param("a", 0, 1), uniform_param("a", 0, 2)],
            "a=$a\n", ["true"],
        )
        with pytest.raises(ConfigError, match="duplicate"):
            Campaign.create(cfg, tmp_path / "camp")


class TestStagesAndEncode:
    def make(self, tmp_path) -> Campaign:
        cfg = write_config(
            tmp_path, [uniform_param("a", 0.0, 1.0)], "value=$a\n", ["true"]
        )
        return Campaign.create(cfg, tmp_path / "camp")

    def test_mc_stage_runs_new(self, tmp_path):
        campaign = self.make(tmp_path)
        sid = campaign.add_stage(SamplerSpec("mc", n=100, seed=42))
        rows = campaign.store.runs(stage_id=sid)
        assert len(rows) == 100
        assert all(r["status"] == "NEW" for r in rows)
        assert rows[0]["run_id"] == 1

    def test_run_ids_continue_across_stages(self, tmp_path):
        campaign = self.make(tmp_path)
        campaign.add_stage(SamplerSpec("mc", n=10, seed=1))
        sid = campaign.add_stage(SamplerSpec("mc", n=5, seed=2))
        assert [r["run_id"] for r in campaign.store.runs(stage_id=sid)] == list(
            range(11, 16)
        )

    def test_quadrature_stage_weights(self, tmp_path):
        cfg = write_config(
            tmp_path,
            [uniform_param("a", 0, 1), uniform_param("b", 0, 1)],
            "a=$a b=$b\n", ["true"],
        )
        campaign = Campaign.create(cfg, tmp_path / "camp")
        sid = campaign.add_stage(SamplerSpec("sc", level=2))
        rows = campaign.store.runs(stage_id=sid)
        assert len(rows) == 9
        weights = [r["weight"] for r in rows]
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_encode_renders_run_dir(self, tmp_path):
        campaign = self.make(tmp_path)
        campaign.add_stage(SamplerSpec("mc", n=1, seed=0))
        run_dir = campaign.encode(1)
        assert run_dir.name == "run_000001"
        row = campaign.store.run(1)
        assert row["status"] == "ENCODED"
        params = campaign.store.run_params(row)
        assert (run_dir / "input.json").read_text() == f"value={params['a']!r}\n"

    def test_encode_decode_round_trip_recovers_value(self, tmp_path):
        # echo application: the encoded input is copied out as the output
        cfg = write_config(
            tmp_path,
            [uniform_param("a", 0.0, 1.0)],
            "a\n$a\n",
            ["cp", "input.json", "out.csv"],
            decoder={"output_relpath": "out.csv", "format": "csv",
                     "qoi_columns": ["a"]},
        )
        campaign = Campaign.create(cfg, tmp_path / "camp")
        campaign.add_stage(SamplerSpec("mc", n=3, seed=5))
        from uqpilot.executors import RunPlan, execute_campaign

        execute_campaign(campaign, RunPlan())
        _, rows = campaign.store.load_frame("a")
        for rid, values in rows:
            stored = campaign.store.run_params(campaign.store.run(rid))["a"]
            assert values == [stored]

    def test_decode_missing_output_keeps_status(self, tmp_path):
        campaign = self.make(tmp_path)
        campaign.add_stage(SamplerSpec("mc", n=1, seed=0))
        campaign.encode(1)
        campaign.store.set_status(1, "SUBMITTED")
        campaign.store.set_status(1, "COMPLETED")
        with pytest.raises(DecodeError):
            campaign.decode(1)
        assert campaign.store.run(1)["status"] == "COMPLETED"

    def test_identical_configs_and_seeds_identical_tables(self, tmp_path):
        cfg = write_config(
            tmp_path, [uniform_param("a", 0.0, 1.0)], "value=$a\n", ["true"]
        )
        c1 = Campaign.create(load_config(cfg), tmp_path / "c1")
        c2 = Campaign.create(load_config(cfg), tmp_path / "c2")
        c1.add_stage(SamplerSpec("mc", n=50, seed=9))
        c2.add_stage(SamplerSpec("mc", n=50, seed=9))
        t1 = [c1.store.run_params(r) for r in c1.store.runs()]
        t2 = [c2.store.run_params(r) for r in c2.store.runs()]
        assert t1 == t2

    @pytest.mark.parametrize("spec", [SamplerSpec("sc", level=1),
                                      SamplerSpec("pce", order=2)], ids=["sc", "pce"])
    def test_quadrature_over_an_integer_parameter_is_refused(self, tmp_path, spec):
        param = {
            "name": "n", "kind": "integer", "default": 5,
            "distribution": {"type": "uniform", "args": [0, 10]},
        }
        cfg = write_config(tmp_path, [uniform_param("a", 0, 1), param], "$a $n\n", ["true"])
        campaign = Campaign.create(cfg, tmp_path / "camp")
        with pytest.raises(SamplerError, match="integer parameters n; use mc or halton"):
            campaign.add_stage(spec)
        assert campaign.store.runs() == [] and campaign.store.stages() == []

    def test_quadrature_over_a_constant_integer_parameter(self, tmp_path):
        param = {
            "name": "n", "kind": "integer", "default": 5,
            "distribution": {"type": "constant", "args": [5]},
        }
        cfg = write_config(tmp_path, [uniform_param("a", 0, 1), param], "$a $n\n", ["true"])
        campaign = Campaign.create(cfg, tmp_path / "camp")
        campaign.add_stage(SamplerSpec("sc", level=1))
        assert {campaign.store.run_params(r)["n"] for r in campaign.store.runs()} == {5}

    def test_integer_kind_coerces(self, tmp_path):
        param = {
            "name": "n", "kind": "integer", "default": 5,
            "distribution": {"type": "uniform", "args": [0, 10]},
        }
        cfg = write_config(tmp_path, [param], "n=$n\n", ["true"])
        campaign = Campaign.create(cfg, tmp_path / "camp")
        campaign.add_stage(SamplerSpec("mc", n=20, seed=3))
        values = [campaign.store.run_params(r)["n"] for r in campaign.store.runs()]
        assert all(isinstance(v, int) for v in values)
        run_dir = campaign.encode(1)
        text = (run_dir / "input.json").read_text()
        assert text == f"n={values[0]}\n"
