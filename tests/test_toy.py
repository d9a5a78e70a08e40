import json
import subprocess
import sys

import pytest

from uqpilot.toy import DEFAULTS, PARAM_RANGES, toy_model


class TestToyModel:
    def test_deterministic(self):
        a = toy_model(DEFAULTS, seed=3, horizon=60)
        b = toy_model(DEFAULTS, seed=3, horizon=60)
        assert a == b

    def test_seedless_is_noise_free(self):
        assert toy_model(DEFAULTS, horizon=40) == toy_model(DEFAULTS, horizon=40)

    def test_monotone_in_time(self):
        series = toy_model(DEFAULTS, horizon=120)
        assert all(b >= a for a, b in zip(series, series[1:]))
        series = toy_model(DEFAULTS, seed=11, horizon=120)
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_infection_rate_bounds_dominate_pointwise(self):
        lo, hi = PARAM_RANGES["infection_rate"]
        low = toy_model({**DEFAULTS, "infection_rate": lo}, horizon=120)
        high = toy_model({**DEFAULTS, "infection_rate": hi}, horizon=120)
        assert all(h >= l for l, h in zip(low, high))
        assert high[-1] > low[-1]

    def test_recovery_period_inert_for_deaths(self):
        base = toy_model({**DEFAULTS, "recovery_period": 4.0}, horizon=100)
        other = toy_model({**DEFAULTS, "recovery_period": 16.0}, horizon=100)
        assert base == other

    def test_mild_recovery_period_matters(self):
        short = toy_model({**DEFAULTS, "mild_recovery_period": 4.5}, horizon=100)
        long = toy_model({**DEFAULTS, "mild_recovery_period": 12.5}, horizon=100)
        assert long[-1] > short[-1]

    def test_zero_horizon(self):
        assert toy_model(DEFAULTS, horizon=0) == []

    def test_out_of_range_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="infection_rate"):
            clamped = toy_model({**DEFAULTS, "infection_rate": 99.0}, horizon=10)
        at_bound = toy_model(
            {**DEFAULTS, "infection_rate": PARAM_RANGES["infection_rate"][1]},
            horizon=10,
        )
        assert clamped == at_bound


class TestToyCli:
    def run_cli(self, tmp_path, env, doc, out="deaths.csv"):
        (tmp_path / "input.json").write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, "-m", "uqpilot.toy", "input.json", "--out", out],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    def test_writes_csv(self, tmp_path, child_env):
        proc = self.run_cli(tmp_path, child_env, {**DEFAULTS, "horizon": 5})
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "deaths.csv").read_text().strip().splitlines()
        assert lines[0] == "t,dead"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "1"
        assert len(lines[1].split(",")) == 2

    def test_no_tmp_leftover(self, tmp_path, child_env):
        proc = self.run_cli(tmp_path, child_env, {**DEFAULTS, "horizon": 5})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "deaths.csv").exists()
        assert not (tmp_path / "deaths.csv.tmp").exists()

    def test_missing_input(self, tmp_path, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "uqpilot.toy", "absent.json"],
            cwd=tmp_path, env=child_env, capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "uq-toy: cannot read input" in proc.stderr

    def test_output_parses_back(self, tmp_path, child_env):
        proc = self.run_cli(tmp_path, child_env, {**DEFAULTS, "horizon": 8, "seed": 4})
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "deaths.csv").read_text().strip().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert values == toy_model(DEFAULTS, seed=4, horizon=8)
