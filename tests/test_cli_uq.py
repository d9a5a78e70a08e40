"""The `uq` subcommands driven through ``uqpilot.cli.uq.main``."""

import csv
import json
import math
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import UQ_ERRORS, uniform_param, write_config
from tests.test_pilotjob import SH_SLEEP, running, sleep_of, wait_for
from uqpilot import errors, executors
from uqpilot.campaign.ops import Campaign
from uqpilot.campaign import store as store_module
from uqpilot.campaign.store import CampaignStore
from uqpilot.cli import uq
from uqpilot.vvp.patterns import mare, metric_distance

# run_000003 writes no `y` column, so its run ends COMPLETED and fails to decode
ECHO_BUT_RUN_3_UNDECODABLE = """
import pathlib, shutil
if pathlib.Path.cwd().name == "run_000003":
    pathlib.Path("out.csv").write_text("z\\n1\\n")
else:
    shutil.copy("input.json", "out.csv")
"""

FAIL_RUN_2 = """
import pathlib, shutil, sys
if pathlib.Path.cwd().name == "run_000002":
    sys.exit(1)
shutil.copy("input.json", "out.csv")
"""

# each run notes its launch, then takes a second
SLOW_ECHO = """
import pathlib, shutil, time
with open(pathlib.Path(__file__).with_name("launches"), "a") as fh:
    fh.write(pathlib.Path.cwd().name + "\\n")
time.sleep(1)
shutil.copy("input.json", "out.csv")
"""


def make_campaign(tmp_path, n_runs=4, script=None, parameters=None) -> str:
    """`uq init` and an MC stage; the app echoes `a` into `out.csv` as `y`."""
    command = ["cp", "input.json", "out.csv"]
    if script is not None:
        (tmp_path / "app.py").write_text(script)
        command = [sys.executable, str(tmp_path / "app.py")]
    cfg = write_config(
        tmp_path,
        parameters or [uniform_param("a", 0.0, 1.0)],
        "y\n$a\n",
        command,
        decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]},
    )
    wd = str(tmp_path / "camp")
    assert uq.main(["init", "--config", str(cfg), "--workdir", wd]) == uq.EXIT_OK
    if n_runs:
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc",
                        "--n", str(n_runs), "--seed", "3"]) == uq.EXIT_OK
    return wd


def parent_of(pid: int) -> int:
    return int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])


def statuses(wd) -> dict[int, str]:
    with Campaign.open(wd) as campaign:
        return {row["run_id"]: row["status"] for row in campaign.store.runs()}


def count_stage_reads(monkeypatch) -> dict[str, list]:
    """The `stage_id` of each `CampaignStore.runs` and `load_frame` call from now on."""
    calls = {"runs": [], "load_frame": []}
    for name, record in calls.items():
        def counted(self, *args, _read=getattr(CampaignStore, name), _record=record, **kwargs):
            _record.append(kwargs.get("stage_id"))
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(CampaignStore, name, counted)
    return calls


class TestInit:
    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_an_unreadable_config_is_a_usage_error(self, tmp_path, capsys, name):
        config = tmp_path / name
        assert uq.main(["init", "--config", str(config),
                        "--workdir", str(tmp_path / "camp")]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"uq: cannot read config file {config}: ")
        assert not (tmp_path / "camp").exists()

    @pytest.mark.parametrize("used, argv, code, message", [
        ("a file in it", [], uq.EXIT_REFUSED, "workdir {wd} is not empty (use --force)"),
        ("a store", ["--force"], uq.EXIT_REFUSED, "workdir {wd} already holds a campaign store"),
        ("a regular file", [], uq.EXIT_USAGE, "cannot use workdir {wd}: Not a directory"),
        ("a regular file above it", [], uq.EXIT_USAGE,
         "cannot use workdir {wd}/sub: Not a directory"),
    ], ids=["not-empty", "force-over-a-store", "regular-file", "under-a-regular-file"])
    def test_a_used_or_unusable_workdir_is_left_alone(self, tmp_path, capsys, used, argv,
                                                       code, message):
        wd = tmp_path / "camp"
        target = wd / "sub" if used == "a regular file above it" else wd
        if used == "a store":
            make_campaign(tmp_path, n_runs=0)
        elif used == "a file in it":
            wd.mkdir()
            (wd / "notes").write_text("mine\n")
        else:
            wd.write_text("mine\n")
        before = {p: p.read_bytes() for p in [wd, *wd.rglob("*")] if p.is_file()}
        config = write_config(tmp_path, [uniform_param("a", 0.0, 1.0)], "y\n$a\n", ["true"])
        capsys.readouterr()
        assert uq.main(["init", "--config", str(config), "--workdir", str(target), *argv]) == code
        assert capsys.readouterr().err == f"uq: {message.format(wd=wd)}\n"
        assert {p: p.read_bytes() for p in [wd, *wd.rglob("*")] if p.is_file()} == before

    def test_init_of_the_demo_imports_no_scipy(self, tmp_path, demo_config_path, child_env):
        # only the normal quantile needs scipy, and the demo has no normal input
        script = ("import sys; from uqpilot.cli import uq; code = uq.main(sys.argv[1:]); "
                  "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')); "
                  "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script, "init", "--config",
                               str(demo_config_path), "--workdir", str(tmp_path / "camp")],
                              env=child_env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == uq.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestRunCores:
    @pytest.mark.parametrize("argv", [
        ["--executor", "pilotjob", "--allocation-cores", "1", "--cores-per-run", "2"],
        ["--executor", "pilotjob", "--allocation-cores", "0"],
        ["--allocation-cores", "2"],
        ["--cores-per-run", "0"],
        ["--retries", "-1"],
        ["--executor", "pilotjob", "--allocation-cores", "5"],
    ], ids=["allocation-below-cores-per-run", "zero-allocation", "allocation-with-serial",
            "zero-cores-per-run", "negative-retries", "allocation-above-the-cap"])
    def test_bad_core_count_is_a_usage_error_before_encoding(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "1")   # caps a wall-clock allocation at 4
        wd = make_campaign(tmp_path)
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd, *argv]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("uq: ")
        assert set(statuses(wd).values()) == {"NEW"}

    def test_a_malformed_virtual_core_count_is_a_usage_error(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "abc")
        wd = make_campaign(tmp_path)
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd, "--executor", "pilotjob"]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "uq: PJ_VIRTUAL_CORES must be a whole number of cores, got 'abc'\n"
        assert set(statuses(wd).values()) == {"NEW"}

    @pytest.mark.parametrize("argv, cores, per_run", [
        ([], 1, 1),
        (["--cores-per-run", "2"], 2, 2),
        (["--executor", "pilotjob", "--allocation-cores", "3"], 3, 1),
        (["--executor", "pilotjob"], 5, 1),
        (["--executor", "pilotjob", "--cores-per-run", "5"], 5, 5),
    ], ids=["serial", "serial-wide-runs", "pilotjob", "pilotjob-detected",
            "pilotjob-detected-wide-runs"])
    def test_one_core_count_reaches_the_engine(self, tmp_path, monkeypatch, argv, cores,
                                               per_run):
        wd = make_campaign(tmp_path, n_runs=0)
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "5")
        plans = []
        monkeypatch.setattr(executors, "execute_campaign",
                            lambda campaign, plan: plans.append(plan) or executors.RunSummary())
        assert uq.main(["run", "--workdir", wd, *argv]) == uq.EXIT_OK
        assert [(p.cores, p.cores_per_run) for p in plans] == [(cores, per_run)]


class TestStageArgument:
    def test_run_of_an_unknown_stage_is_a_usage_error(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "halton", "--n", "3"]) == 0
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd, "--stage", "9"]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "uq: no stage 9\n")
        assert set(statuses(wd).values()) == {"NEW"}

    @pytest.mark.parametrize("stage", ["9", "0"])
    def test_analyze_of_an_unknown_stage_is_a_usage_error(self, tmp_path, capsys, stage):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y",
                        "--stage", stage]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"uq: no stage {stage}\n")

    def test_run_of_one_stage_leaves_another_stages_failure_alone(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=3, script=FAIL_RUN_2)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        assert uq.main(["sample", "--workdir", wd, "--sampler", "halton", "--n", "2"]) == 0
        assert uq.main(["run", "--workdir", wd, "--stage", "2"]) == uq.EXIT_OK
        capsys.readouterr()
        assert uq.main(["status", "--workdir", wd]) == uq.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:3] == [
            "  stage 1: mc n=3 [FAILED=1, COLLATED=2]",
            "  stage 2: halton n=2 [COLLATED=2]",
        ]
        with Campaign.open(wd) as campaign:
            assert campaign.store.run(2)["attempts"] == 0


# The Ishigami function (Ishigami & Homma 1990), a = 7 and b = 0.1, called
# on workers as `ishigami:main`, with its one value in out.csv
ISHIGAMI_MODULE = """
import json, math

def main(argv):
    with open(argv[0]) as fh:
        x = json.load(fh)
    y = math.sin(x["x1"]) + 7 * math.sin(x["x2"]) ** 2 + 0.1 * x["x3"] ** 4 * math.sin(x["x1"])
    with open("out.csv", "w") as fh:
        fh.write(f"y\\n{y!r}\\n")
"""


def ishigami_closed_form(a=7.0, b=0.1):
    """Mean, variance, S_1 and S_T of the Ishigami function on U(-pi, pi)^3,
    from its partial variances V_1, V_2 and V_13 (V_3 = 0)."""
    v1 = (1 + b * math.pi ** 4 / 5) ** 2 / 2
    v2 = a ** 2 / 8
    v13 = 8 * b ** 2 * math.pi ** 8 / 225
    v = v1 + v2 + v13
    return (a / 2, v, {"x1": v1 / v, "x2": v2 / v, "x3": 0.0},
            {"x1": (v1 + v13) / v, "x2": v2 / v, "x3": v13 / v})


class TestAnalyze:
    def test_mc_stage_prints_a_plain_final_mean(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_OK
        line, report = capsys.readouterr().out.splitlines()
        doc = json.loads(Path(report.removeprefix("report: ")).read_text())
        assert line == f"qoi 'y': n=4 final mean={doc['mean'][-1]!r}"

    def test_mc_stage_with_a_failed_run_needs_allow_missing(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, script=FAIL_RUN_2)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_RUN_FAILURES
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "uq: stage 1 has 1 non-collated runs: [2]\n")
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y",
                        "--allow-missing"]) == uq.EXIT_OK
        out = capsys.readouterr()
        assert out.err == "uq: warning: 1 runs missing from stage 1\n"
        line, report = out.out.splitlines()
        doc = json.loads(Path(report.removeprefix("report: ")).read_text())
        with Campaign.open(wd) as campaign:
            values = [v[0] for _, v in campaign.store.load_frame("y")[1]]
        assert len(values) == doc["n_runs"] == 3
        assert doc["mean"] == [pytest.approx(sum(values) / 3, rel=1e-12)]
        assert line.startswith("qoi 'y': n=3 final mean=")

    @pytest.mark.parametrize("argv", [[], ["--allow-missing"]], ids=["plain", "allow-missing"])
    def test_sc_stage_with_a_failed_run_is_refused(self, tmp_path, capsys, argv):
        wd = make_campaign(tmp_path, n_runs=0, script=FAIL_RUN_2)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "2"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y", *argv]) == uq.EXIT_RUN_FAILURES
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "uq: stage 1 has 1 non-collated runs: [2]\n")
        assert not (tmp_path / "camp" / "reports").exists()

    def test_a_parameter_off_its_grid_point_is_refused(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "2"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        with Campaign.open(wd) as campaign, campaign.store._txn() as conn:
            conn.execute("UPDATE runs SET params_json=? WHERE run_id=2",
                         (json.dumps({"a": 0.123}),))
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_RUN_FAILURES
        err = capsys.readouterr().err
        assert err.startswith("uq: run 2: parameter a=0.123 does not match grid value ")
        assert err.endswith("; store and sampler disagree\n")

    def test_ishigami_through_the_cli_matches_its_closed_form(self, tmp_path, module_dir,
                                                               capsys):
        # PCE order 8 is a tensor Gauss-Legendre grid of 729 points. Its
        # largest index error is 0.0018 (S_T of x1, S_1 and S_T of x2), its
        # mean error 5e-7 and its variance error 0.040 of 13.845.
        (module_dir / "ishigami.py").write_text(ISHIGAMI_MODULE)
        cfg = write_config(
            tmp_path, [uniform_param(f"x{i}", -math.pi, math.pi) for i in (1, 2, 3)],
            '{"x1": $x1, "x2": $x2, "x3": $x3}\n', ["false"], callable="ishigami:main",
            decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]})
        wd = str(tmp_path / "camp")
        for argv in (["init", "--config", str(cfg)],
                     ["sample", "--sampler", "pce", "--order", "8"],
                     ["run", "--executor", "pilotjob", "--allocation-cores", "2"]):
            assert uq.main([*argv, "--workdir", wd]) == uq.EXIT_OK
        capsys.readouterr()
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_OK
        header, columns, *rows, reports = capsys.readouterr().out.splitlines()
        doc = json.loads(Path(reports.split()[1]).read_text())
        mean, variance, first, total = ishigami_closed_form()
        assert doc["index"] is None and doc["parameters"] == ["x1", "x2", "x3"]
        assert doc["mean"] == [pytest.approx(mean, abs=1e-6)]
        assert doc["variance"] == [pytest.approx(variance, abs=0.05)]
        for name in doc["parameters"]:
            assert doc["sobol_first"][name] == [pytest.approx(first[name], abs=0.002)], name
            assert doc["sobol_total"][name] == [pytest.approx(total[name], abs=0.002)], name
        assert (header, columns.split()) == ("QoI 'y':", ["parameter", "S_first", "S_total"])
        assert [row.split() for row in rows] == [
            [name, f"{doc['sobol_first'][name][0]:.6f}", f"{doc['sobol_total'][name][0]:.6f}"]
            for name in doc["parameters"]]

    def test_a_quadrature_stage_is_read_once(self, tmp_path, monkeypatch, capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "2"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        calls = count_stage_reads(monkeypatch)
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_OK
        assert calls == {"runs": [1], "load_frame": [1]}


class TestSample:
    def test_pce_keeps_its_growth_rule(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0, parameters=[
            uniform_param("a", 0.0, 1.0), uniform_param("b", 2.0, 3.0)])
        capsys.readouterr()
        assert uq.main(["sample", "--workdir", wd, "--sampler", "pce", "--order", "2",
                        "--growth", "exp2"]) == uq.EXIT_OK
        assert capsys.readouterr().out == "stage 1: 25 runs\n"
        with Campaign.open(wd) as campaign:
            (stage,) = campaign.store.stages()
            assert json.loads(stage["sampler_json"])["growth"] == "exp2"
            assert len(campaign.store.runs()) == 25

    def test_dump_grid_writes_each_runs_point_and_weight(self, tmp_path):
        wd = make_campaign(tmp_path, n_runs=0, parameters=[
            uniform_param("a", 0.0, 1.0), uniform_param("b", 2.0, 3.0)])
        sc, mc = tmp_path / "sc.csv", tmp_path / "mc.csv"
        for argv, path in ((["sc", "--level", "2", "--sparse"], sc), (["mc", "--n", "5"], mc)):
            assert uq.main(["sample", "--workdir", wd, "--sampler", *argv,
                            "--dump-grid", str(path)]) == uq.EXIT_OK
        with Campaign.open(wd) as campaign:
            store = campaign.store
            for stage_id, path in ((1, sc), (2, mc)):
                rows = store.runs(stage_id=stage_id)
                with open(path, newline="") as fh:
                    header, *lines = csv.reader(fh)
                assert header == ["index", "a", "b", "weight"]
                assert [line[0] for line in lines] == [str(i) for i in range(len(rows))]
                for line, row in zip(lines, rows, strict=True):
                    params = store.run_params(row)
                    assert [float(v).hex() for v in line[1:3]] == \
                        [params["a"].hex(), params["b"].hex()]
                    weight = row["weight"]
                    if stage_id == 1:
                        assert float(line[3]).hex() == weight.hex()
                    else:
                        assert (line[3], weight) == ("", None)
            assert len(store.runs(stage_id=1)) > 5   # a sparse level-2 grid in 2-D

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--seed", "-1"], "seed must be in [0, 2**63), got -1"),
        (["mc", "--seed", str(2**63)], f"seed must be in [0, 2**63), got {2**63}"),
        (["halton", "--skip", "-3"], "halton skip must be >= 0, got -3"),
    ], ids=["negative-seed", "seed-past-int64", "negative-skip"])
    def test_a_seed_or_skip_it_cannot_use_is_a_usage_error(self, tmp_path, capsys,
                                                           argv, message):
        wd = make_campaign(tmp_path, n_runs=0)
        capsys.readouterr()
        assert uq.main(["sample", "--workdir", wd, "--sampler", *argv,
                        "--n", "3"]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"uq: {message}\n")
        with Campaign.open(wd) as campaign:
            assert campaign.store.stages() == []
        assert statuses(wd) == {}

    def test_sc_over_an_integer_parameter_is_a_usage_error(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0, parameters=[{
            "name": "a", "kind": "integer", "default": 1,
            "distribution": {"type": "uniform", "args": [0, 3]}}])
        capsys.readouterr()
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc",
                        "--level", "2"]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "uq: quadrature sampler over integer parameters a; use mc or halton\n")
        assert statuses(wd) == {}


class TestRun:
    def test_a_placeholder_added_after_init_is_a_usage_error(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        (tmp_path / "input.template").write_text("y\n$a $b\n")
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("uq: ") and "'b'" in out.err
        assert set(statuses(wd).values()) == {"NEW"}

    @pytest.mark.parametrize("target, signum, callable", [
        pytest.param("process", signal.SIGTERM, None, id="process"),
        pytest.param("group", signal.SIGTERM, None, id="group"),
        pytest.param("process", signal.SIGHUP, None, id="process-sighup"),
        pytest.param("process", signal.SIGTERM, "sleeper:main", id="process-callable"),
    ])
    def test_sigterm_stops_the_runs_in_flight(self, tmp_path, child_env, target, signum,
                                              callable):
        # a SIGTERM to `uq run` alone, or to its process group as `timeout`
        # sends it, or a SIGHUP: the runs' own groups are canceled before it
        # exits 128 + the signal. Each run's `sh` is the launcher's child, or
        # that of the worker that calls sleeper.main: neither is left alive
        cfg = write_config(tmp_path, [uniform_param("a", 0.0, 1.0)], "y\n$a\n",
                           ["sh", "-c", SH_SLEEP], callable=callable)
        (tmp_path / "mods").mkdir()
        (tmp_path / "mods" / "sleeper.py").write_text(
            f"import os\ndef main(argv):\n    os.system({SH_SLEEP!r})\n")
        child_env["PYTHONPATH"] = os.pathsep.join((str(tmp_path / "mods"),
                                                   child_env["PYTHONPATH"]))
        wd = str(tmp_path / "camp")
        assert uq.main(["init", "--config", str(cfg), "--workdir", wd]) == uq.EXIT_OK
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "2"]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "uqpilot.cli.uq", "run", "--workdir", wd,
             "--executor", "pilotjob", "--allocation-cores", "2"],
            env=child_env, start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            runs = [Path(wd) / "runs" / f"run_00000{k}" for k in (1, 2)]
            sleeps = [sleep_of(run) for run in runs]
            parents = [parent_of(int((run / "sh.pid").read_text())) for run in runs]
            if target == "process":
                proc.send_signal(signum)
            else:
                os.killpg(proc.pid, signum)
            assert proc.wait(timeout=30) == 128 + signum
        finally:
            proc.kill()
            proc.wait()
        assert len(set(parents)) == (2 if callable else 1)
        wait_for(lambda: not any(running(pid) for pid in [*sleeps, *parents]), timeout=5)
        assert statuses(wd) == {1: "SUBMITTED", 2: "SUBMITTED"}

    def test_a_second_writer_is_refused(self, tmp_path, child_env):
        # a second `uq run` on a stage that one is running exits 3, naming
        # the lock, and launches nothing: each run is launched once
        wd = make_campaign(tmp_path, script=SLOW_ECHO)
        argv = [sys.executable, "-m", "uqpilot.cli.uq", "run", "--workdir", wd,
                "--executor", "pilotjob", "--allocation-cores", "2"]
        first = subprocess.Popen(argv, env=child_env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        try:
            wait_for((tmp_path / "launches").exists, timeout=30)
            second = subprocess.run(argv, env=child_env, capture_output=True, text=True,
                                    timeout=60)
            assert first.wait(timeout=60) == uq.EXIT_OK
        finally:
            first.kill()
            first.wait()
        assert second.returncode == uq.EXIT_REFUSED
        assert str(Path(wd) / uq.LOCK_FILENAME) in second.stderr
        assert sorted((tmp_path / "launches").read_text().split()) == \
            [f"run_00000{k}" for k in range(1, 5)]
        assert set(statuses(wd).values()) == {"COLLATED"}


class TestStatusCollateResume:
    def test_status_counts_per_stage(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "halton", "--n", "3"]) == 0
        assert uq.main(["run", "--workdir", wd, "--stage", "1"]) == uq.EXIT_OK
        capsys.readouterr()
        assert uq.main(["status", "--workdir", wd]) == uq.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "campaign 'test-campaign' (1 parameters)",
            "  stage 1: mc n=4 [COLLATED=4]",
            "  stage 2: halton n=3 [NEW=3]",
            "  totals: NEW=3, COLLATED=4",
        ]

    def test_status_and_analyze_after_the_template_moved(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "input.template").rename(tmp_path / "moved.template")
        capsys.readouterr()
        assert uq.main(["status", "--workdir", wd]) == uq.EXIT_OK
        assert uq.main(["analyze", "--workdir", wd, "--qoi", "y"]) == uq.EXIT_OK
        assert "n=4" in capsys.readouterr().out

    def test_collate_after_a_decode_error(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, script=ECHO_BUT_RUN_3_UNDECODABLE)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        assert "uq: run 3: " in capsys.readouterr().err
        assert statuses(wd)[3] == "COMPLETED"

        assert uq.main(["collate", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        out = capsys.readouterr()
        assert out.out == "collated=3 pending=1\n"
        assert "uq: run 3: " in out.err

        (tmp_path / "camp" / "runs" / "run_000003" / "out.csv").write_text("y\n0.5\n")
        assert uq.main(["collate", "--workdir", wd]) == uq.EXIT_OK
        assert capsys.readouterr().out == "collated=4 pending=0\n"
        assert set(statuses(wd).values()) == {"COLLATED"}

    def test_next_run_collates_a_run_left_completed(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, script=ECHO_BUT_RUN_3_UNDECODABLE)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_RUN_FAILURES
        (tmp_path / "camp" / "runs" / "run_000003" / "out.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        assert capsys.readouterr().out == "executed=0 completed=4 failed=0 collated=4\n"

    def test_resume_retries_failed_and_recovers_finished_runs(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=3)
        with Campaign.open(wd) as campaign:
            for run_id in (1, 2):
                run_dir = campaign.encode(run_id)
                campaign.store.set_status(run_id, "SUBMITTED")
            (run_dir / "out.csv").write_text("y\n0.25\n")   # run 2 finished, then a kill
            campaign.encode(3)
            campaign.store.set_status(3, "SUBMITTED")
            campaign.store.set_status(3, "FAILED")
        capsys.readouterr()
        assert uq.main(["resume", "--workdir", wd]) == uq.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert (summary["submitted"], summary["failed"]) == (2, 1)
        assert (summary["recovered"], summary["retry"]) == (1, 2)
        assert statuses(wd) == {1: "ENCODED", 2: "COLLATED", 3: "ENCODED"}

        assert uq.main(["resume", "--workdir", wd]) == uq.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert (summary["encoded"], summary["recovered"], summary["retry"]) == (2, 0, 0)


class TestValidate:
    def test_similarity_against_a_reference(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.25\n0.5\n0.75\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "similarity",
                        "--qoi", "y", "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_OK
        distance, report = capsys.readouterr().out.splitlines()
        with Campaign.open(wd) as campaign:
            values = [v[-1] for _, v in campaign.store.load_frame("y")[1]]
        expected = metric_distance("hellinger", values, [0.25, 0.5, 0.75])
        assert distance == f"hellinger distance: {expected:.6g}"
        doc = json.loads(Path(report.removeprefix("report: ")).read_text())
        assert doc == {"pattern": "similarity", "metric": "hellinger", "distance": expected}
        latest = tmp_path / "camp" / "reports" / "validation-similarity-latest.json"
        assert json.loads(latest.read_text()) == doc

    @pytest.mark.parametrize("metric", ["hellinger", "jsd", "wasserstein1"])
    def test_similarity_scores_the_mc_stage_not_the_sc_nodes(self, tmp_path, capsys, metric):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "2"]) == 0
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "6",
                        "--seed", "3"]) == uq.EXIT_OK
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.1\n0.3\n0.35\n0.9\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "similarity", "--qoi", "y",
                        "--metric", metric, "--reference", str(tmp_path / "ref.csv")]) == 0
        report = capsys.readouterr().out.splitlines()[-1].removeprefix("report: ")
        with Campaign.open(wd) as campaign:
            mc_values = [v[-1] for _, v in campaign.store.load_frame("y", stage_id=2)[1]]
        assert len(mc_values) == 6
        expected = metric_distance(metric, mc_values, [0.1, 0.3, 0.35, 0.9])
        assert json.loads(Path(report).read_text())["distance"] == expected

    def test_similarity_refuses_an_sc_only_campaign(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "1"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "similarity", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_USAGE
        assert "stage 1 (sc)" in capsys.readouterr().err
        assert not (tmp_path / "camp" / "reports").exists()

    @pytest.mark.parametrize("at", ["foo", "7", "-2", "1.5"])
    def test_an_at_outside_the_vectors_is_a_usage_error(self, tmp_path, capsys, at):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "similarity", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv"), "--at", at]) == uq.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"uq: at={at!r} is not 'final', 'flat'")

    def test_ensemble_mare_against_a_reference(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "ensemble", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_OK
        aggregate, report = capsys.readouterr().out.splitlines()
        with Campaign.open(wd) as campaign:
            values = [v[0] for _, v in campaign.store.load_frame("y")[1]]
        expected = sum(abs(v - 0.5) / 0.5 for v in values) / len(values)
        assert aggregate == f"aggregate (mean): {expected:.6g}"
        doc = json.loads(Path(report.removeprefix("report: ")).read_text())
        assert doc["aggregate"] == pytest.approx(expected, rel=1e-12)
        assert sorted(doc["per_run"]) == ["1", "2", "3", "4"]

    def test_ensemble_scores_the_mc_stage_not_the_sc_nodes(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "2"]) == 0
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "6",
                        "--seed", "3"]) == uq.EXIT_OK
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "ensemble", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_OK
        report = capsys.readouterr().out.splitlines()[-1].removeprefix("report: ")
        doc = json.loads(Path(report).read_text())
        with Campaign.open(wd) as campaign:
            mc_rows = campaign.store.load_frame("y", stage_id=2)[1]
        assert sorted(int(rid) for rid in doc["per_run"]) == [rid for rid, _ in mc_rows]
        scores = [mare(v, [0.5]) for _, v in mc_rows]
        assert len(scores) == 6
        assert doc["aggregate"] == pytest.approx(sum(scores) / 6, rel=1e-12)

    def test_ensemble_refuses_an_sc_only_campaign(self, tmp_path, capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "1"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "ensemble", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_USAGE
        assert "stage 1 (sc)" in capsys.readouterr().err
        assert not (tmp_path / "camp" / "reports").exists()

    def test_ensemble_before_any_run_is_a_run_failure(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "ensemble", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_RUN_FAILURES
        assert capsys.readouterr().err == "uq: no collated values for qoi 'y'\n"

    @pytest.mark.parametrize("pattern", ["similarity", "ensemble"])
    def test_each_stage_is_read_once(self, tmp_path, monkeypatch, capsys, pattern):
        wd = make_campaign(tmp_path, n_runs=0)
        assert uq.main(["sample", "--workdir", wd, "--sampler", "sc", "--level", "1"]) == 0
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "5"]) == 0
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        calls = count_stage_reads(monkeypatch)
        assert uq.main(["validate", "--workdir", wd, "--pattern", pattern, "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_OK
        assert calls == {"runs": [1, 2], "load_frame": [1, 2]}

    @pytest.mark.parametrize("pattern", ["similarity", "ensemble"])
    def test_an_unknown_qoi_is_a_usage_error(self, tmp_path, capsys, pattern):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("nope\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", pattern, "--qoi", "nope",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_USAGE
        assert capsys.readouterr().err == "uq: unknown qoi 'nope'; available: y\n"

    def test_similarity_before_any_run_is_a_run_failure(self, tmp_path, capsys):
        wd = make_campaign(tmp_path)
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", "similarity", "--qoi", "y",
                        "--reference", str(tmp_path / "ref.csv")]) == uq.EXIT_RUN_FAILURES
        assert capsys.readouterr().err == "uq: no collated values for qoi 'y'\n"

    @pytest.mark.parametrize("pattern", ["similarity", "ensemble"])
    @pytest.mark.parametrize("content, detail", [
        (None, ""), ("y\nnot-a-number\n", ""), ("z,y\n1,2\n3\n", ""),
        ("", "no data rows\n"), ("y\n", "no data rows\n"),
    ], ids=["missing", "unparsable", "short-row", "empty", "header-only"])
    def test_an_unreadable_reference_is_a_usage_error(self, tmp_path, capsys, pattern,
                                                      content, detail):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        ref = tmp_path / "ref.csv"
        if content is not None:
            ref.write_text(content)
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, "--pattern", pattern, "--qoi", "y",
                        "--reference", str(ref)]) == uq.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"uq: cannot read reference {ref}: {detail}")
        assert not (tmp_path / "camp" / "reports").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--pattern", "similarity", "--qoi", "y", "--metric", "cosine", "--reference", "REF"],
         "unknown metric"),
        (["--pattern", "similarity"], "needs --qoi"),
        (["--pattern", "ensemble", "--qoi", "y"], "needs --qoi and --reference"),
        (["--pattern", "similarity", "--qoi", "y"], "needs --qoi and --reference"),
    ])
    def test_usage_errors(self, tmp_path, capsys, argv, message):
        wd = make_campaign(tmp_path)
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_OK
        (tmp_path / "ref.csv").write_text("y\n0.5\n")
        argv = [str(tmp_path / "ref.csv") if a == "REF" else a for a in argv]
        capsys.readouterr()
        assert uq.main(["validate", "--workdir", wd, *argv]) == uq.EXIT_USAGE
        assert message in capsys.readouterr().err


class TestStoreErrors:
    @pytest.mark.parametrize("content, code, start, end", [
        (None, uq.EXIT_USAGE, "uq: no campaign store at {wd}", "\n"),
        (b"not a database at all", uq.EXIT_CORRUPT, "uq: {wd}/campaign.db: ",
         " (store may need manual recovery)\n"),
    ], ids=["missing", "garbage"])
    def test_a_workdir_without_a_readable_store(self, tmp_path, console_scripts, child_env,
                                                content, code, start, end):
        # through `uq` itself, so its exit code passes through the script
        wd = tmp_path / "nowhere"
        if content is not None:
            wd.mkdir()
            (wd / store_module.DB_FILENAME).write_bytes(content)
        proc = subprocess.run([console_scripts / "uq", "status", "--workdir", wd],
                              env=child_env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr.startswith(start.format(wd=wd)) and proc.stderr.endswith(end)
        assert proc.stderr.count("\n") == 1
        if content is not None:   # read, not written
            assert [p.read_bytes() for p in wd.iterdir()] == [content]

    @pytest.mark.parametrize("content", [b"", b"mine\n"], ids=["empty", "text"])
    def test_a_file_that_is_no_store_is_a_usage_error_left_untouched(self, tmp_path, capsys,
                                                                      content):
        path = tmp_path / "afile"
        path.write_bytes(content)
        capsys.readouterr()
        assert uq.main(["status", "--workdir", str(path)]) == uq.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"uq: no campaign store at {path}: not an SQLite database\n"
        assert path.read_bytes() == content
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_a_database_error_in_a_transaction_is_corruption(self, tmp_path, monkeypatch,
                                                              capsys):
        # a second insert of one run's qoi rows, as a second writer's would be
        wd = make_campaign(tmp_path, n_runs=2)
        insert_qoi = CampaignStore.insert_qoi

        def inserted_twice(store, *args):
            insert_qoi(store, *args)
            insert_qoi(store, *args)

        monkeypatch.setattr(CampaignStore, "insert_qoi", inserted_twice)
        capsys.readouterr()
        assert uq.main(["run", "--workdir", wd]) == uq.EXIT_CORRUPT
        err = capsys.readouterr().err
        assert str(Path(wd) / store_module.DB_FILENAME) in err
        assert "UNIQUE constraint failed" in err

    def test_a_store_locked_by_another_writer_is_a_refusal(self, tmp_path, monkeypatch,
                                                           capsys):
        wd = make_campaign(tmp_path, n_runs=0)
        monkeypatch.setattr(store_module, "BUSY_TIMEOUT_SECONDS", 0.05)
        other = sqlite3.connect(Path(wd) / store_module.DB_FILENAME)
        try:
            other.execute("BEGIN IMMEDIATE")
            capsys.readouterr()
            code = uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "2"])
        finally:
            other.close()
        assert code == uq.EXIT_REFUSED
        assert "database is locked" in capsys.readouterr().err
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "2"]) == uq.EXIT_OK

    def test_a_misuse_of_the_sqlite_api_stays_unmapped(self, tmp_path):
        # a wrong number of bindings is a fault of the code, not of the store
        store = CampaignStore.open(make_campaign(tmp_path, n_runs=0))
        try:
            with pytest.raises(sqlite3.ProgrammingError):
                with store._txn() as conn:
                    conn.execute("SELECT ?", ())
        finally:
            store.close()


@pytest.mark.parametrize("error", UQ_ERRORS, ids=lambda cls: cls.__name__)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error):
    def handler(args):
        raise error("boom")

    monkeypatch.setitem(uq.HANDLERS, "status", handler)
    code = uq.main(["status", "--workdir", "unused"])
    expected = {errors.StoreCorrupt: (uq.EXIT_CORRUPT, " (store may need manual recovery)"),
                errors.MissingRunError: (uq.EXIT_RUN_FAILURES, ""),
                errors.StoreLocked: (uq.EXIT_REFUSED, "")}.get(error, (uq.EXIT_USAGE, ""))
    assert (code, capsys.readouterr().err) == (expected[0], f"uq: boom{expected[1]}\n")


def test_help_imports_no_numpy_sqlite3_or_campaign(child_env):
    # each command imports the layers it uses, so `uq --help` starts fast
    script = ("import sys\n"
              "from uqpilot.cli import uq\n"
              "try:\n"
              "    uq.main(['--help'])\n"
              "except SystemExit as exc:\n"
              "    assert exc.code == 0, exc.code\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'sqlite3')\n"
              "             or m.startswith('uqpilot.campaign')))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: uq" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
