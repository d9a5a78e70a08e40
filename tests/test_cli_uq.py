"""The `uq` subcommands driven through ``uqpilot.cli.uq.main``."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import UQ_ERRORS, uniform_param, write_config
from tests.test_pilotjob import SH_SLEEP, running, sleep_of, wait_for
from uqpilot import errors, executors
from uqpilot.campaign.ops import Campaign
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

    @pytest.mark.parametrize("target", ["process", "group"])
    def test_sigterm_stops_the_runs_in_flight(self, tmp_path, child_env, target):
        # a SIGTERM to `uq run` alone, or to its process group as `timeout`
        # sends it: the runs' own groups are canceled before it exits
        cfg = write_config(tmp_path, [uniform_param("a", 0.0, 1.0)], "y\n$a\n",
                           ["sh", "-c", SH_SLEEP])
        wd = str(tmp_path / "camp")
        assert uq.main(["init", "--config", str(cfg), "--workdir", wd]) == uq.EXIT_OK
        assert uq.main(["sample", "--workdir", wd, "--sampler", "mc", "--n", "2"]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "uqpilot.cli.uq", "run", "--workdir", wd,
             "--executor", "pilotjob", "--allocation-cores", "2"],
            env=child_env, start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            sleeps = [sleep_of(Path(wd) / "runs" / f"run_00000{k}") for k in (1, 2)]
            if target == "process":
                proc.send_signal(signal.SIGTERM)
            else:
                os.killpg(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()
        wait_for(lambda: not any(running(pid) for pid in sleeps), timeout=5)
        assert statuses(wd) == {1: "SUBMITTED", 2: "SUBMITTED"}


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


@pytest.mark.parametrize("error", UQ_ERRORS, ids=lambda cls: cls.__name__)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, capsys, error):
    def handler(args):
        raise error("boom")

    monkeypatch.setitem(uq.HANDLERS, "status", handler)
    code = uq.main(["status", "--workdir", "unused"])
    expected = {errors.StoreCorrupt: (uq.EXIT_CORRUPT, " (store may need manual recovery)"),
                errors.MissingRunError: (uq.EXIT_RUN_FAILURES, "")}.get(error, (uq.EXIT_USAGE, ""))
    assert (code, capsys.readouterr().err) == (expected[0], f"uq: boom{expected[1]}\n")
