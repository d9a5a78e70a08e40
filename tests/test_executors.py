import json
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import uniform_param, write_config
from uqpilot.campaign.ops import Campaign
from uqpilot.campaign.store import CampaignStore
from uqpilot.cli import uq
from uqpilot.executors import RunPlan, execute_campaign
from uqpilot.sampling.samplers import SamplerSpec


def echo_campaign(tmp_path, n_runs=10, workdir_name="camp") -> Campaign:
    """App copies its rendered input straight to the output CSV."""
    cfg = write_config(
        tmp_path,
        [uniform_param("a", 0.0, 1.0)],
        "y\n$a\n",
        ["cp", "input.json", "out.csv"],
        decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]},
    )
    campaign = Campaign.create(cfg, tmp_path / workdir_name)
    campaign.add_stage(SamplerSpec("mc", n=n_runs, seed=31))
    return campaign


def script_campaign(tmp_path, script_body: str, n_runs=10) -> Campaign:
    """App runs a custom python script with the run dir as cwd."""
    script = tmp_path / "app.py"
    script.write_text(script_body)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    cfg = write_config(
        tmp_path,
        [uniform_param("a", 0.0, 1.0)],
        "y\n$a\n",
        [sys.executable, str(script)],
        decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]},
    )
    campaign = Campaign.create(cfg, tmp_path / "camp")
    campaign.add_stage(SamplerSpec("mc", n=n_runs, seed=31))
    return campaign


FAIL_RUN_3 = """
import pathlib, shutil, sys
run_dir = pathlib.Path.cwd()
if run_dir.name == "run_000003" and not (run_dir / "retry-marker").exists():
    (run_dir / "retry-marker").write_text("failed once")
    sys.exit(1)
shutil.copy("input.json", "out.csv")
"""

ALWAYS_FAIL_RUN_3 = """
import pathlib, shutil, sys
if pathlib.Path.cwd().name == "run_000003":
    sys.exit(1)
shutil.copy("input.json", "out.csv")
"""


class TestSerialAndPool:
    def test_local_pool_completes_all(self, tmp_path):
        campaign = echo_campaign(tmp_path)
        summary = execute_campaign(campaign, RunPlan(cores=4))
        assert summary.ok
        assert summary.failed == 0
        counts = campaign.store.status_counts()
        assert counts["COLLATED"] == 10

    def test_single_failure_reported(self, tmp_path):
        campaign = script_campaign(tmp_path, ALWAYS_FAIL_RUN_3)
        summary = execute_campaign(campaign, RunPlan(cores=4, retries=0))
        assert not summary.ok
        assert summary.failed == 1
        counts = campaign.store.status_counts()
        assert counts["COLLATED"] == 9
        assert campaign.store.run(3)["status"] == "FAILED"

    def test_retry_recovers_transient_failure(self, tmp_path):
        campaign = script_campaign(tmp_path, FAIL_RUN_3)
        summary = execute_campaign(campaign, RunPlan(retries=1))
        assert summary.ok
        assert campaign.store.status_counts()["COLLATED"] == 10
        assert campaign.store.run(3)["attempts"] == 1

    def test_exhausted_retries_leave_the_run_failed(self, tmp_path):
        campaign = script_campaign(tmp_path, ALWAYS_FAIL_RUN_3)
        summary = execute_campaign(campaign, RunPlan(cores=2, retries=2))
        assert not summary.ok
        assert summary.executed == 12   # ten first attempts and two retries of run 3
        assert summary.failed == 1
        row = campaign.store.run(3)
        assert (row["status"], row["attempts"]) == ("FAILED", 2)
        assert campaign.store.status_counts()["COLLATED"] == 9

    def test_a_successful_run_costs_three_commits(self, tmp_path, monkeypatch):
        # ENCODED, SUBMITTED, and COMPLETED+COLLATED in one transaction
        campaign = echo_campaign(tmp_path)
        txn = CampaignStore._txn
        entered = []

        def counted_txn(store):
            entered.append(1)
            return txn(store)

        monkeypatch.setattr(CampaignStore, "_txn", counted_txn)
        summary = execute_campaign(campaign, RunPlan(cores=2))
        assert summary.ok
        assert campaign.store.status_counts()["COLLATED"] == 10
        assert len(entered) == 3 * 10

    def test_app_and_template_are_read_once(self, tmp_path, monkeypatch):
        campaign = echo_campaign(tmp_path)
        app_spec = CampaignStore.app_spec
        template = Path(campaign.store.app_spec().template_path)
        read_text = Path.read_text
        reads = {"app": 0, "template": 0}

        def counted_app_spec(store):
            reads["app"] += 1
            return app_spec(store)

        def counted_read_text(path, *args, **kwargs):
            reads["template"] += path == template
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(CampaignStore, "app_spec", counted_app_spec)
        monkeypatch.setattr(Path, "read_text", counted_read_text)
        assert execute_campaign(campaign, RunPlan(cores=2, retries=1)).ok
        assert reads == {"app": 1, "template": 1}

    def test_rerun_is_idempotent(self, tmp_path):
        campaign = echo_campaign(tmp_path)
        execute_campaign(campaign, RunPlan())
        second = execute_campaign(campaign, RunPlan())
        assert second.executed == 0
        assert campaign.store.status_counts()["COLLATED"] == 10

    def test_stdout_captured_per_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            [uniform_param("a", 0.0, 1.0)],
            "y\n$a\n",
            ["sh", "-c", "echo hello-from-run && cp input.json out.csv"],
            decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]},
        )
        campaign = Campaign.create(cfg, tmp_path / "camp")
        campaign.add_stage(SamplerSpec("mc", n=1, seed=0))
        execute_campaign(campaign, RunPlan())
        out = (campaign.run_dir(1) / "run.stdout").read_text()
        assert "hello-from-run" in out


class TestPilotExecutor:
    def test_completes_all(self, tmp_path):
        echo_campaign(tmp_path).close()
        code = uq.main(["run", "--workdir", str(tmp_path / "camp"),
                        "--executor", "pilotjob", "--allocation-cores", "4"])
        assert code == uq.EXIT_OK
        with Campaign.open(tmp_path / "camp") as campaign:
            assert campaign.store.status_counts()["COLLATED"] == 10

    def test_failure_synchronized_back(self, tmp_path):
        script_campaign(tmp_path, ALWAYS_FAIL_RUN_3).close()
        code = uq.main(["run", "--workdir", str(tmp_path / "camp"),
                        "--executor", "pilotjob", "--allocation-cores", "4"])
        assert code == uq.EXIT_RUN_FAILURES
        with Campaign.open(tmp_path / "camp") as campaign:
            assert campaign.store.run(3)["status"] == "FAILED"


class TestEngine:
    def test_many_workers_under_thread_switch_pressure(self, tmp_path):
        # more concurrent runs than cores and a tiny switch interval: a lost
        # update to the manager's counters would hang or drop a run
        campaign = echo_campaign(tmp_path, n_runs=80)
        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.update(
                summary=execute_campaign(campaign, RunPlan(cores=8))))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result["summary"].ok
        assert campaign.store.status_counts()["COLLATED"] == 80

    def test_pilotjob_run_needs_no_socket(self, tmp_path, monkeypatch):
        campaign = echo_campaign(tmp_path)
        campaign.close()

        def no_sockets(*args, **kwargs):
            raise OSError("sockets are disabled in this test")

        monkeypatch.setattr(socket, "socket", no_sockets)
        code = uq.main(["run", "--workdir", str(tmp_path / "camp"),
                        "--executor", "pilotjob", "--allocation-cores", "2"])
        assert code == 0
        with Campaign.open(tmp_path / "camp") as reopened:
            assert reopened.store.status_counts()["COLLATED"] == 10

    @pytest.mark.parametrize("cores", [1, 2], ids=["serial", "pilotjob"])
    def test_error_cancels_and_drains_the_manager(self, tmp_path, monkeypatch, cores):
        campaign = script_campaign(tmp_path, SLEEP_FROM_RUN_3, n_runs=6)
        started = record_popen(monkeypatch)
        set_status = campaign.store.set_status

        def failing_set_status(run_id, status, *args, **kwargs):
            if run_id == 3 and status != "ENCODED":   # once the 3rd run is executing
                raise RuntimeError("store went away")
            return set_status(run_id, status, *args, **kwargs)

        monkeypatch.setattr(campaign.store, "set_status", failing_set_status)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="store went away"):
            execute_campaign(campaign, RunPlan(cores=cores))
        assert time.monotonic() - t0 < 30   # children were stopped, not waited out
        assert len(started) >= 3
        assert all(proc.poll() is not None for proc in started)
        monkeypatch.undo()
        campaign.resume()
        assert campaign.store.status_counts()["SUBMITTED"] == 0

    def test_interrupt_leaves_unstarted_runs_encoded(self, tmp_path, monkeypatch):
        campaign = script_campaign(tmp_path, "import time\ntime.sleep(60)\n", n_runs=4)
        started = record_popen(monkeypatch)
        set_status = campaign.store.set_status

        def interrupted_after_first_start(run_id, status, *args, **kwargs):
            set_status(run_id, status, *args, **kwargs)
            if status == "SUBMITTED":
                raise KeyboardInterrupt

        monkeypatch.setattr(campaign.store, "set_status", interrupted_after_first_start)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(campaign, RunPlan())
        assert len(started) == 1
        assert started[0].poll() is not None
        monkeypatch.undo()
        rows = {row["run_id"]: row for row in campaign.store.runs()}
        assert rows[1]["status"] == "SUBMITTED"
        for run_id in (2, 3, 4):
            assert rows[run_id]["status"] == "ENCODED"
            assert rows[run_id]["attempts"] == 0


    def test_resume_never_collates_a_failed_attempts_output(self, tmp_path, monkeypatch):
        # attempt 0 writes an output and fails; attempt 1 is stopped before
        # it writes one, so there is nothing of its own to recover
        campaign = script_campaign(tmp_path, FAIL_WITH_OUTPUT_THEN_SLEEP, n_runs=1)
        assert execute_campaign(campaign, RunPlan()).failed == 1
        set_status = campaign.store.set_status

        def interrupted_after_first_start(run_id, status, *args, **kwargs):
            set_status(run_id, status, *args, **kwargs)
            if status == "SUBMITTED":
                raise KeyboardInterrupt

        monkeypatch.setattr(campaign.store, "set_status", interrupted_after_first_start)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(campaign, RunPlan())
        monkeypatch.undo()
        assert campaign.store.run(1)["status"] == "SUBMITTED"
        summary = campaign.resume()
        assert (summary["recovered"], summary["retry"]) == (0, 1)
        assert campaign.store.status_counts()["COLLATED"] == 0
        assert campaign.store.load_frame("y")[1] == []


    def test_a_second_call_retries_a_run_the_first_left_submitted(self, tmp_path,
                                                                   monkeypatch):
        # run 2 is stopped while it executes; no resume between the calls
        hold = tmp_path / "hold"
        hold.write_text("")
        campaign = script_campaign(tmp_path, HOLD_RUN_2.format(hold=str(hold)), n_runs=4)
        set_status = campaign.store.set_status

        def interrupted_as_run_2_starts(run_id, status, *args, **kwargs):
            set_status(run_id, status, *args, **kwargs)
            if (run_id, status) == (2, "SUBMITTED"):
                raise KeyboardInterrupt

        monkeypatch.setattr(campaign.store, "set_status", interrupted_as_run_2_starts)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(campaign, RunPlan())
        monkeypatch.undo()
        assert campaign.store.run(2)["status"] == "SUBMITTED"
        hold.unlink()
        summary = execute_campaign(campaign, RunPlan())
        assert summary.ok
        assert summary.executed == 3   # run 2 again, and runs 3 and 4
        assert campaign.store.status_counts()["COLLATED"] == 4
        assert campaign.store.run(2)["attempts"] == 1

    def test_a_second_call_collates_output_the_first_left(self, tmp_path, monkeypatch):
        # run 1 ends well, then the engine stops before it commits the end
        campaign = echo_campaign(tmp_path, n_runs=4)
        collate = campaign.collate

        def interrupted_before_collating(run_id):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign, "collate", interrupted_before_collating)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(campaign, RunPlan())
        monkeypatch.setattr(campaign, "collate", collate)
        assert campaign.store.run(1)["status"] == "SUBMITTED"
        summary = execute_campaign(campaign, RunPlan())
        assert summary.ok
        assert summary.executed == 3   # run 1 is collated from its output, not run again
        assert campaign.store.status_counts()["COLLATED"] == 4
        assert campaign.store.run(1)["attempts"] == 0


HOLD_RUN_2 = """
import pathlib, shutil, time
if pathlib.Path.cwd().name == "run_000002" and pathlib.Path({hold!r}).exists():
    time.sleep(60)
shutil.copy("input.json", "out.csv")
"""

FAIL_WITH_OUTPUT_THEN_SLEEP = """
import pathlib, sys, time
if pathlib.Path("failed-once").exists():
    time.sleep(60)
pathlib.Path("failed-once").write_text("")
pathlib.Path("out.csv").write_text("y\\n999\\n")
sys.exit(1)
"""

SLEEP_FROM_RUN_3 = """
import pathlib, shutil, time
if pathlib.Path.cwd().name >= "run_000003":
    time.sleep(60)
shutil.copy("input.json", "out.csv")
"""


def record_popen(monkeypatch) -> list[subprocess.Popen]:
    """Keep every process the manager starts, to check none outlives the run."""
    started: list[subprocess.Popen] = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started


def qoi_frame(campaign: Campaign) -> str:
    rows = campaign.store._conn.execute(
        "SELECT run_id, qoi, values_json FROM qoi_values ORDER BY run_id, qoi"
    ).fetchall()
    return json.dumps([tuple(r) for r in rows])


class TestExecutorEquivalence:
    def test_qoi_frames_bitwise_identical(self, tmp_path, demo_config_path, warm_pythonpath,
                                          monkeypatch):
        frames = {}
        for cores in (1, 3, 4):
            base = tmp_path / f"cores{cores}"
            base.mkdir()
            campaign = echo_campaign(base, workdir_name="camp")
            summary = execute_campaign(campaign, RunPlan(cores=cores))
            assert summary.ok
            frames[cores] = qoi_frame(campaign)
        assert frames[1] == frames[3] == frames[4]

        # the toy started warm by `python -m`, and executed through `-c`
        started = record_popen(monkeypatch)
        commands = {
            "warm": [sys.executable, "-m", "uqpilot.toy", "input.json"],
            "exec": [sys.executable, "-c", "import sys, uqpilot.toy as t; sys.exit(t.main())",
                     "input.json"],
        }
        toy_frames, launches = {}, {}
        for name, command in commands.items():
            doc = json.loads(demo_config_path.read_text())
            doc["app"]["command"] = command
            config = demo_config_path.with_name(f"{name}.json")
            config.write_text(json.dumps(doc))
            campaign = Campaign.create(config, tmp_path / name)
            campaign.add_stage(SamplerSpec("mc", n=8, seed=31))
            before = len(started)
            assert execute_campaign(campaign, RunPlan(cores=2)).ok
            launches[name] = len(started) - before
            toy_frames[name] = qoi_frame(campaign)
        assert launches == {"warm": 1, "exec": 8}   # one launcher, or one process per run
        assert toy_frames["warm"] == toy_frames["exec"]
        assert len(json.loads(toy_frames["warm"])) == 8
