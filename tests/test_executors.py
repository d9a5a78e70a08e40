import json
import socket
import stat
import subprocess
import sys
import threading
import time

import pytest

from tests.conftest import uniform_param, write_config
from uqpilot.campaign.ops import Campaign
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
        summary = execute_campaign(campaign, RunPlan(executor="local-pool", workers=4))
        assert summary.ok
        assert summary.failed == 0
        counts = campaign.store.status_counts()
        assert counts["COLLATED"] == 10

    def test_single_failure_reported(self, tmp_path):
        campaign = script_campaign(tmp_path, ALWAYS_FAIL_RUN_3)
        summary = execute_campaign(campaign, RunPlan(executor="local-pool", retries=0))
        assert not summary.ok
        assert summary.failed == 1
        counts = campaign.store.status_counts()
        assert counts["COLLATED"] == 9
        assert campaign.store.run(3)["status"] == "FAILED"

    def test_retry_recovers_transient_failure(self, tmp_path):
        campaign = script_campaign(tmp_path, FAIL_RUN_3)
        summary = execute_campaign(campaign, RunPlan(executor="serial", retries=1))
        assert summary.ok
        assert campaign.store.status_counts()["COLLATED"] == 10
        assert campaign.store.run(3)["attempts"] == 1

    def test_rerun_is_idempotent(self, tmp_path):
        campaign = echo_campaign(tmp_path)
        execute_campaign(campaign, RunPlan(executor="serial"))
        second = execute_campaign(campaign, RunPlan(executor="serial"))
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
        execute_campaign(campaign, RunPlan(executor="serial"))
        out = (campaign.run_dir(1) / "run.stdout").read_text()
        assert "hello-from-run" in out


class TestPilotExecutor:
    def test_completes_all(self, tmp_path):
        campaign = echo_campaign(tmp_path)
        summary = execute_campaign(
            campaign, RunPlan(executor="pilotjob", allocation_cores=4)
        )
        assert summary.ok
        assert campaign.store.status_counts()["COLLATED"] == 10

    def test_failure_synchronized_back(self, tmp_path):
        campaign = script_campaign(tmp_path, ALWAYS_FAIL_RUN_3)
        summary = execute_campaign(
            campaign, RunPlan(executor="pilotjob", allocation_cores=4)
        )
        assert not summary.ok
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
                summary=execute_campaign(campaign, RunPlan(executor="local-pool", workers=8))))
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

    @pytest.mark.parametrize("executor", ["serial", "local-pool"])
    def test_error_cancels_and_drains_the_manager(self, tmp_path, monkeypatch, executor):
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
            execute_campaign(campaign, RunPlan(executor=executor, workers=2))
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
            execute_campaign(campaign, RunPlan(executor="serial"))
        assert len(started) == 1
        assert started[0].poll() is not None
        monkeypatch.undo()
        rows = {row["run_id"]: row for row in campaign.store.runs()}
        assert rows[1]["status"] == "SUBMITTED"
        for run_id in (2, 3, 4):
            assert rows[run_id]["status"] == "ENCODED"
            assert rows[run_id]["attempts"] == 0


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


class TestExecutorEquivalence:
    def test_qoi_frames_bitwise_identical(self, tmp_path):
        frames = {}
        for executor in ("serial", "local-pool", "pilotjob"):
            base = tmp_path / executor
            base.mkdir()
            campaign = echo_campaign(base, workdir_name="camp")
            plan = RunPlan(executor=executor, workers=3, allocation_cores=4)
            summary = execute_campaign(campaign, plan)
            assert summary.ok
            rows = campaign.store._conn.execute(
                "SELECT run_id, qoi, values_json FROM qoi_values ORDER BY run_id, qoi"
            ).fetchall()
            frames[executor] = json.dumps([tuple(r) for r in rows])
        assert frames["serial"] == frames["local-pool"] == frames["pilotjob"]
