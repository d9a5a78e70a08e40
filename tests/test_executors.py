import json
import os
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import uniform_param, write_config
from tests.test_pilotjob import running, wait_for
from uqpilot.campaign.ops import Campaign
from uqpilot.campaign.store import CampaignStore
from uqpilot.cli import uq
from uqpilot.executors import RunPlan, execute_campaign
from uqpilot.pilotjob import scheduler
from uqpilot.sampling.samplers import SamplerSpec


def echo_campaign(tmp_path, n_runs=10, workdir_name="camp", callable=None) -> Campaign:
    """App copies its rendered input straight to the output CSV."""
    cfg = write_config(
        tmp_path,
        [uniform_param("a", 0.0, 1.0)],
        "y\n$a\n",
        ["cp", "input.json", "out.csv"],
        decoder={"output_relpath": "out.csv", "format": "csv", "qoi_columns": ["y"]},
        callable=callable,
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
        started = record_starts(monkeypatch)
        set_status = campaign.store.set_status

        def failing_set_status(run_id, status, *args, **kwargs):
            if run_id == 3 and status != "ENCODED":   # once the 3rd run is executing
                wait_for_pid(campaign, 3)
                raise RuntimeError("store went away")
            return set_status(run_id, status, *args, **kwargs)

        monkeypatch.setattr(campaign.store, "set_status", failing_set_status)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="store went away"):
            execute_campaign(campaign, RunPlan(cores=cores))
        assert time.monotonic() - t0 < 30   # children were stopped, not waited out
        assert len(started) >= 3
        assert len(run_pids(campaign)) >= 3
        assert not any(running(pid) for pid in run_pids(campaign))
        monkeypatch.undo()
        campaign.resume()
        assert campaign.store.status_counts()["SUBMITTED"] == 0

    def test_interrupt_leaves_unstarted_runs_encoded(self, tmp_path, monkeypatch):
        campaign = script_campaign(tmp_path, WRITE_PID + "import time\ntime.sleep(60)\n",
                                   n_runs=4)
        started = record_starts(monkeypatch)
        set_status = campaign.store.set_status

        def interrupted_after_first_start(run_id, status, *args, **kwargs):
            set_status(run_id, status, *args, **kwargs)
            if status == "SUBMITTED":
                wait_for_pid(campaign, run_id)
                raise KeyboardInterrupt

        monkeypatch.setattr(campaign.store, "set_status", interrupted_after_first_start)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(campaign, RunPlan())
        assert len(started) == 1
        assert len(run_pids(campaign)) == 1
        assert not running(run_pids(campaign)[0])
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

# first, each run writes its pid to `pid` in its run directory
WRITE_PID = """
import os
with open("pid.part", "w") as fh:
    fh.write(str(os.getpid()))
os.rename("pid.part", "pid")
"""

SLEEP_FROM_RUN_3 = WRITE_PID + """
import pathlib, shutil, time
if pathlib.Path.cwd().name >= "run_000003":
    time.sleep(60)
shutil.copy("input.json", "out.csv")
"""


def run_pids(campaign: Campaign) -> list[int]:
    """The pids that the runs of `campaign` wrote with WRITE_PID."""
    return [int(path.read_text()) for path in sorted(campaign.workdir.glob("runs/*/pid"))]


def wait_for_pid(campaign: Campaign, run_id: int):
    wait_for((campaign.run_dir(run_id) / "pid").exists)


def record_starts(monkeypatch) -> list[tuple]:
    """Keep every run request a manager sends its launcher: one per run started."""
    started: list[tuple] = []
    send = scheduler._Launcher.send

    def recording_send(launcher, request):
        if request[0] == "run":
            started.append(request)
        return send(launcher, request)

    monkeypatch.setattr(scheduler._Launcher, "send", recording_send)
    return started


def record_popen(monkeypatch) -> list[subprocess.Popen]:
    """Keep every process that `subprocess.Popen` starts."""
    started: list[subprocess.Popen] = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started


def record_start_modes(monkeypatch) -> list[str]:
    """Keep the start mode the launcher reports for each run that ends."""
    modes: list[str] = []
    read = scheduler._Launcher.read

    def recording_read(launcher):
        ended = read(launcher)
        modes.extend(task.start_mode for task, _ in ended)
        return ended

    monkeypatch.setattr(scheduler._Launcher, "read", recording_read)
    return modes


def qoi_frame(campaign: Campaign) -> str:
    rows = campaign.store._conn.execute(
        "SELECT run_id, qoi, values_json FROM qoi_values ORDER BY run_id, qoi"
    ).fetchall()
    return json.dumps([tuple(r) for r in rows])


# a callable app that does what the echo campaign's `cp` does
ECHO_MODULE = """
import shutil
def main(argv):
    shutil.copy(argv[0], "out.csv")
"""


class TestExecutorEquivalence:
    def test_qoi_frames_bitwise_identical(self, tmp_path, module_dir):
        (module_dir / "echoapp.py").write_text(ECHO_MODULE)
        frames = {}
        for cores in (1, 3, 4):
            for app in ("cp", "echoapp:main"):
                base = tmp_path / f"cores{cores}-{app.partition(':')[0]}"
                base.mkdir()
                campaign = echo_campaign(base, workdir_name="camp",
                                         callable=None if app == "cp" else app)
                summary = execute_campaign(campaign, RunPlan(cores=cores))
                assert summary.ok
                frames[cores, app] = qoi_frame(campaign)
        assert len(set(frames.values())) == 1, frames

    def test_uq_never_imports_the_callables_module(self, tmp_path, module_dir, monkeypatch):
        # importable here too, and still only the workers import it
        (module_dir / "echoapp.py").write_text(ECHO_MODULE)
        monkeypatch.syspath_prepend(str(module_dir))
        campaign = echo_campaign(tmp_path, callable="echoapp:main")
        assert execute_campaign(campaign, RunPlan(cores=2)).ok
        assert campaign.store.status_counts()["COLLATED"] == 10
        assert "echoapp" not in sys.modules

    @pytest.mark.parametrize("run_options",
                             [[], ["--executor", "pilotjob", "--allocation-cores", "2"]],
                             ids=["serial", "pilotjob"])
    def test_the_toy_started_warm_equals_the_toy_executed(
            self, tmp_path, demo_config_path, warm_pythonpath, console_scripts, monkeypatch,
            run_options):
        # The demo at level 1 three times: the toy executed through
        # `uq-toy`, wrapped to log each start; started warm by `python -m`;
        # and called as `uqpilot.toy:main` on workers, as the demo's config
        # says. `uq run` starts the launcher alone, which reports how it
        # started each run. The warm runs share one launcher, so later runs
        # start with the modules earlier ones taught it; the called ones share
        # workers. Each run's stdout, stderr and deaths.csv, the files a warm
        # run's fast exit and a worker must flush, equal the executed run's.
        log = tmp_path / "uq-toy.log"
        logged = tmp_path / "logged"
        logged.mkdir()
        (logged / "uq-toy").write_text(
            f'#!/bin/sh\necho "$$" >> "{log}"\nexec "{console_scripts / "uq-toy"}" "$@"\n')
        (logged / "uq-toy").chmod(0o755)
        monkeypatch.setenv("PATH", os.pathsep.join((str(logged), os.environ["PATH"])))
        started = record_popen(monkeypatch)
        modes = record_start_modes(monkeypatch)
        doc = json.loads(demo_config_path.read_text())
        command_app = {k: v for k, v in doc["app"].items() if k != "callable"}
        apps = {"exec": command_app,
                "warm": {**command_app,
                         "command": [sys.executable, "-m", "uqpilot.toy", "input.json"]},
                "worker": doc["app"]}
        assert doc["app"]["command"][0] == "uq-toy"
        assert doc["app"]["callable"] == "uqpilot.toy:main"
        frames = {}
        for mode, app in apps.items():
            config = demo_config_path.with_name(f"{mode}.json")
            config.write_text(json.dumps({**doc, "app": app}))
            with Campaign.create(config, tmp_path / mode) as campaign:
                campaign.add_stage(SamplerSpec("sc", level=1, growth="exp2", sparse=True))
            started.clear()
            modes.clear()
            assert uq.main(["run", "--workdir", str(tmp_path / mode), *run_options]) == uq.EXIT_OK
            assert [p.args[:2] for p in started] == [[sys.executable, str(scheduler.LAUNCHER)]]
            assert modes == [mode] * 13
            # the toys the exec mode started; the others start none
            assert len(log.read_text().split()) == 13
            with Campaign.open(tmp_path / mode) as campaign:
                frames[mode] = qoi_frame(campaign)
        assert len(json.loads(frames["exec"])) == 13
        assert frames["warm"] == frames["exec"] == frames["worker"]
        for pattern, count in (("runs/*/run.std*", 26), ("runs/*/deaths.csv", 13)):
            names = sorted(p.relative_to(tmp_path / "exec")
                           for p in (tmp_path / "exec").glob(pattern))
            assert len(names) == count, names
            for mode in ("warm", "worker"):
                assert names == sorted(p.relative_to(tmp_path / mode)
                                       for p in (tmp_path / mode).glob(pattern))
                for name in names:
                    assert (tmp_path / "exec" / name).read_bytes() == \
                        (tmp_path / mode / name).read_bytes(), (mode, name)
