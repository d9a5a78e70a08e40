import json
import threading
import time

import pytest

from uqpilot.errors import (
    AlreadyTerminal,
    BindError,
    JobNotFound,
    ParseError,
    ValidationError,
)
from uqpilot.pilotjob.jobs import Allocation, JobSpec
from uqpilot.pilotjob.manager import load_batch, run_batch
from uqpilot.pilotjob.protocol import ManagerServer, PjClient
from uqpilot.pilotjob.scheduler import PilotManager


def sim_manager(cores: int, tmp_path) -> PilotManager:
    return PilotManager(Allocation.virtual(cores), workdir=tmp_path, clock="simulated")


def sim_job(name, duration=1.0, cores=1, **kw):
    return JobSpec(name=name, command=(), duration=duration, cores=cores, **kw)


class TestAllocation:
    def test_total_cores(self):
        a = Allocation((("n0", 4), ("n1", 4)), mode="virtual")
        assert a.total_cores == 8

    def test_local_cap(self, monkeypatch):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "2")
        with pytest.raises(ValidationError):
            Allocation.local(9)   # cap is 4 x 2
        assert Allocation.local(8).total_cores == 8

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "16")
        assert Allocation.local().total_cores == 16

    def test_needs_a_core(self):
        with pytest.raises(ValidationError):
            Allocation((("n0", 0),), mode="virtual")


class TestSubmitValidation:
    def test_unknown_dependency(self, tmp_path):
        m = sim_manager(2, tmp_path)
        with pytest.raises(ValidationError, match="nonexistent"):
            m.submit(sim_job("a", after=("nonexistent",)))

    def test_duplicate_name(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.submit(sim_job("a"))
        with pytest.raises(ValidationError, match="duplicate"):
            m.submit(sim_job("a"))

    def test_cores_exceed_allocation(self, tmp_path):
        m = sim_manager(2, tmp_path)
        with pytest.raises(ValidationError, match="cores"):
            m.submit(sim_job("big", cores=3))

    def test_simulated_needs_duration(self, tmp_path):
        m = sim_manager(2, tmp_path)
        with pytest.raises(ValidationError, match="duration"):
            m.submit(JobSpec(name="a", command=("true",)))


class TestSimulatedScheduling:
    def test_backfill_when_head_blocked(self, tmp_path):
        # 4 cores: x occupies 2 for a while, head job a wants all 4 and
        # blocks; b (2 cores) behind it must backfill into the free half
        m = sim_manager(4, tmp_path)
        m.submit(sim_job("x", duration=10.0, cores=2))
        m.submit(sim_job("a", duration=1.0, cores=4))
        m.submit(sim_job("b", duration=1.0, cores=2))
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        b_start = jobs["b"]["iterations"][0]["start"]
        a_start = jobs["a"]["iterations"][0]["start"]
        assert b_start == 0.0          # backfilled immediately
        assert a_start == 10.0         # waited for x to release cores

    def test_two_identical_jobs_start_together(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.submit(sim_job("a"))
        m.submit(sim_job("b"))
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        assert jobs["a"]["iterations"][0]["start"] == 0.0
        assert jobs["b"]["iterations"][0]["start"] == 0.0

    def test_no_dispatch_when_all_busy(self, tmp_path):
        m = sim_manager(1, tmp_path)
        m.submit(sim_job("a", duration=5.0))
        m.submit(sim_job("b", duration=1.0))
        snapshot = m.status_snapshot()
        assert snapshot["free_cores"] == 0
        assert m.job_snapshot("b")["status"] == "QUEUED"
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        assert jobs["b"]["iterations"][0]["start"] == 5.0

    def test_dependency_ordering(self, tmp_path):
        m = sim_manager(4, tmp_path)
        m.submit(sim_job("first", duration=2.0))
        m.submit(sim_job("second", duration=1.0, after=("first",)))
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        assert jobs["second"]["iterations"][0]["start"] >= jobs["first"]["iterations"][0]["end"]

    def test_iterations_sequential(self, tmp_path):
        m = sim_manager(4, tmp_path)
        m.submit(sim_job("loop", duration=1.0, iterations=3))
        m.drain()
        its = m.job_snapshot("loop")["iterations"]
        assert [t["status"] for t in its] == ["SUCCEEDED"] * 3
        for prev, cur in zip(its, its[1:]):
            assert cur["start"] >= prev["end"]

    def test_parallel_iterations_flag(self, tmp_path):
        m = sim_manager(4, tmp_path)
        m.submit(sim_job("par", duration=1.0, iterations=3, parallel_iterations=True))
        m.drain()
        its = m.job_snapshot("par")["iterations"]
        assert all(t["start"] == 0.0 for t in its)

    def test_capacity_never_exceeded(self, tmp_path):
        m = sim_manager(3, tmp_path)
        for i in range(20):
            m.submit(sim_job(f"j{i}", duration=float(1 + i % 3), cores=1 + i % 2))
        m.drain()
        trace = m.dispatch_trace()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        busy = 0
        for _, event, name, _ in trace:
            cores = jobs[name]["cores"]
            busy += cores if event == "start" else -cores
            assert busy <= 3
        assert busy == 0

    def test_liveness_every_task_terminal(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.submit(sim_job("ok", duration=1.0))
        m.submit(sim_job("chained", duration=1.0, after=("ok",), iterations=2))
        m.drain()
        for job in m.report()["jobs"]:
            for it in job["iterations"]:
                assert it["status"] in ("SUCCEEDED", "FAILED", "CANCELED", "OMITTED")

    def test_deterministic_dispatch_trace(self, tmp_path):
        def build():
            m = sim_manager(5, tmp_path)
            for i in range(30):
                m.submit(sim_job(f"j{i}", duration=float(1 + (i * 7) % 4),
                                 cores=1 + (i * 3) % 3))
            m.drain()
            return m.dispatch_trace()

        assert build() == build()

    def test_no_starvation_head_bounded_by_horizon(self, tmp_path):
        # adversarial: head wants the full allocation while small jobs
        # stream through; head must start once everything ahead drains
        m = sim_manager(4, tmp_path)
        m.submit(sim_job("wall", duration=3.0, cores=2))
        m.submit(sim_job("head", duration=1.0, cores=4))
        for i in range(10):
            m.submit(sim_job(f"small{i}", duration=1.0, cores=1))
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        head_start = jobs["head"]["iterations"][0]["start"]
        horizon = max(
            j["iterations"][0]["end"]
            for name, j in jobs.items()
            if name != "head" and j["iterations"][0]["start"] < head_start
        )
        assert head_start <= horizon + 1e-9

    def test_overhead_zero_for_uniform_jobs(self, tmp_path):
        m = sim_manager(16, tmp_path)
        for i in range(64):
            m.submit(sim_job(f"j{i}"))
        m.drain()
        report = m.report()
        assert report["makespan"] == pytest.approx(4.0)
        assert report["overhead"] == pytest.approx(0.0, abs=1e-9)


class TestCancel:
    def test_cancel_queued(self, tmp_path):
        m = sim_manager(1, tmp_path)
        m.submit(sim_job("runner", duration=5.0))
        m.submit(sim_job("victim", duration=1.0))
        m.cancel("victim")
        m.drain()
        job = m.job_snapshot("victim")
        assert job["status"] == "CANCELED"
        assert job["iterations"][0]["start"] is None   # zero resource usage

    def test_cancel_cascades_to_dependents(self, tmp_path):
        m = sim_manager(1, tmp_path)
        m.submit(sim_job("runner", duration=5.0))
        m.submit(sim_job("victim", duration=1.0))
        m.submit(sim_job("dep1", duration=1.0, after=("victim",)))
        m.submit(sim_job("dep2", duration=1.0, after=("victim",)))
        m.cancel("victim")
        m.drain()
        assert m.job_snapshot("dep1")["status"] == "OMITTED"
        assert m.job_snapshot("dep2")["status"] == "OMITTED"

    def test_cancel_terminal_rejected(self, tmp_path):
        m = sim_manager(1, tmp_path)
        m.submit(sim_job("done", duration=1.0))
        m.drain()
        with pytest.raises(AlreadyTerminal):
            m.cancel("done")

    def test_cancel_unknown(self, tmp_path):
        m = sim_manager(1, tmp_path)
        with pytest.raises(JobNotFound):
            m.cancel("ghost")

    def test_submit_after_canceled_dependency_is_omitted(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.submit(sim_job("a"))
        m.submit(sim_job("b", cores=2))
        m.cancel("b")
        m.submit(sim_job("c", after=("b",)))
        m.submit(sim_job("d", after=("c", "a")))
        m.drain()
        status = {j["name"]: j["status"] for j in m.report()["jobs"]}
        assert status == {"a": "SUCCEEDED", "b": "CANCELED", "c": "OMITTED", "d": "OMITTED"}
        assert m.job_snapshot("c")["iterations"][0]["start"] is None

    def test_cancel_executing_wall_clock(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="sleeper", command=("sleep", "30")))
        deadline = time.time() + 5
        while m.job_snapshot("sleeper")["status"] != "EXECUTING":
            assert time.time() < deadline
            time.sleep(0.01)
        m.cancel("sleeper")
        m.drain()
        assert m.job_snapshot("sleeper")["status"] == "CANCELED"


class TestFailurePropagation:
    def test_failed_dependency_omits(self, tmp_path):
        m = PilotManager(Allocation.virtual(2), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="bad", command=("false",)))
        m.submit(JobSpec(name="child", command=("true",), after=("bad",)))
        m.submit(JobSpec(name="grandchild", command=("true",), after=("child",)))
        m.drain()
        assert m.job_snapshot("bad")["status"] == "FAILED"
        assert m.job_snapshot("child")["status"] == "OMITTED"
        assert m.job_snapshot("grandchild")["status"] == "OMITTED"

    def test_failed_iteration_omits_rest(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="flaky", command=("false",), iterations=3))
        m.drain()
        its = m.job_snapshot("flaky")["iterations"]
        assert [t["status"] for t in its] == ["FAILED", "OMITTED", "OMITTED"]

    def test_parallel_job_with_mixed_outcomes_omits_dependents(self, tmp_path):
        # iteration 0 fails (its stdout path is a directory), iteration 1
        # succeeds and ends last: the job is FAILED once both have ended
        (tmp_path / "out.0").mkdir()
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="p", command=("true",), iterations=2,
                         parallel_iterations=True, stdout="out"))
        m.submit(JobSpec(name="d", command=("true",), after=("p",)))
        drainer = threading.Thread(target=m.drain, daemon=True)
        drainer.start()
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        its = m.job_snapshot("p")["iterations"]
        assert [(t["status"], t["exit_code"]) for t in its] == [("FAILED", 127), ("SUCCEEDED", 0)]
        assert m.job_snapshot("p")["status"] == "FAILED"
        assert m.job_snapshot("d")["status"] == "OMITTED"

    def test_unwritable_output_path_fails_the_task(self, tmp_path):
        # the log directory cannot be made: the task fails instead of
        # leaving drain() waiting on a worker thread that died
        (tmp_path / "afile").write_text("")
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=("true",), stdout="afile/out"))
        m.submit(JobSpec(name="b", command=("true",)))
        drainer = threading.Thread(target=m.drain, daemon=True)
        drainer.start()
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert m.job_snapshot("a")["iterations"][0]["exit_code"] == 127
        assert m.job_snapshot("a")["status"] == "FAILED"
        assert m.job_snapshot("b")["status"] == "SUCCEEDED"


    def test_submit_after_failed_dependency_drains(self, tmp_path):
        # the dependency has already ended FAILED when the dependent
        # arrives: it is omitted at once, so a wall-clock drain returns
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="bad", command=("false",)))
        deadline = time.time() + 10
        while m.job_snapshot("bad")["status"] != "FAILED":
            assert time.time() < deadline
            time.sleep(0.01)
        m.submit(JobSpec(name="late", command=("true",), after=("bad",)))
        drainer = threading.Thread(target=m.drain, daemon=True)
        drainer.start()
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        assert m.job_snapshot("late")["status"] == "OMITTED"


class TestBatchMode:
    def test_zero_jobs(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "allocation": {"mode": "virtual", "nodes": [{"name": "n", "cores": 2}]},
            "jobs": [],
        }))
        report = run_batch(batch, workdir=tmp_path)
        assert report["jobs"] == []
        assert report["makespan"] == 0.0
        assert (tmp_path / "pj-report.json").is_file()

    def test_single_echo_job(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "allocation": {"mode": "virtual", "nodes": [{"name": "n", "cores": 1}]},
            "jobs": [{"name": "hello", "command": ["echo", "hi"]}],
        }))
        report = run_batch(batch, workdir=tmp_path)
        assert report["jobs"][0]["status"] == "SUCCEEDED"
        assert (tmp_path / "pj-logs" / "hello.stdout").read_text().strip() == "hi"

    def test_duplicate_names_named_in_error(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "jobs": [
                {"name": "dup", "command": ["true"]},
                {"name": "dup", "command": ["true"]},
            ],
        }))
        with pytest.raises(ParseError, match="dup"):
            load_batch(batch)

    def test_malformed_batch(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text("{not json")
        with pytest.raises(ParseError):
            load_batch(batch)

    def test_utilization_integral_identity(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "allocation": {"mode": "virtual", "nodes": [{"name": "n", "cores": 4}]},
            "jobs": [
                {"name": f"j{i}", "command": [], "duration": 1.0 + i, "cores": 1 + i % 2}
                for i in range(6)
            ],
        }))
        report = run_batch(batch, workdir=tmp_path, clock="simulated")
        trace = report["utilization"]
        integral = sum(
            busy * (t_next - t)
            for (t, busy), (t_next, _) in zip(trace, trace[1:])
        )
        expected = sum(
            it["cores"] * (it["end"] - it["start"])
            for j in report["jobs"] for it in j["iterations"]
        )
        assert integral == pytest.approx(expected, abs=1e-9)

    def test_single_job_overhead_definition(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "allocation": {"mode": "virtual", "nodes": [{"name": "n", "cores": 2}]},
            "jobs": [{"name": "only", "command": [], "duration": 3.0}],
        }))
        report = run_batch(batch, workdir=tmp_path, clock="simulated")
        runtime = report["jobs"][0]["iterations"][0]["end"] - report["jobs"][0]["iterations"][0]["start"]
        assert report["overhead"] == pytest.approx(report["makespan"] - runtime)
        assert report["overhead"] >= 0


class TestSocketInterface:
    def test_submit_status_cancel_finish(self, tmp_path):
        m = PilotManager(Allocation.virtual(2), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address) as client:
                assert client.call("submit", {"name": "a", "command": ["true"]}) == {
                    "name": "a"
                }
                data = client.call("status", {"name": "a"})
                assert data["name"] == "a"
                summary = client.call("status")
                assert summary["jobs"] == 1
                resources = client.call("resources")
                assert resources["total_cores"] == 2
                finish = client.call("finish")
                assert finish["finished"] is True
        finally:
            server.stop()

    def test_finish_waits_past_the_client_timeout(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address, timeout=0.5) as client:
                client.call("submit", {"name": "slow", "command": ["sleep", "1.5"]})
                finish = client.call("finish")
            assert finish["finished"] is True
            assert finish["jobs"] == 1
            assert server.report["jobs"][0]["status"] == "SUCCEEDED"
            assert finish["makespan"] >= 1.5
        finally:
            server.stop()

    def test_unknown_command_code(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address) as client:
                response = client.request("frobnicate")
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown-command"
        finally:
            server.stop()

    def test_validation_error_code(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address) as client:
                response = client.request(
                    "submit", {"name": "x", "command": ["true"], "after": ["ghost"]}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "validation"
                response = client.request("status", {"name": "nope"})
                assert response["error"]["code"] == "not-found"
        finally:
            server.stop()

    def test_request_ids_echoed(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address) as client:
                response = client.request("resources")
                assert response["id"] == 1
                response = client.request("resources")
                assert response["id"] == 2
        finally:
            server.stop()

    def test_bind_error(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            m2 = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
            with pytest.raises(BindError):
                ManagerServer(m2, host=server.host, port=server.port)
        finally:
            server.stop()

    def test_no_submissions_after_finish(self, tmp_path):
        m = PilotManager(Allocation.virtual(1), workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(*server.address) as client:
                client.call("finish")
            with pytest.raises(Exception):
                m.submit(JobSpec(name="late", command=("true",)))
        finally:
            server.stop()


class TestWallClockMidRun:
    def test_free_cores_while_executing(self, tmp_path):
        m = PilotManager(Allocation.virtual(4), workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="busy", command=("sleep", "1"), cores=2))
        deadline = time.time() + 5
        while m.job_snapshot("busy")["status"] != "EXECUTING":
            assert time.time() < deadline
            time.sleep(0.01)
        assert m.resources_snapshot()["free_cores"] == 2
        m.drain()
        assert m.resources_snapshot()["free_cores"] == 4
