import json
import os
import resource
import signal
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from tests.test_scheduler_equivalence import random_mix
from uqpilot.errors import (
    AlreadyTerminal,
    BindError,
    JobNotFound,
    ParseError,
    UqError,
    ValidationError,
)
from uqpilot.pilotjob import scheduler
from uqpilot.pilotjob.jobs import JobSpec, detected_cores
from uqpilot.pilotjob.manager import load_batch, run_batch, write_report
from uqpilot.pilotjob.protocol import ManagerServer, PjClient
from uqpilot.pilotjob.scheduler import PilotManager, runs_this_python_module


def sim_manager(cores: int, tmp_path) -> PilotManager:
    return PilotManager(cores, workdir=tmp_path, clock="simulated")


def sim_job(name, duration=1.0, cores=1, **kw):
    return JobSpec(name=name, command=(), duration=duration, cores=cores, **kw)


def batch_with_nodes(tmp_path, *cores):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({
        "allocation": {"mode": "virtual",
                       "nodes": [{"name": f"n{i}", "cores": c} for i, c in enumerate(cores)]},
        "jobs": [],
    }))
    return batch


class TestAllocation:
    def test_total_cores(self, tmp_path):
        assert load_batch(batch_with_nodes(tmp_path, 4, 4)) == (8, [])
        assert sim_manager(8, tmp_path).status_snapshot()["total_cores"] == 8

    def test_local_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "2")
        with pytest.raises(ValidationError):
            PilotManager(9, workdir=tmp_path, clock="wall")   # cap is 4 x 2
        assert PilotManager(8, workdir=tmp_path, clock="wall").status_snapshot()["total_cores"] == 8
        assert sim_manager(9, tmp_path).status_snapshot()["total_cores"] == 9

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", "16")
        assert detected_cores() == 16
        (tmp_path / "batch.json").write_text(json.dumps({"jobs": []}))
        assert load_batch(tmp_path / "batch.json") == (16, [])
        assert PilotManager(64, workdir=tmp_path, clock="wall").status_snapshot()["total_cores"] == 64

    def test_needs_a_core(self, tmp_path):
        with pytest.raises(ValidationError):
            sim_manager(0, tmp_path)
        with pytest.raises(ValidationError):
            load_batch(batch_with_nodes(tmp_path, 0))

    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_env_override_must_be_a_whole_number(self, monkeypatch, value):
        monkeypatch.setenv("PJ_VIRTUAL_CORES", value)
        with pytest.raises(ValidationError, match=f"PJ_VIRTUAL_CORES .* got '{value}'"):
            detected_cores()


class TestJobDocument:
    @pytest.mark.parametrize("field, value", [
        ("cores", "two"),
        ("iterations", None),
        ("after", 5),
        ("after", "a"),          # a string, not a list of names
        ("env", []),
        ("command", 5),
        ("duration", "long"),
        ("workdir", 5),
        ("cores", 2.7),          # int() would truncate it to 2 cores
        ("cores", "2"),
        ("cores", True),
        ("iterations", 2.0),
        ("parallel_iterations", "false"),   # bool() would make it True
        ("parallel_iterations", 1),
    ])
    def test_a_malformed_field_names_the_job_and_the_field(self, field, value):
        with pytest.raises(ParseError, match=f"^job 'x': bad '{field}' "):
            JobSpec.from_json({"name": "x", "command": ["true"], field: value})

    def test_well_formed_fields(self):
        spec = JobSpec.from_json({"name": "x", "command": "echo hi", "cores": 2,
                                  "after": ["a"], "env": {"K": 1}, "duration": 3,
                                  "workdir": None, "iterations": 3,
                                  "parallel_iterations": True, "mode": "ignored"})
        assert spec == JobSpec(name="x", command=("echo", "hi"), cores=2, after=("a",),
                               env=(("K", "1"),), duration=3.0, iterations=3,
                               parallel_iterations=True)


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
        m = PilotManager(1, workdir=tmp_path, clock="wall")
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
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="bad", command=("false",)))
        m.submit(JobSpec(name="child", command=("true",), after=("bad",)))
        m.submit(JobSpec(name="grandchild", command=("true",), after=("child",)))
        m.drain()
        assert m.job_snapshot("bad")["status"] == "FAILED"
        assert m.job_snapshot("child")["status"] == "OMITTED"
        assert m.job_snapshot("grandchild")["status"] == "OMITTED"

    def test_failed_iteration_omits_rest(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="flaky", command=("false",), iterations=3))
        m.drain()
        its = m.job_snapshot("flaky")["iterations"]
        assert [t["status"] for t in its] == ["FAILED", "OMITTED", "OMITTED"]

    def test_parallel_job_with_mixed_outcomes_omits_dependents(self, tmp_path):
        # iteration 0 fails (its stdout path is a directory), iteration 1
        # succeeds and ends last: the job is FAILED once both have ended
        (tmp_path / "out.0").mkdir()
        m = PilotManager(1, workdir=tmp_path, clock="wall")
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
        m = PilotManager(1, workdir=tmp_path, clock="wall")
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
        m = PilotManager(1, workdir=tmp_path, clock="wall")
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

    @pytest.mark.parametrize("jobs", [5, [5], [None]])
    def test_a_batch_needs_a_list_of_job_objects(self, tmp_path, jobs):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"jobs": jobs}))
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


class TestReportFile:
    @staticmethod
    def written(report, tmp_path) -> str:
        path = tmp_path / "report.json"
        write_report(report, path)
        return path.read_text()

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_one_job_per_line_parses_back_to_the_report(self, tmp_path, seed):
        report = random_mix(seed)[0].report()
        text = self.written(report, tmp_path)
        assert json.loads(text) == report == json.loads(json.dumps(report, indent=2))
        head, *job_lines, tail = text.splitlines()
        assert head.endswith('"jobs": [') and tail == "]}" and text.endswith("\n")
        names = [job["name"] for job in report["jobs"]]
        assert len(job_lines) == len(names)
        for line, name in zip(job_lines, names):
            assert [n for n in names if f'"name": "{n}"' in line] == [name]
        # `grep FAILED` prints exactly the failed jobs' lines
        failed = [line for line, job in zip(job_lines, report["jobs"])
                  if job["status"] == "FAILED"]
        assert failed
        assert [line for line in text.splitlines() if "FAILED" in line] == failed

    def test_a_manager_without_jobs(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.drain()
        report = m.report()
        text = self.written(report, tmp_path)
        assert json.loads(text) == report == json.loads(json.dumps(report, indent=2))
        assert text.endswith('"jobs": [\n]}\n')

    @staticmethod
    def reference_utilization(tasks, t0):
        """The trace as a sort of (time, delta) pairs, ends first within a tie."""
        events = []
        for t in tasks:
            events.append((t.start - t0, t.cores))
            events.append((t.end - t0, -t.cores))
        events.sort()
        trace = []
        busy = 0
        for when, delta in events:
            busy += delta
            if trace and abs(trace[-1][0] - when) < 1e-12:
                trace[-1][1] = busy
            else:
                trace.append([when, busy])
        return trace

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_utilization_matches_the_reference(self, seed):
        m = random_mix(seed)[0]
        tasks = [t for job in m._jobs.values() for t in job.tasks if t.end is not None]
        assert PilotManager._utilization(tasks, 0.5) == self.reference_utilization(tasks, 0.5)
        # ties, and events within 1e-12 of a step's first event or only of its last
        near = [SimpleNamespace(start=s, end=e, cores=c) for s, e, c in [
            (0.0, 1.0, 2), (0.0, 1.0, 1), (1.0, 2.0, 3), (0.6e-12, 1.0 + 0.6e-12, 1),
            (1.2e-12, 3.0, 4), (1.0 + 1.1e-12, 2.0, 1)]]
        assert PilotManager._utilization(near, 0.0) == self.reference_utilization(near, 0.0)

    def test_an_unwritable_path_is_a_toolkit_error(self, tmp_path):
        m = sim_manager(2, tmp_path)
        m.drain()
        with pytest.raises(UqError, match=f"cannot write report {tmp_path}"):
            write_report(m.report(), tmp_path)   # a directory


class TestSocketInterface:
    def test_submit_status_cancel_finish(self, tmp_path):
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path) as client:
                assert client.call("submit", {"name": "a", "command": ["true"]}) == {
                    "name": "a"
                }
                data = client.call("status", {"name": "a"})
                assert data["name"] == "a"
                summary = client.call("status")
                assert summary["jobs"] == 1
                assert summary["total_cores"] == 2
                finish = client.call("finish")
                assert finish["finished"] is True
        finally:
            server.stop()

    def test_finish_waits_past_the_client_timeout(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path, timeout=0.5) as client:
                client.call("submit", {"name": "slow", "command": ["sleep", "1.5"]})
                finish = client.call("finish")
            assert finish["finished"] is True
            assert finish["jobs"] == 1
            assert server.report["jobs"][0]["status"] == "SUCCEEDED"
            assert finish["makespan"] >= 1.5
        finally:
            server.stop()

    def test_unknown_command_code(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path) as client:
                response = client.request("frobnicate")
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown-command"
        finally:
            server.stop()

    def test_validation_error_code(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path) as client:
                response = client.request(
                    "submit", {"name": "x", "command": ["true"], "after": ["ghost"]}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "validation"
                response = client.request("status", {"name": "nope"})
                assert response["error"]["code"] == "not-found"
        finally:
            server.stop()

    @pytest.mark.parametrize("raw, message", [
        (b'[1, 2]', "request is not a JSON object: list"),
        (b'"status"', "request is not a JSON object: str"),
        (b'null', "request is not a JSON object: NoneType"),
        (b'\xff', "request is not valid JSON"),
        (b'{"cmd": "status", "payload": [1]}', "payload is not a JSON object: list"),
        (b'{"cmd": "cancel", "payload": "a"}', "payload is not a JSON object: str"),
        (b'{"cmd": "submit", "payload": {"name": "a", "command": ["true"], "cores": "two"}}',
         "job 'a': bad 'cores' 'two'"),
        (b'{"cmd": "submit", "payload": {"name": "a", "command": ["true"], "env": []}}',
         "job 'a': bad 'env' []"),
    ])
    def test_a_malformed_request_answers_a_parse_error(self, tmp_path, raw, message):
        server = ManagerServer(PilotManager(1, workdir=tmp_path, clock="wall")).start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(10)
                sock.connect(str(server.path))
                with sock.makefile("rwb") as stream:
                    for line in (raw, b'{"id": 7, "cmd": "status"}'):
                        stream.write(line + b"\n")
                        stream.flush()
                    refusal, status = (json.loads(stream.readline()) for _ in range(2))
            assert refusal["ok"] is False
            assert refusal["error"]["code"] == "parse"
            assert refusal["error"]["message"].startswith(message)
            # the connection outlives the refusal, and nothing was submitted
            assert status["id"] == 7 and status["data"]["jobs"] == 0
        finally:
            server.stop()

    def test_request_ids_echoed(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path) as client:
                response = client.request("status")
                assert response["id"] == 1
                response = client.request("status")
                assert response["id"] == 2
        finally:
            server.stop()

    def test_bind_error(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            m2 = PilotManager(1, workdir=tmp_path, clock="wall")
            with pytest.raises(BindError, match=str(server.path)):
                ManagerServer(m2)
            # the refused second server leaves the first one's socket alone
            with PjClient(server.path) as client:
                assert client.call("status")["total_cores"] == 1
        finally:
            server.stop()
        assert not server.path.exists()

    def test_socket_path_over_the_af_unix_limit(self, tmp_path):
        workdir = tmp_path / ("d" * 120)
        workdir.mkdir()
        m = PilotManager(1, workdir=workdir, clock="wall")
        with pytest.raises(BindError, match="d" * 120):
            ManagerServer(m)
        assert not (workdir / "pj.sock").exists()

    def test_socket_is_private_while_served(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            mode = server.path.stat().st_mode
            assert stat.S_ISSOCK(mode)
            assert stat.S_IMODE(mode) == 0o600
            with PjClient(server.path) as client:
                client.call("finish")
        finally:
            server.stop()
        assert not server.path.exists()

    def test_no_submissions_after_finish(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = ManagerServer(m).start()
        try:
            with PjClient(server.path) as client:
                client.call("finish")
            with pytest.raises(Exception):
                m.submit(JobSpec(name="late", command=("true",)))
        finally:
            server.stop()


class TestWallClockMidRun:
    def test_free_cores_while_executing(self, tmp_path):
        m = PilotManager(4, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="busy", command=("sleep", "1"), cores=2))
        deadline = time.time() + 5
        while m.job_snapshot("busy")["status"] != "EXECUTING":
            assert time.time() < deadline
            time.sleep(0.01)
        assert m.status_snapshot()["free_cores"] == 2
        m.drain()
        assert m.status_snapshot()["free_cores"] == 4


# --- process groups and warm starts ------------------------------------------------


def wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, "timed out"
        time.sleep(0.01)


def child_pids(pid: int) -> list[int]:
    try:
        return [int(p) for p in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except FileNotFoundError:
        return []


def running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


def sleep_of(directory: Path) -> int:
    """The `sleep` that a `sh -c 'echo $$ > sh.pid; sleep 30; ...'` in `directory` runs."""
    pid_file = directory / "sh.pid"
    wait_for(lambda: pid_file.exists() and pid_file.read_text().strip())
    sh = int(pid_file.read_text())
    wait_for(lambda: child_pids(sh))
    return child_pids(sh)[0]


SH_SLEEP = "echo $$ > sh.pid; sleep 30; echo done"

WARM_MODULE = """
import os, subprocess, sys, time
mode = sys.argv[1]
with open("ppid", "w") as fh:
    fh.write(str(os.getppid()))
print(sys.argv, sys.orig_argv, sys.path, __name__, repr(sys.stdin.read()))
print(sorted(globals()))
print("to stderr", file=sys.stderr)
if mode == "exit3":
    sys.exit(3)
if mode == "message":
    sys.exit("stopped with a message")
if mode == "raise":
    raise ValueError("raised")
if mode == "os-exit":
    sys.stdout.flush()
    os._exit(5)
if mode == "sleep":
    open("ready", "w").close()
    time.sleep(30)
if mode == "sh-sleep":
    subprocess.run(["sh", "-c", %r])
if mode == "burn":
    start = time.process_time()
    while time.process_time() - start < 0.25:
        pass
""" % SH_SLEEP


def warm_command(*args) -> tuple[str, ...]:
    return (sys.executable, "-m", "warmmod", *args)


def warm_job(directory: Path, name="w", *args, **kw) -> JobSpec:
    """A job running WARM_MODULE from `directory`, with its logs there."""
    directory.mkdir(exist_ok=True)
    (directory / "warmmod.py").write_text(WARM_MODULE)
    return JobSpec(name=name, command=warm_command(*args), workdir=str(directory),
                   stdout="out", stderr="err", **kw)


def forked_by_launcher(directory: Path) -> bool:
    return int((directory / "ppid").read_text()) != os.getpid()


class TestProcessGroups:
    def test_cancel_kills_the_whole_group(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="sh", command=("sh", "-c", SH_SLEEP), workdir=str(tmp_path)))
        sleep = sleep_of(tmp_path)
        m.cancel("sh")
        m.drain()
        assert m.job_snapshot("sh")["status"] == "CANCELED"
        wait_for(lambda: not running(sleep), timeout=5)

    def test_cancel_kills_the_group_of_a_warm_run(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sh-sleep"))
        sleep = sleep_of(tmp_path)
        assert forked_by_launcher(tmp_path)
        m.cancel("w")
        m.drain()
        assert m.job_snapshot("w")["iterations"][0]["exit_code"] == -signal.SIGTERM
        wait_for(lambda: not running(sleep), timeout=5)

    def test_no_warm_run_outlives_its_manager(self, tmp_path, warm_pythonpath):
        # the manager's process dies without draining: the launcher sees
        # its requests end and SIGKILLs the run's group
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from uqpilot.pilotjob.jobs import JobSpec\n"
            "from uqpilot.pilotjob.scheduler import PilotManager\n"
            "d = Path(sys.argv[1])\n"
            "m = PilotManager(1, workdir=d, clock='wall')\n"
            f"m.submit(JobSpec(name='w', command={warm_command('sh-sleep')!r}, workdir=str(d)))\n"
            "while not (d / 'sh.pid').exists(): time.sleep(0.01)\n"
            "time.sleep(30)\n"
        )
        (tmp_path / "warmmod.py").write_text(WARM_MODULE)
        manager = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)])
        try:
            sleep = sleep_of(tmp_path)
            assert running(sleep)
        finally:
            manager.kill()
            manager.wait(timeout=10)
        wait_for(lambda: not running(sleep), timeout=5)


class TestWarmLaunch:
    def run_one(self, tmp_path, *args):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", *args))
        m.drain()
        assert forked_by_launcher(tmp_path)
        code = m.job_snapshot("w")["iterations"][0]["exit_code"]
        return code, (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes()

    @pytest.mark.parametrize("mode", ["return", "exit3", "message", "raise", "os-exit"])
    def test_exit_and_output_equal_an_executed_run(self, tmp_path, warm_pythonpath, mode):
        warm = self.run_one(tmp_path, mode)
        ref = subprocess.run(warm_command(mode), cwd=tmp_path, stdin=subprocess.DEVNULL,
                             capture_output=True)
        assert warm == (ref.returncode, ref.stdout, ref.stderr)
        assert warm[0] == {"return": 0, "exit3": 3, "message": 1, "raise": 1, "os-exit": 5}[mode]

    def test_argv_path_name_and_stdin_are_those_of_python_m(self, tmp_path, warm_pythonpath):
        _, out, _ = self.run_one(tmp_path, "return")
        cwd = os.getcwd()
        try:
            os.chdir(tmp_path)
            directory = os.getcwd()
        finally:
            os.chdir(cwd)
        argv, orig_argv, path = [str(Path(directory) / "warmmod.py"), "return"], \
            list(warm_command("return")), directory
        assert out.decode().startswith(f"{argv} {orig_argv} [{path!r}, ")
        assert out.decode().splitlines()[0].endswith("] __main__ ''")

    def test_sigterm_on_cancel_equals_an_executed_run(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sleep"))
        wait_for((tmp_path / "ready").exists)
        m.cancel("w")
        m.drain()
        assert forked_by_launcher(tmp_path)
        warm = (m.job_snapshot("w")["iterations"][0]["exit_code"],
                (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes())
        (tmp_path / "ready").unlink()
        proc = subprocess.Popen(warm_command("sleep"), cwd=tmp_path, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wait_for((tmp_path / "ready").exists)
        proc.terminate()
        out, err = proc.communicate(timeout=10)
        assert warm == (proc.returncode, out, err)
        assert warm[0] == -signal.SIGTERM

    def test_job_env_runs_executed(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "return", env=(("WARM_TEST", "1"),)))
        m.drain()
        assert m.job_snapshot("w")["status"] == "SUCCEEDED"
        assert not forked_by_launcher(tmp_path)

    def test_changed_environment_runs_executed(self, tmp_path, warm_pythonpath, monkeypatch):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "a", "a", "return"))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        monkeypatch.setenv("WARM_TEST", "1")
        m.submit(warm_job(tmp_path / "b", "b", "return"))
        m.drain()
        assert m.job_snapshot("b")["status"] == "SUCCEEDED"
        assert forked_by_launcher(tmp_path / "a")
        assert not forked_by_launcher(tmp_path / "b")

    def test_relative_pythonpath_runs_executed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "src")
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "return"))
        m.drain()
        assert m.job_snapshot("w")["status"] == "SUCCEEDED"
        assert not forked_by_launcher(tmp_path)

    def test_runs_cpu_reaches_rusage_children_after_drain(self, tmp_path, warm_pythonpath):
        def children_cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu()
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for name in ("a", "b"):
            m.submit(warm_job(tmp_path / name, name, "burn"))
        m.drain()
        assert all(forked_by_launcher(tmp_path / name) for name in ("a", "b"))
        assert children_cpu() - before >= 0.5

    def test_which_commands_start_warm(self, tmp_path, monkeypatch):
        exe = Path(sys.executable)
        assert runs_this_python_module((str(exe), "-m", "mod", "arg"))
        assert not runs_this_python_module((str(exe), "-u", "-m", "mod"))
        assert not runs_this_python_module((str(exe), "-m"))
        assert not runs_this_python_module((str(exe), "script.py", "-m", "mod"))
        monkeypatch.setenv("PATH", str(exe.parent))
        assert runs_this_python_module((exe.name, "-m", "mod"))
        (tmp_path / "python").symlink_to(exe)   # the same file, not the same path
        assert not runs_this_python_module((str(tmp_path / "python"), "-m", "mod"))
        monkeypatch.setenv("PATH", str(tmp_path))
        assert not runs_this_python_module((exe.name, "-m", "mod"))


def drained(m: PilotManager, timeout=10.0):
    """Drain `m`, failing the test rather than hanging if it never ends."""
    drainer = threading.Thread(target=m.drain, daemon=True)
    drainer.start()
    drainer.join(timeout)
    assert not drainer.is_alive(), "drain did not return"


class TestLauncherFaults:
    def test_a_run_that_cannot_fork_exits_127(self, tmp_path, warm_pythonpath, monkeypatch):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(
            "import errno, os\n"
            "def fork():\n"
            "    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))\n"
            "os.fork = fork\n")
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(site), warm_pythonpath]))
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "w", "w", "return"))
        drained(m)
        assert m.job_snapshot("w")["iterations"][0]["exit_code"] == 127
        assert not (tmp_path / "w" / "ppid").exists()
        assert m._launcher.proc.returncode == 0

    def test_an_error_in_the_launcher_kills_its_runs(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sh-sleep"))
        sleep = sleep_of(tmp_path)
        assert forked_by_launcher(tmp_path)
        os.write(m._launcher._requests, (1).to_bytes(4, "little") + b"\xff")  # not marshal
        drained(m)
        assert m._launcher.proc.returncode == 1
        assert m.job_snapshot("w")["iterations"][0]["exit_code"] is None
        wait_for(lambda: not running(sleep), timeout=5)

    def test_an_interrupt_before_the_run_request_leaves_a_task_cancel_ends(
            self, tmp_path, warm_pythonpath, monkeypatch):
        send = scheduler._Launcher.send

        def interrupted(launcher, request):
            if request[0] == "run":
                raise KeyboardInterrupt
            return send(launcher, request)

        monkeypatch.setattr(scheduler._Launcher, "send", interrupted)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        with pytest.raises(KeyboardInterrupt):
            m.submit(warm_job(tmp_path, "w", "return"))
        m.cancel_all()
        drained(m)
        assert m.job_snapshot("w")["status"] == "CANCELED"
        assert not (tmp_path / "ppid").exists()

    def test_a_signal_to_an_ended_run_is_ignored(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "a", "a", "return"))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        assert m._launcher.send(("signal", 0, int(signal.SIGKILL)))   # a's task
        m.submit(warm_job(tmp_path / "b", "b", "return"))
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in "ab"] == [0, 0]
        assert forked_by_launcher(tmp_path / "b")
