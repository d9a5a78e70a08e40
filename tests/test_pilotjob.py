import ast
import importlib.util
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
from uqpilot.pilotjob import launcher, scheduler
from uqpilot.pilotjob.jobs import TERMINAL, JobSpec, detected_cores
from uqpilot.pilotjob.manager import load_batch, run_batch, write_report
from uqpilot.pilotjob.protocol import ManagerServer, PjClient
from uqpilot.pilotjob.scheduler import PilotManager


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

    def test_wall_clock_needs_a_command(self, tmp_path):
        # a duration makes an empty command a valid job, for the simulated clock only
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        with pytest.raises(ValidationError, match="needs a command"):
            m.submit(sim_job("a"))
        drained(m)


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
        # the log directory cannot be made: the task fails with exit 127,
        # and the launcher goes on to start the next one
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


def start(server: ManagerServer) -> ManagerServer:
    """Serve `server` from a thread of the test's, as `pj serve --socket`
    serves it from its main thread."""
    server.thread = threading.Thread(target=server.serve_until_finished, daemon=True)
    server.thread.start()
    return server


def stop(server: ManagerServer):
    """Finish `server` unless a client has, and wait for its thread to end."""
    if server.report is None:
        with PjClient(server.path, timeout=30) as client:
            client.request("finish")
    server.thread.join(timeout=30)
    assert not server.thread.is_alive(), "server did not stop"


class TestSocketInterface:
    def test_submit_status_cancel_finish(self, tmp_path):
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
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
            stop(server)

    def test_finish_waits_past_the_client_timeout(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            with PjClient(server.path, timeout=0.5) as client:
                client.call("submit", {"name": "slow", "command": ["sleep", "1.5"]})
                finish = client.call("finish")
            assert finish["finished"] is True
            assert finish["jobs"] == 1
            assert server.report["jobs"][0]["status"] == "SUCCEEDED"
            assert finish["makespan"] >= 1.5
        finally:
            stop(server)

    def test_a_cancel_is_answered_while_a_finish_waits(self, tmp_path):
        # the finish of one client drains the manager; another client's
        # cancel is answered meanwhile, and ends the drain early
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            with PjClient(server.path) as first, PjClient(server.path) as second:
                first.call("submit", {"name": "sh", "command": ["sh", "-c", SH_SLEEP],
                                      "workdir": str(tmp_path)})
                sleep = sleep_of(tmp_path)
                finished = {}
                finisher = threading.Thread(
                    target=lambda: finished.update(first.call("finish")), daemon=True)
                finisher.start()
                duplicate = {"name": "sh", "command": ["true"]}
                wait_for(lambda: "finishing" in
                         second.request("submit", duplicate)["error"]["message"])
                assert second.call("status", {"name": "sh"})["status"] == "EXECUTING"
                assert finisher.is_alive()
                assert second.call("cancel", {"name": "sh"})["name"] == "sh"
                finisher.join(timeout=10)
                assert not finisher.is_alive()
            assert finished["finished"] is True and finished["makespan"] < 10
            assert server.report["jobs"][0]["status"] == "CANCELED"
            wait_for(lambda: not running(sleep), timeout=5)
        finally:
            stop(server)

    def test_unknown_command_code(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            with PjClient(server.path) as client:
                response = client.request("frobnicate")
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown-command"
        finally:
            stop(server)

    def test_validation_error_code(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
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
            stop(server)

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
        server = start(ManagerServer(PilotManager(1, workdir=tmp_path, clock="wall")))
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
            stop(server)

    def test_request_ids_echoed(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            with PjClient(server.path) as client:
                response = client.request("status")
                assert response["id"] == 1
                response = client.request("status")
                assert response["id"] == 2
        finally:
            stop(server)

    def test_bind_error(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            m2 = PilotManager(1, workdir=tmp_path, clock="wall")
            with pytest.raises(BindError, match=str(server.path)):
                ManagerServer(m2)
            # the refused second server leaves the first one's socket alone
            with PjClient(server.path) as client:
                assert client.call("status")["total_cores"] == 1
        finally:
            stop(server)
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
        server = start(ManagerServer(m))
        try:
            mode = server.path.stat().st_mode
            assert stat.S_ISSOCK(mode)
            assert stat.S_IMODE(mode) == 0o600
            with PjClient(server.path) as client:
                client.call("finish")
        finally:
            stop(server)
        assert not server.path.exists()

    def test_no_submissions_after_finish(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        server = start(ManagerServer(m))
        try:
            with PjClient(server.path) as client:
                client.call("finish")
            with pytest.raises(Exception):
                m.submit(JobSpec(name="late", command=("true",)))
        finally:
            stop(server)


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
with open("/proc/self/cmdline", "rb") as src, open("cmdline", "wb") as dst:
    dst.write(src.read())
with open("seen", "w") as fh:
    fh.write(repr(os.environ.get("WARM_TEST")))
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
if mode == "import":
    import onpath
    with open("imported", "w") as fh:
        fh.write(onpath.__file__)
if mode == "burn":
    start = time.process_time()
    while time.process_time() - start < 0.25:
        pass
if mode == "preloaded":   # which of the named modules the run starts with; then import them
    print([name in sys.modules for name in sys.argv[2:]])
    for name in sys.argv[2:]:
        __import__(name)
if mode == "state":
    import random, tempfile
    print(random.random(), os.path.basename(tempfile.mktemp(dir=".")))
if mode == "closerange":   # the files reuse the lowest fds, the launcher pipe's number among them
    os.closerange(3, 1024)
    for i in range(32):
        os.write(os.open(f"f{i}", os.O_WRONLY | os.O_CREAT | os.O_TRUNC), b"intact")
# the modes below leave their mark, if any, in the file "left"
if mode == "global-file":   # written, never closed
    left = open("left", "w")
    left.write("a global's file\\n")
if mode == "cycle-file":   # held only by a cycle, which a global holds
    cycle = [open("left", "w")]
    cycle.append(cycle)
    cycle[0].write("a cycle's file\\n")
if mode == "garbage-file":   # held only by a garbage cycle: its text is lost
    garbage = [open("left", "w")]
    garbage.append(garbage)
    garbage[0].write("a garbage cycle's file\\n")
    del garbage
if mode in ("del", "del-raise"):
    import atexit

    class Noisy:
        def __del__(self):
            sys.stdout.write("finalized\\n")   # a global: still there as the module is freed

    def goodbye():
        print("atexit")

    noisy = Noisy()
    atexit.register(goodbye)   # holds the module's globals until every atexit call is made
    if mode == "del-raise":
        raise ValueError("raised")   # its traceback holds them too
if mode == "atexit":
    import atexit

    def first():
        print("registered first, called last")

    def second():
        print("registered second, called first")

    atexit.register(first)
    atexit.register(second)
if mode == "thread":   # a non-daemon thread outlives the module
    import threading

    def late():
        time.sleep(0.2)
        with open("left", "w") as fh:
            fh.write("the thread's\\n")

    threading.Thread(target=late).start()
if mode == "daemon":   # halted before any module is freed: it never writes "left"
    import threading

    # `main` keeps the module alive, so that freeing it clears its globals
    def late(main, freeing, written, open=open):
        freeing.acquire()
        with open("left", "w") as fh:
            fh.write("the daemon's\\n")
        written.release()

    class Freed:   # locks, not events: the teardown may have cleared `threading` by now
        def __init__(self):
            self.locks = threading.Lock(), threading.Lock()
            for lock in self.locks:
                lock.acquire()

        def __del__(self):
            freeing, written = self.locks
            freeing.release()
            written.acquire(timeout=0.3)

    freed = Freed()
    threading.Thread(target=late, args=(sys.modules[__name__], *freed.locks), daemon=True).start()
if mode == "c-printf":   # text in C's stdio buffer, which only the C library's exit flushes
    import ctypes
    ctypes.CDLL(None).printf(b"from C")
if mode == "kbi":
    raise KeyboardInterrupt
if mode == "atexit-clear":   # every atexit call removed: the interpreter's full exit
    import atexit
    atexit._clear()
    left = open("left", "w")
    left.write("a global's file\\n")
if mode == "preloaded-exit":   # the atexit call of a module the launcher may have preloaded
    print(["logging" in sys.modules])
    import logging.handlers
    target = logging.FileHandler("left")
    handler = logging.handlers.MemoryHandler(100, flushLevel=logging.CRITICAL, target=target)
    logging.getLogger().addHandler(handler)
    logging.getLogger().warning("buffered until logging.shutdown")
if mode == "hang-on-os":   # an object the run hangs on a module the launcher has
    class Hung:
        def __del__(self, open=open):   # the module's globals may be gone by then
            with open("left", "w") as fh:
                fh.write("finalized\\n")

    os.hung = Hung()
""" % SH_SLEEP


def warm_command(*args) -> tuple[str, ...]:
    return (sys.executable, "-m", "warmmod", *args)


def warm_job(directory: Path, name="w", *args, **kw) -> JobSpec:
    """A job running WARM_MODULE from `directory`, with its logs there."""
    directory.mkdir(exist_ok=True)
    (directory / "warmmod.py").write_text(WARM_MODULE)
    return JobSpec(name=name, command=warm_command(*args), workdir=str(directory),
                   stdout="out", stderr="err", **kw)


def started_warm(directory: Path) -> bool:
    """Whether the run in `directory` was forked from the launcher, whose
    command line it keeps, rather than executed."""
    return str(scheduler.LAUNCHER).encode() in (directory / "cmdline").read_bytes()


def start_mode(m: PilotManager, name: str) -> str | None:
    """How the launcher reported starting job `name`'s first task."""
    return m._jobs[name].tasks[0].start_mode


class TestProcessGroups:
    def test_cancel_kills_the_whole_group(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="sh", command=("sh", "-c", SH_SLEEP), workdir=str(tmp_path)))
        sleep = sleep_of(tmp_path)
        m.cancel("sh")
        m.drain()
        assert m.job_snapshot("sh")["status"] == "CANCELED"
        wait_for(lambda: not running(sleep), timeout=5)

    def test_a_run_that_ignores_sigterm_is_killed_after_the_grace_period(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler, "CANCEL_GRACE_SECONDS", 0.2)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="sh", command=("sh", "-c", "trap '' TERM; " + SH_SLEEP),
                         workdir=str(tmp_path)))
        sleep = sleep_of(tmp_path)
        m.cancel("sh")
        drained(m)
        its = m.job_snapshot("sh")["iterations"]
        assert (its[0]["status"], its[0]["exit_code"]) == ("CANCELED", -signal.SIGKILL)
        wait_for(lambda: not running(sleep), timeout=5)

    def test_cancel_kills_the_group_of_a_warm_run(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sh-sleep"))
        sleep = sleep_of(tmp_path)
        assert started_warm(tmp_path)
        m.cancel("w")
        m.drain()
        assert m.job_snapshot("w")["iterations"][0]["exit_code"] == -signal.SIGTERM
        wait_for(lambda: not running(sleep), timeout=5)

    def test_a_warm_run_canceled_at_once_leaves_no_group(self, tmp_path, warm_pythonpath):
        # the launcher puts a forked child in its group before it reports the
        # start, so the SIGTERM that follows finds the group
        pids = []

        class Groups(dict):
            def __setitem__(self, seq, pid):
                pids.append(pid)
                super().__setitem__(seq, pid)

        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sleep"))
        m._launcher._groups = Groups()   # no report is read before the cancel
        m.cancel("w")
        drained(m)
        its = m.job_snapshot("w")["iterations"]
        assert (its[0]["status"], its[0]["exit_code"]) == ("CANCELED", -signal.SIGTERM)
        assert start_mode(m, "w") == "warm" and len(pids) == 1
        with pytest.raises(ProcessLookupError):
            os.killpg(pids[0], 0)

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
        assert started_warm(tmp_path)
        code = m.job_snapshot("w")["iterations"][0]["exit_code"]
        return code, (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes()

    @staticmethod
    def run_warm(tmp_path, times, *args) -> list[tuple[int, bytes, bytes, bytes | None]]:
        """(exit code, stdout, stderr, the file "left" or None) of `times` warm
        runs of `args` in `tmp_path`, each started once the one before has
        ended, on one manager: each starts with the standard-library modules
        that those before it taught the launcher."""
        (tmp_path / "warmmod.py").write_text(WARM_MODULE)
        left = tmp_path / "left"
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        runs = []
        for run in map(str, range(1, times + 1)):
            left.unlink(missing_ok=True)
            m.submit(JobSpec(name=run, command=warm_command(*args), workdir=str(tmp_path),
                             stdout=f"out{run}", stderr=f"err{run}"))
            wait_for(lambda: m.job_snapshot(run)["status"] in TERMINAL)
            assert started_warm(tmp_path)
            runs.append((m.job_snapshot(run)["iterations"][0]["exit_code"],
                         (tmp_path / f"out{run}").read_bytes(),
                         (tmp_path / f"err{run}").read_bytes(),
                         left.read_bytes() if left.exists() else None))
        m.drain()
        return runs

    @staticmethod
    def executed(tmp_path, *args) -> tuple[int, bytes, bytes, bytes | None]:
        """`run_warm`'s tuple for one executed run of `args` in `tmp_path`."""
        left = tmp_path / "left"
        left.unlink(missing_ok=True)
        ref = subprocess.run(warm_command(*args), cwd=tmp_path, stdin=subprocess.DEVNULL,
                             capture_output=True)
        return ref.returncode, ref.stdout, ref.stderr, left.read_bytes() if left.exists() else None

    @pytest.mark.parametrize("mode", [
        "return", "exit3", "message", "raise", "os-exit", "global-file", "cycle-file",
        "garbage-file", "del", "del-raise", "atexit", "thread", "daemon", "c-printf", "kbi",
        "atexit-clear"])
    def test_exit_and_output_equal_an_executed_run(
            self, tmp_path, warm_pythonpath, monkeypatch, mode):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)   # it also unbuffers C's stdout
        warm = self.run_warm(tmp_path, 2, mode)
        assert warm == [self.executed(tmp_path, mode)] * 2
        assert (warm[0][0], warm[0][3]) == {
            "return": (0, None), "exit3": (3, None), "message": (1, None), "raise": (1, None),
            "os-exit": (5, None), "global-file": (0, b"a global's file\n"),
            "cycle-file": (0, b"a cycle's file\n"), "garbage-file": (0, b""), "del": (0, None),
            "del-raise": (1, None), "atexit": (0, None), "thread": (0, b"the thread's\n"),
            "daemon": (0, None), "c-printf": (0, None), "kbi": (-signal.SIGINT, None),
            "atexit-clear": (0, b"a global's file\n")}[mode]
        assert warm[0][1].endswith({
            "del": b"atexit\nfinalized\n", "del-raise": b"atexit\nfinalized\n",
            "atexit": b"registered second, called first\nregistered first, called last\n",
            "c-printf": b"from C",
        }.get(mode, b""))

    def test_a_stdout_that_cannot_be_flushed_at_exit_equals_an_executed_run(
            self, tmp_path, warm_pythonpath, monkeypatch):
        # the run's file size limit stops the flush of its buffered stdout at
        # exit: the interpreter reports it on stderr and exits 120
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        (tmp_path / "warmmod.py").write_text(
            "import os, resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
            "os.write(1, b'x' * 4096)\n"
            "sys.stdout.write('buffered')\n")
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="w", command=warm_command(), workdir=str(tmp_path),
                         stdout="out", stderr="err"))
        m.drain()
        assert start_mode(m, "w") == "warm"
        warm = (m.job_snapshot("w")["iterations"][0]["exit_code"],
                (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes())
        with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
            code = subprocess.run(warm_command(), cwd=tmp_path, stdin=subprocess.DEVNULL,
                                  stdout=out, stderr=err).returncode
        assert warm == (code, (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes())
        assert warm[0] == 120 and b"File too large" in warm[2]

    def test_atexit_calls_of_preloaded_modules_still_run(self, tmp_path, warm_pythonpath):
        # `logging.shutdown` flushes the MemoryHandler; from the second run on,
        # the launcher has preloaded `logging` and registered it before the fork
        runs = self.run_warm(tmp_path, 3, "preloaded-exit")
        assert [run[0] for run in runs] == [0] * 3
        assert [run[1].splitlines()[-1] for run in runs] == [b"[False]", b"[True]", b"[True]"]
        assert [run[3] for run in runs] == [b"buffered until logging.shutdown\n"] * 3

    def test_an_object_hung_on_a_launcher_module_is_not_finalized(
            self, tmp_path, warm_pythonpath):
        # the documented limit: freeing the launcher's modules is the teardown
        # a warm run skips; an executed run frees `os` and finalizes the object
        warm = self.run_warm(tmp_path, 1, "hang-on-os")
        assert warm[0][0] == 0 and warm[0][3] is None
        assert self.executed(tmp_path, "hang-on-os")[3] == b"finalized\n"

    def test_a_learned_standard_library_module_is_preloaded(self, tmp_path, warm_pythonpath):
        first, second = self.run_warm(tmp_path, 2, "preloaded", "argparse", "decimal")
        assert b"\n[False, False]\n" in first[1]
        assert b"\n[True, True]\n" in second[1]

    def test_random_and_tempfile_names_differ_between_runs(self, tmp_path, warm_pythonpath):
        # a fork reseeds `random` and renews tempfile's name sequence
        first, second = self.run_warm(tmp_path, 2, "state")
        assert first[0] == second[0] == 0
        random_values, temp_names = zip(first[1].split()[-2:], second[1].split()[-2:])
        assert random_values[0] != random_values[1] and temp_names[0] != temp_names[1]

    def test_a_module_that_prints_on_import_prints_in_every_run(self, tmp_path, warm_pythonpath):
        warm = self.run_warm(tmp_path, 2, "preloaded", "this")
        assert warm == [self.executed(tmp_path, "preloaded", "this")] * 2
        assert b"The Zen of Python" in warm[1][1]

    def test_a_module_that_warns_on_import_warns_in_every_run(self, tmp_path, warm_pythonpath):
        if importlib.util.find_spec("imp") is None:
            pytest.skip("no `imp` module in this Python")
        warm = self.run_warm(tmp_path, 2, "preloaded", "imp")
        assert warm == [self.executed(tmp_path, "preloaded", "imp")] * 2
        assert b"DeprecationWarning" in warm[1][2]

    def test_numpy_is_never_preloaded(self, tmp_path, warm_pythonpath):
        pytest.importorskip("numpy")
        first, second = self.run_warm(tmp_path, 2, "preloaded", "numpy")
        assert first[0] == second[0] == 0
        assert b"\n[False]\n" in second[1]

    def test_ctypes_is_never_preloaded(self, tmp_path, warm_pythonpath):
        # a run with ctypes ends through the full exit, which no other run should pay
        first, second = self.run_warm(tmp_path, 2, "preloaded", "ctypes")
        assert first[0] == second[0] == 0
        assert b"\n[False]\n" in second[1]

    def test_a_run_that_closes_and_reuses_the_launchers_fds_keeps_its_files(
            self, tmp_path, warm_pythonpath):
        assert self.run_one(tmp_path, "closerange")[0] == 0
        assert [(tmp_path / f"f{i}").read_bytes() for i in range(32)] == [b"intact"] * 32

    @pytest.mark.parametrize("module", ["select", "json"])
    def test_a_module_in_the_cwd_shadows_the_launchers(self, tmp_path, warm_pythonpath, module):
        # the launcher has `select` from its start, and `json` once the first run taught it;
        # `python -m` puts the cwd first on `sys.path`, so the run imports its own
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "teach", "teach", "preloaded", module))
        own = tmp_path / "own"
        own.mkdir()
        (own / f"{module}.py").write_text(
            "print(\"the run's\", __name__)\n"
            "def select(*args):   # all that `selectors` needs as it is imported\n"
            "    raise OSError\n")
        m.submit(warm_job(own, "own", "preloaded", module))
        m.drain()
        assert [start_mode(m, name) for name in ("teach", "own")] == ["warm", "exec"]
        warm = (m.job_snapshot("own")["iterations"][0]["exit_code"],
                (own / "out").read_bytes(), (own / "err").read_bytes())
        assert warm == self.executed(own, "preloaded", module)[:3]
        assert f"the run's {module}\n".encode() in warm[1]

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
        assert started_warm(tmp_path)
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

    def test_a_job_env_reaches_the_run(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "return", env=(("WARM_TEST", "1"),)))
        m.drain()
        assert m.job_snapshot("w")["status"] == "SUCCEEDED"
        assert (tmp_path / "seen").read_text() == "'1'"

    def test_a_changed_environment_reaches_the_next_run(self, tmp_path, warm_pythonpath,
                                                        monkeypatch):
        monkeypatch.delenv("WARM_TEST", raising=False)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "a", "a", "return"))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        monkeypatch.setenv("WARM_TEST", "1")
        m.submit(warm_job(tmp_path / "b", "b", "return"))
        monkeypatch.delenv("WARM_TEST")   # as it was when the launcher started
        m.submit(warm_job(tmp_path / "c", "c", "return"))
        m.drain()
        assert m.job_snapshot("b")["status"] == m.job_snapshot("c")["status"] == "SUCCEEDED"
        assert [(tmp_path / name / "seen").read_text() for name in "abc"] \
            == ["None", "'1'", "None"]
        assert [started_warm(tmp_path / name) for name in "abc"] == [True, False, True]

    def test_a_relative_pythonpath_entry_resolves_against_the_runs_cwd(self, tmp_path,
                                                                        monkeypatch):
        (tmp_path / "lib").mkdir()
        (tmp_path / "lib" / "onpath.py").write_text("")
        monkeypatch.setenv("PYTHONPATH", "lib")
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "import"))
        m.drain()
        assert m.job_snapshot("w")["status"] == "SUCCEEDED"
        imported = Path((tmp_path / "imported").read_text())
        assert imported.resolve() == (tmp_path / "lib" / "onpath.py").resolve()

    def test_runs_cpu_reaches_rusage_children_after_drain(self, tmp_path, warm_pythonpath):
        def children_cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu()
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for name in ("a", "b"):
            m.submit(warm_job(tmp_path / name, name, "burn"))
        m.drain()
        assert all(started_warm(tmp_path / name) for name in ("a", "b"))
        assert children_cpu() - before >= 0.5

    def test_which_modules_the_launcher_may_preload(self):
        assert launcher._preloadable("json") and launcher._preloadable("json.decoder")
        for name in ("antigravity", "idlelib.idle", "json.__main__", "numpy", "warmmod"):
            assert not launcher._preloadable(name), name

    def test_which_commands_start_warm(self, tmp_path, monkeypatch):
        # the launcher's decision, taken in this interpreter, as the launcher
        # started by this `sys.executable` takes it
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.delenv("PYTHONPATH", raising=False)

        def warm(*command, env=None):
            path = launcher._executable(command[0], env)
            return launcher._starts_warm(command, env, path, launcher._warm_python(), str(cwd))

        exe = Path(sys.executable)
        assert warm(str(exe), "-m", "mod", "arg")
        assert not warm(str(exe), "-u", "-m", "mod")
        assert not warm(str(exe), "-m")
        assert not warm(str(exe), "script.py", "-m", "mod")
        assert not warm(str(exe), "-m", "mod", env=dict(os.environ))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(tmp_path), "lib"]))
        assert not warm(str(exe), "-m", "mod")
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        assert warm(str(exe), "-m", "mod")
        monkeypatch.setenv("PATH", str(exe.parent))
        assert warm(exe.name, "-m", "mod")
        (tmp_path / exe.name).symlink_to(exe)   # the same file, not the same path
        assert not warm(str(tmp_path / exe.name), "-m", "mod")
        monkeypatch.setenv("PATH", str(tmp_path))
        assert not warm(exe.name, "-m", "mod")
        (cwd / "json.py").write_text("")   # a module this interpreter has
        assert not warm(str(exe), "-m", "mod")


class TestExecutedRuns:
    def test_ignored_signals_equal_a_subprocess_run(self, tmp_path):
        # the launcher is a Python process, which ignores SIGPIPE and SIGXFSZ.
        # glibc's posix_spawn leaves its two internal signals (32 and 33)
        # ignored, which no program on glibc can handle, so the masks are
        # compared over the signals that Python reports valid
        script = "grep SigIgn /proc/self/status > sigign"
        for name in ("run", "ref"):
            (tmp_path / name).mkdir()
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="run", command=("sh", "-c", script), workdir=str(tmp_path / "run")))
        drained(m)
        subprocess.run(["sh", "-c", script], cwd=tmp_path / "ref", check=True)
        assert m.job_snapshot("run")["status"] == "SUCCEEDED"

        def ignored(name):
            mask = int((tmp_path / name / "sigign").read_text().split()[1], 16)
            return {sig for sig in signal.valid_signals() if mask >> (sig - 1) & 1}

        assert ignored("run") == ignored("ref")

    def test_a_job_env_path_finds_the_command(self, tmp_path):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "only-here").write_text("#!/bin/sh\necho found\n")
        (bin_dir / "only-here").chmod(0o755)
        path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", os.defpath)])
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="p", command=("only-here",), env=(("PATH", path),),
                         workdir=str(tmp_path), stdout="out"))
        drained(m)
        assert m.job_snapshot("p")["iterations"][0]["exit_code"] == 0
        assert (tmp_path / "out").read_text() == "found\n"

    def test_a_run_gets_the_launchers_environment(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="env", command=("env", "-0"), workdir=str(tmp_path), stdout="out"))
        # as the launcher started, which may differ from `os.environ` here:
        # readline, say, sets LINES and COLUMNS in the C environment alone
        environ = Path(f"/proc/{m._launcher.proc.pid}/environ").read_bytes()
        drained(m)
        assert sorted((tmp_path / "out").read_bytes().split(b"\0")) == \
            sorted(environ.split(b"\0"))

    @pytest.mark.parametrize("missing", ["executable", "cwd"])
    def test_a_run_that_cannot_start_exits_127(self, tmp_path, missing):
        command = ("no-such-command-here",) if missing == "executable" else ("true",)
        workdir = tmp_path / ("no-such-dir" if missing == "cwd" else "")
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=command, workdir=str(workdir)))
        m.submit(JobSpec(name="b", command=("true",)))
        drained(m)
        assert m.job_snapshot("a")["iterations"][0]["exit_code"] == 127
        assert m.job_snapshot("b")["iterations"][0]["exit_code"] == 0


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
        assert not (tmp_path / "w" / "cmdline").exists()
        assert m._launcher.proc.returncode == 0

    def test_an_error_in_the_launcher_kills_its_runs(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path, "w", "sh-sleep"))
        sleep = sleep_of(tmp_path)
        assert started_warm(tmp_path)
        os.write(m._launcher._requests, (1).to_bytes(4, "little") + b"\xff")  # not marshal
        drained(m)
        assert m._launcher.proc.returncode == 1
        assert m.job_snapshot("w")["iterations"][0]["exit_code"] is None
        wait_for(lambda: not running(sleep), timeout=5)

    @pytest.mark.parametrize("bad", [{"env": (("A=B", "1"),)}, {"env": (("", "1"),)},
                                     {"env": (("A", "1\0"),)}, {"command": ("tr\0ue",)},
                                     {"workdir": "no\0dir"}, {"stdout": "o\0ut"}],
                             ids=["env-name-with-=", "empty-env-name", "nul-in-env-value",
                                  "nul-in-command", "nul-in-workdir", "nul-in-stdout"])
    def test_a_job_that_cannot_be_started_fails_alone(self, tmp_path, bad):
        # the launcher refuses the job's start; it and its other runs go on
        (tmp_path / "a").mkdir()
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=("sh", "-c", "echo $$ > sh.pid; sleep 0.5"),
                         workdir=str(tmp_path / "a")))
        sleep_of(tmp_path / "a")
        launcher = m._launcher
        m.submit(JobSpec(name="bad", **{"command": ("true",), **bad}))
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in ("a", "bad")] \
            == [0, 127]
        assert m._launcher is launcher and launcher.proc.returncode == 0

    def test_a_killed_launcher_leaves_no_run_behind(self, tmp_path, warm_pythonpath):
        # a SIGKILLed launcher cannot kill its runs; its reader kills their groups
        (tmp_path / "sh").mkdir()
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="sh", command=("sh", "-c", SH_SLEEP), workdir=str(tmp_path / "sh")))
        m.submit(warm_job(tmp_path / "w", "w", "sh-sleep"))
        sleeps = [sleep_of(tmp_path / "sh"), sleep_of(tmp_path / "w")]
        assert started_warm(tmp_path / "w")
        m._launcher.proc.kill()
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in ("sh", "w")] \
            == [None, None]
        wait_for(lambda: not any(running(sleep) for sleep in sleeps), timeout=5)

    def test_the_next_task_starts_a_new_launcher(self, tmp_path):
        # b waits behind a; the launcher's error fails a alone, and b starts
        # on a new launcher from the event loop that saw the old one end
        (tmp_path / "a").mkdir()
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=("sh", "-c", SH_SLEEP), workdir=str(tmp_path / "a")))
        m.submit(JobSpec(name="b", command=("true",)))
        sleep = sleep_of(tmp_path / "a")
        first = m._launcher
        os.write(first._requests, (1).to_bytes(4, "little") + b"\xff")  # not marshal
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in "ab"] == [None, 0]
        assert m._launcher is not first
        assert first.proc.returncode == 1 and first._requests == -1
        wait_for(lambda: not running(sleep), timeout=5)

    def test_an_unstartable_launcher_fails_every_task(self, tmp_path, monkeypatch):
        # every task ends as it is started, inside one dispatch pass, which
        # tries to start a launcher once
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        popens = []
        popen = subprocess.Popen

        def counting_popen(*args, **kwargs):
            popens.append(args)
            return popen(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting_popen)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="many", command=("true",), iterations=2000,
                         parallel_iterations=True))
        drained(m)
        its = m.job_snapshot("many")["iterations"]
        assert {(t["status"], t["exit_code"]) for t in its} == {("FAILED", 127)}
        assert m._launcher is None
        assert len(popens) == 1

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
        assert not (tmp_path / "cmdline").exists()

    def test_an_interrupt_as_a_report_is_taken_in_leaves_a_task_cancel_ends(
            self, tmp_path, monkeypatch):
        # a signal handler that raises in the caller's thread may cut the loop
        # off between the launcher's report of a run's end and its bookkeeping
        finish = PilotManager._finish

        def interrupted(manager, task, exit_code):
            monkeypatch.setattr(PilotManager, "_finish", finish)
            raise KeyboardInterrupt

        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=("true",)))
        monkeypatch.setattr(PilotManager, "_finish", interrupted)
        with pytest.raises(KeyboardInterrupt):
            m.drain()
        m.cancel_all()
        drained(m)
        assert m.job_snapshot("a")["status"] == "CANCELED"

    def test_a_signal_to_an_ended_run_is_ignored(self, tmp_path, warm_pythonpath):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(warm_job(tmp_path / "a", "a", "return"))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        assert m._launcher.send(("signal", 0, int(signal.SIGKILL)))   # a's task
        m.submit(warm_job(tmp_path / "b", "b", "return"))
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in "ab"] == [0, 0]
        assert started_warm(tmp_path / "b")


# a callable app: each call records what it saw in `seen`, once that is whole
CALL_MODULE = """
import os, subprocess, sys
calls = []
def main(argv):
    mode = argv[0]
    calls.append(mode)
    with open("seen.part", "w") as fh:
        fh.write(repr((os.getpid(), len(calls), sys.path, os.getcwd())))
    os.replace("seen.part", "seen")
    print("out", mode)
    print("err", mode, file=sys.stderr)
    if mode == "return3":
        return 3
    if mode == "text":
        return "not an int"
    if mode == "exit3":
        sys.exit(3)
    if mode == "message":
        sys.exit("stopped with a message")
    if mode == "raise":
        raise ValueError("raised")
    if mode == "sleep":
        with open("sh.pid", "w") as fh:   # for `sleep_of`
            fh.write(str(os.getpid()))
        subprocess.run(["sleep", "30"])
"""


def call_job(directory: Path, name: str, *argv, **kw) -> JobSpec:
    """A job calling CALL_MODULE's `main(argv)` in `directory`, its logs there."""
    directory.mkdir(exist_ok=True)
    return JobSpec(name=name, command=argv, callable="callmod:main", workdir=str(directory),
                   stdout="out", stderr="err", **kw)


def seen(directory: Path) -> tuple:
    """(worker pid, calls so far, sys.path, cwd) as the call in `directory` saw them."""
    wait_for((directory / "seen").exists)
    return ast.literal_eval((directory / "seen").read_text())


@pytest.fixture
def callmod(module_dir, monkeypatch):
    (module_dir / "callmod.py").write_text(CALL_MODULE)
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)   # a worker must flush stdout


class TestWorkers:
    @pytest.mark.parametrize("mode, code", [
        ("return", 0), ("return3", 3), ("text", 0), ("exit3", 3), ("message", 1), ("raise", 1)])
    def test_exit_code_and_output(self, tmp_path, callmod, mode, code):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "r", "r", mode))
        drained(m)
        task = m._jobs["r"].tasks[0]
        assert (task.status, task.exit_code, task.start_mode) == \
            ("SUCCEEDED" if code == 0 else "FAILED", code, "worker")
        assert (tmp_path / "r" / "out").read_text() == f"out {mode}\n"
        err = (tmp_path / "r" / "err").read_text()
        assert err.startswith(f"err {mode}\n")
        tail = {"message": "\nstopped with a message\n", "raise": "\nValueError: raised\n"}
        assert err.endswith(tail.get(mode, "\n"))
        assert ("Traceback (most recent call last)" in err) == (mode == "raise")

    def test_one_worker_imports_the_module_once_for_its_tasks(self, tmp_path, callmod):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        for k in range(3):
            m.submit(call_job(tmp_path / f"r{k}", f"r{k}", "return"))
        drained(m)
        calls = [seen(tmp_path / f"r{k}") for k in range(3)]
        assert len({pid for pid, *_ in calls}) == 1
        for k in range(3):   # flushed as each task ended, not as the worker exits
            assert (tmp_path / f"r{k}" / "out").read_text() == "out return\n"
        assert [count for _, count, *_ in calls] == [1, 2, 3]   # module state is kept
        for k, (_, _, path, cwd) in enumerate(calls):
            assert cwd == str(tmp_path / f"r{k}")
            # neither a run's directory nor the worker script's is importable
            assert not {str(tmp_path / f"r{j}") for j in range(3)} & set(path)
            assert "" not in path and str(scheduler.LAUNCHER.parent) not in path

    def test_one_worker_per_task_running_at_once(self, tmp_path, callmod):
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for k in range(6):
            m.submit(call_job(tmp_path / f"r{k}", f"r{k}", "return"))
        drained(m)
        assert len({seen(tmp_path / f"r{k}")[0] for k in range(6)}) == 2

    def test_a_task_of_another_env_retires_an_idle_worker(self, tmp_path, callmod):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "a", "a", "return"))
        m.submit(call_job(tmp_path / "b", "b", "return", env=(("CALL_TEST", "1"),)))
        wait_for(lambda: m.job_snapshot("b")["status"] in TERMINAL)
        first, second = seen(tmp_path / "a")[0], seen(tmp_path / "b")[0]
        assert first != second
        wait_for(lambda: not running(first), timeout=5)   # before the manager ends
        assert running(second)
        drained(m)
        assert not running(second)

    def test_a_killed_worker_fails_only_its_task(self, tmp_path, callmod):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "a", "a", "sleep"))
        m.submit(call_job(tmp_path / "b", "b", "return"))
        worker = seen(tmp_path / "a")[0]
        os.kill(worker, signal.SIGKILL)
        drained(m)
        its = [m.job_snapshot(n)["iterations"][0] for n in ("a", "b")]
        assert [(it["status"], it["exit_code"]) for it in its] == \
            [("FAILED", -signal.SIGKILL), ("SUCCEEDED", 0)]
        assert seen(tmp_path / "b")[0] != worker
        assert m._launcher.proc.returncode == 0

    def test_cancel_kills_the_group_of_a_worker(self, tmp_path, callmod):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "a", "a", "sleep"))
        sleep = sleep_of(tmp_path / "a")
        m.cancel("a")
        drained(m)
        its = m.job_snapshot("a")["iterations"]
        assert (its[0]["status"], its[0]["exit_code"]) == ("CANCELED", -signal.SIGTERM)
        wait_for(lambda: not running(sleep) and not running(seen(tmp_path / "a")[0]),
                 timeout=5)

    def test_the_workers_of_a_killed_launcher_die_with_it(self, tmp_path, callmod):
        # one worker idle, one busy: its group is killed by the manager, and
        # the idle one exits at EOF on its requests
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "a", "a", "return"))
        m.submit(call_job(tmp_path / "b", "b", "sleep"))
        sleep = sleep_of(tmp_path / "b")
        wait_for(lambda: m.job_snapshot("a")["status"] in TERMINAL)
        workers = [seen(tmp_path / n)[0] for n in ("a", "b")]
        m._launcher.proc.kill()
        drained(m)
        assert m.job_snapshot("b")["iterations"][0]["exit_code"] is None
        wait_for(lambda: not any(running(pid) for pid in [sleep, *workers]), timeout=5)

    def test_the_toys_results_do_not_depend_on_run_order(self, tmp_path):
        # one worker runs the same inputs forwards, then backwards; the toy's
        # noise comes from each input's seed, not from its module's state
        inputs = [{"infection_rate": 0.01 * (k + 1), "seed": k % 2 or None} for k in range(4)]
        outputs = {}
        for order in ("forwards", "backwards"):
            m = PilotManager(1, workdir=tmp_path, clock="wall")
            ks = range(4) if order == "forwards" else reversed(range(4))
            for k in ks:
                run = tmp_path / order / str(k)
                run.mkdir(parents=True)
                (run / "input.json").write_text(json.dumps(inputs[k]))
                m.submit(JobSpec(name=str(k), command=("input.json",),
                                 callable="uqpilot.toy:main", workdir=str(run)))
            drained(m)
            outputs[order] = [(tmp_path / order / str(k) / "deaths.csv").read_bytes()
                              for k in range(4)]
        assert outputs["forwards"] == outputs["backwards"]
        assert len(set(outputs["forwards"])) == 4


def test_the_manager_and_executor_start_no_thread():
    # the pilot manager, its socket service and the executor run in the
    # caller's thread: none of them may import a threading module
    import ast

    import uqpilot

    src = Path(uqpilot.__file__).parent
    for path in [*sorted((src / "pilotjob").glob("*.py")), src / "executors.py"]:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"threading", "queue", "socketserver"}, path.name
