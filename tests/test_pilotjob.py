import ast
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

from tests.test_scheduler_equivalence import TracingSim, random_mix
from uqpilot.errors import (
    AlreadyTerminal,
    BindError,
    JobNotFound,
    ParseError,
    UqError,
    ValidationError,
)
from uqpilot.pilotjob import scheduler
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
        m = TracingSim(3, workdir=tmp_path, clock="simulated")
        for i in range(20):
            m.submit(sim_job(f"j{i}", duration=float(1 + i % 3), cores=1 + i % 2))
        m.drain()
        jobs = {j["name"]: j for j in m.report()["jobs"]}
        busy = 0
        for _, event, name, _ in m.trace:
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

    def test_deterministic_dispatch_order(self, tmp_path):
        def build():
            m = TracingSim(5, workdir=tmp_path, clock="simulated")
            for i in range(30):
                m.submit(sim_job(f"j{i}", duration=float(1 + (i * 7) % 4),
                                 cores=1 + (i * 3) % 3))
            m.drain()
            return m.trace

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


# --- process groups, executed runs and workers ------------------------------------


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


def group_running(pgid: int) -> bool:
    """Whether a process of group `pgid` is alive and not a zombie. A zombie
    stays in its group until its parent reaps it, which for an orphan is
    PID 1, on its own time."""
    for path in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = path.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:   # it has gone
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def sleep_of(directory: Path) -> int:
    """The `sleep` that a `sh -c 'echo $$ > sh.pid; sleep 30; ...'` in `directory` runs."""
    pid_file = directory / "sh.pid"
    wait_for(lambda: pid_file.exists() and pid_file.read_text().strip())
    sh = int(pid_file.read_text())
    wait_for(lambda: child_pids(sh))
    return child_pids(sh)[0]


SH_SLEEP = "echo $$ > sh.pid; sleep 30; echo done"

def start_mode(m: PilotManager, name: str) -> str | None:
    """How the launcher reported starting job `name`'s first task."""
    return m._jobs[name].tasks[0].start_mode


def env_job(directory: Path, name: str, app: str, variable: str, **kw) -> JobSpec:
    """A job whose run in `directory / name` prints `variable`, or "unset",
    last on its stdout there: `sh` (app "exec") or a worker (app "worker")."""
    if app == "worker":
        return call_job(directory / name, name, "env", variable, **kw)
    (directory / name).mkdir()
    return JobSpec(name=name, command=("sh", "-c", f'echo "${{{variable}-unset}}"'),
                   workdir=str(directory / name), stdout="out", **kw)


def sleeper_job(directory: Path, app: str, name: str = "r") -> JobSpec:
    """A job whose run in `directory` waits in `sleep 30`, the child of the
    `sh` (app "exec") or of the worker (app "worker") whose pid is in sh.pid."""
    if app == "worker":
        return call_job(directory, name, "sleep")
    directory.mkdir(exist_ok=True)
    return JobSpec(name=name, command=("sh", "-c", SH_SLEEP), workdir=str(directory))


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

    @pytest.mark.parametrize("app", ["exec", "worker"])
    def test_a_run_canceled_at_once_leaves_no_group(self, tmp_path, callmod, app):
        # the manager cancels before it has read the run's start, so the
        # launcher alone knows the group; the SIGTERM reaches all of it, the
        # run's `sleep` too, which the run started before the cancel
        pids = []

        class Groups(dict):
            def __setitem__(self, seq, pid):
                pids.append(pid)
                super().__setitem__(seq, pid)

        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(sleeper_job(tmp_path / "r", app))
        m._launcher._groups = Groups()   # no report is read before the cancel
        sleep_of(tmp_path / "r")
        m.cancel("r")
        drained(m)
        its = m.job_snapshot("r")["iterations"]
        assert (its[0]["status"], its[0]["exit_code"]) == ("CANCELED", -signal.SIGTERM)
        assert start_mode(m, "r") == app and len(pids) == 1
        wait_for(lambda: not group_running(pids[0]), timeout=5)

    @pytest.mark.parametrize("app", ["exec", "worker"])
    def test_what_a_run_leaves_in_the_background_ends_with_it(self, tmp_path, callmod, app):
        # an executed run's group is killed as the run is reaped; a worker's
        # as the worker is, once the drain has ended the launcher's requests
        directory = tmp_path / "r"
        if app == "worker":
            spec = call_job(directory, "r", "background")
        else:
            directory.mkdir()
            spec = JobSpec(name="r", command=("sh", "-c", "sleep 30 & echo $! > bg.pid"),
                           workdir=str(directory))
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(spec)
        drained(m)
        assert m.job_snapshot("r")["status"] == "SUCCEEDED" and start_mode(m, "r") == app
        background = int((directory / "bg.pid").read_text())
        wait_for(lambda: not running(background), timeout=5)

    @pytest.mark.parametrize("app", ["exec", "worker"])
    def test_no_run_outlives_its_manager(self, tmp_path, callmod, app):
        # the manager's process dies without draining: the launcher sees
        # its requests end and SIGKILLs the run's group
        spec = sleeper_job(tmp_path / "r", app)
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from uqpilot.pilotjob.jobs import JobSpec\n"
            "from uqpilot.pilotjob.scheduler import PilotManager\n"
            "d = Path(sys.argv[1])\n"
            "m = PilotManager(1, workdir=d, clock='wall')\n"
            f"m.submit(JobSpec(name='r', command={spec.command!r}, "
            f"callable={spec.callable!r}, workdir=str(d)))\n"
            "while not (d / 'sh.pid').exists(): time.sleep(0.01)\n"
            "time.sleep(30)\n"
        )
        manager = subprocess.Popen([sys.executable, "-c", script, str(tmp_path / "r")])
        try:
            sleep = sleep_of(tmp_path / "r")
            assert running(sleep)
        finally:
            manager.kill()
            manager.wait(timeout=10)
        wait_for(lambda: not running(sleep), timeout=5)


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
        # as the launcher started, with `os.environ`
        environ = Path(f"/proc/{m._launcher.proc.pid}/environ").read_bytes()
        drained(m)
        assert sorted((tmp_path / "out").read_bytes().split(b"\0")) == \
            sorted(environ.split(b"\0"))

    @pytest.mark.parametrize("app", ["exec", "worker"])
    def test_the_c_environment_alone_reaches_no_run(self, tmp_path, callmod, app):
        # a variable set behind `os.environ`, in the C environment alone, as
        # C code calling setenv leaves it: the launcher starts with
        # `os.environ`, so a job without `env` sees what one with `env` sees
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        os.putenv("UQ_C_ONLY", "1")
        try:
            m.submit(env_job(tmp_path, "r", app, "UQ_C_ONLY"))
        finally:
            os.unsetenv("UQ_C_ONLY")
        drained(m)
        assert (start_mode(m, "r"), m.job_snapshot("r")["status"]) == (app, "SUCCEEDED")
        assert (tmp_path / "r" / "out").read_text().splitlines()[-1] == "unset"

    @pytest.mark.parametrize("app", ["exec", "worker"])
    def test_a_changed_environment_reaches_the_next_run(self, tmp_path, callmod, monkeypatch,
                                                        app):
        # the manager sends its `os.environ` once it differs from the
        # launcher's, and a job's `env` over it
        monkeypatch.delenv("UQ_TEST", raising=False)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(env_job(tmp_path, "a", app, "UQ_TEST"))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        monkeypatch.setenv("UQ_TEST", "1")
        m.submit(env_job(tmp_path, "b", app, "UQ_TEST"))
        monkeypatch.delenv("UQ_TEST")   # as it was when the launcher started
        m.submit(env_job(tmp_path, "c", app, "UQ_TEST"))
        m.submit(env_job(tmp_path, "d", app, "UQ_TEST", env=(("UQ_TEST", "2"),)))
        drained(m)
        assert [m.job_snapshot(name)["status"] for name in "abcd"] == ["SUCCEEDED"] * 4
        assert [(tmp_path / name / "out").read_text().splitlines()[-1] for name in "abcd"] \
            == ["unset", "1", "unset", "2"]

    @pytest.mark.parametrize("entry", ["relative", "absolute"])
    def test_a_python_m_command_is_executed(self, tmp_path, monkeypatch, entry):
        # a fresh interpreter, which resolves a relative PYTHONPATH entry
        # against the run's cwd
        (tmp_path / "lib").mkdir()
        (tmp_path / "lib" / "onpath.py").write_text(
            "with open('imported', 'w') as fh:\n    fh.write(__file__)\n")
        monkeypatch.setenv("PYTHONPATH", "lib" if entry == "relative" else str(tmp_path / "lib"))
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="r", command=(sys.executable, "-m", "onpath"),
                         workdir=str(tmp_path)))
        drained(m)
        assert (start_mode(m, "r"), m.job_snapshot("r")["status"]) == ("exec", "SUCCEEDED")
        imported = Path((tmp_path / "imported").read_text())
        assert imported.resolve() == (tmp_path / "lib" / "onpath.py").resolve()

    def test_runs_cpu_reaches_rusage_children_after_drain(self, tmp_path):
        def children_cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        burn = ("import time\n"
                "start = time.process_time()\n"
                "while time.process_time() - start < 0.25:\n"
                "    pass\n")
        before = children_cpu()
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for name in ("a", "b"):
            m.submit(JobSpec(name=name, command=(sys.executable, "-c", burn)))
        m.drain()
        assert children_cpu() - before >= 0.5

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
    def test_an_error_in_the_launcher_kills_its_runs(self, tmp_path, callmod):
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for app in ("exec", "worker"):
            m.submit(sleeper_job(tmp_path / app, app, name=app))
        sleeps = [sleep_of(tmp_path / app) for app in ("exec", "worker")]
        worker = seen(tmp_path / "worker")[0]
        os.write(m._launcher._requests, (1).to_bytes(4, "little") + b"\xff")  # not marshal
        drained(m)
        assert m._launcher.proc.returncode == 1
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in ("exec", "worker")] \
            == [None, None]
        wait_for(lambda: not any(running(pid) for pid in [*sleeps, worker]), timeout=5)

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

    def test_a_killed_launcher_leaves_no_run_behind(self, tmp_path, callmod):
        # a SIGKILLed launcher cannot kill its runs; its reader kills their groups
        m = PilotManager(2, workdir=tmp_path, clock="wall")
        for app in ("exec", "worker"):
            m.submit(sleeper_job(tmp_path / app, app, name=app))
        sleeps = [sleep_of(tmp_path / app) for app in ("exec", "worker")]
        worker = seen(tmp_path / "worker")[0]
        m._launcher.proc.kill()
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in ("exec", "worker")] \
            == [None, None]
        wait_for(lambda: not any(running(pid) for pid in [*sleeps, worker]), timeout=5)

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
            self, tmp_path, monkeypatch):
        send = scheduler._Launcher.send

        def interrupted(launcher, request):
            if request[0] == "run":
                raise KeyboardInterrupt
            return send(launcher, request)

        monkeypatch.setattr(scheduler._Launcher, "send", interrupted)
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        with pytest.raises(KeyboardInterrupt):
            m.submit(JobSpec(name="r", command=("touch", "started"), workdir=str(tmp_path)))
        m.cancel_all()
        drained(m)
        assert m.job_snapshot("r")["status"] == "CANCELED"
        assert not (tmp_path / "started").exists()

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

    def test_a_signal_to_an_ended_run_is_ignored(self, tmp_path):
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="a", command=("true",)))
        wait_for(lambda: m.job_snapshot("a")["status"] == "SUCCEEDED")
        launcher = m._launcher
        assert launcher.send(("signal", 0, int(signal.SIGKILL)))   # a's task
        m.submit(JobSpec(name="b", command=("true",)))
        drained(m)
        assert [m.job_snapshot(n)["iterations"][0]["exit_code"] for n in "ab"] == [0, 0]
        assert m._launcher is launcher and launcher.proc.returncode == 0


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
    if mode == "background":
        with open("bg.pid", "w") as fh:
            fh.write(str(subprocess.Popen(["sleep", "30"]).pid))
    if mode == "env":
        print(os.environ.get(argv[1], "unset"))
    if mode == "os-exit":
        sys.stdout.flush()
        os._exit(5)
    if mode == "kbi":
        raise KeyboardInterrupt
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

    @pytest.mark.parametrize("mode", ["return", "return3", "exit3", "message", "raise",
                                      "os-exit", "kbi"])
    def test_a_call_equals_an_executed_run(self, tmp_path, callmod, mode):
        # the executed run calls main as a console script does; a traceback
        # differs in the frames that call main, so only its last line counts
        script = "import callmod, sys\nsys.exit(callmod.main(sys.argv[1:]))\n"
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(call_job(tmp_path / "worker", "worker", mode))
        m.submit(JobSpec(name="exec", command=(sys.executable, "-c", script, mode),
                         workdir=str(tmp_path / "worker"), stdout="../exec.out",
                         stderr="../exec.err"))
        drained(m)
        runs = {}
        for app, out, err in (("worker", "worker/out", "worker/err"),
                              ("exec", "exec.out", "exec.err")):
            err = (tmp_path / err).read_text()
            runs[app] = (start_mode(m, app), m._jobs[app].tasks[0].exit_code,
                         (tmp_path / out).read_text(), err.splitlines()[-1],
                         "Traceback (most recent call last)" in err)
        assert runs["worker"][1:] == runs["exec"][1:]
        assert (runs["worker"][0], runs["exec"][0]) == ("worker", "exec")
        assert runs["worker"][1] == {"return": 0, "return3": 3, "exit3": 3, "message": 1,
                                     "raise": 1, "os-exit": 5, "kbi": -signal.SIGINT}[mode]

    def test_the_launcher_starts_bare(self, tmp_path, callmod, module_dir):
        # isolated and without `site`: of the Python processes that a `cp`
        # run and a callable run start, only the worker imports sitecustomize
        (module_dir / "sitecustomize.py").write_text(
            f"import os\nwith open({str(tmp_path / 'pids')!r}, 'a') as fh:\n"
            "    fh.write(f'{os.getpid()}\\n')\n")
        (tmp_path / "src").write_text("copied\n")
        m = PilotManager(1, workdir=tmp_path, clock="wall")
        m.submit(JobSpec(name="cp", command=("cp", "src", "dst"), workdir=str(tmp_path)))
        m.submit(call_job(tmp_path / "r", "r", "return"))
        launcher = m._launcher
        drained(m)
        assert [start_mode(m, n) for n in ("cp", "r")] == ["exec", "worker"]
        assert (tmp_path / "dst").read_text() == "copied\n"
        assert (tmp_path / "pids").read_text().split() == [str(seen(tmp_path / "r")[0])]
        assert launcher.proc.returncode == 0

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
