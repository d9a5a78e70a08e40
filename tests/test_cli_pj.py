"""Smoke tests of the `pj` command, driven through ``uqpilot.cli.pj.main``."""

import json
import os
import signal
import socket
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import UQ_ERRORS
from tests.test_pilotjob import SH_SLEEP, running, sleep_of, start, stop, wait_for
from uqpilot.cli import pj
from uqpilot.pilotjob.manager import REPORT_FILENAME
from uqpilot.pilotjob.protocol import SOCKET_FILENAME, ManagerServer
from uqpilot.pilotjob.scheduler import PilotManager


def test_serve_batch_simulated(tmp_path, capsys):
    batch = {
        "allocation": {"mode": "virtual", "nodes": [{"name": "n0", "cores": 2}]},
        "jobs": [
            {"name": "a", "duration": 2.0},
            {"name": "b", "duration": 1.0},
            {"name": "c", "duration": 1.0, "after": ["a"], "cores": 2},
        ],
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code = pj.main(["serve", "--batch", str(path), "--clock", "simulated",
                    "--workdir", str(tmp_path / "wd")])
    assert code == pj.EXIT_OK
    assert "jobs=3 failed=0 makespan=3.000s" in capsys.readouterr().out
    report = json.loads((tmp_path / "wd" / REPORT_FILENAME).read_text())
    jobs = {j["name"]: j for j in report["jobs"]}
    assert {n: j["status"] for n, j in jobs.items()} == dict.fromkeys("abc", "SUCCEEDED")
    assert jobs["c"]["iterations"][0]["start"] == jobs["a"]["iterations"][0]["end"] == 2.0
    assert report["makespan"] == 3.0


def test_only_a_wall_clock_batch_is_capped_at_the_detected_cores(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.setenv("PJ_VIRTUAL_CORES", "1")
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({
        "allocation": {"mode": "virtual",
                       "nodes": [{"name": f"n{i}", "cores": 8} for i in range(4)]},
        "jobs": [{"name": "wide", "command": ["true"], "cores": 32, "duration": 1.0}],
    }))
    assert pj.main(["serve", "--batch", str(path), "--clock", "simulated",
                    "--workdir", str(tmp_path / "sim")]) == pj.EXIT_OK
    report = json.loads((tmp_path / "sim" / REPORT_FILENAME).read_text())
    assert report["cores"] == 32
    assert report["jobs"][0]["status"] == "SUCCEEDED"
    capsys.readouterr()
    assert pj.main(["serve", "--batch", str(path),
                    "--workdir", str(tmp_path / "wall")]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == (
        "pj: allocation of 32 cores exceeds 4x the 1 detected cores\n")
    assert not (tmp_path / "wall" / REPORT_FILENAME).exists()


def test_serve_batch_refuses_allocation_cores(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"jobs": [{"name": "a", "command": ["true"]}]}))
    assert pj.main(["serve", "--batch", str(path), "--allocation-cores", "2",
                    "--workdir", str(tmp_path)]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == (
        "pj: --allocation-cores does not apply to --batch; the batch file names its "
        "allocation\n")
    assert not (tmp_path / REPORT_FILENAME).exists()


def test_serve_batch_refuses_a_malformed_job(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"jobs": [{"name": "a", "command": ["true"], "cores": "two"}]}))
    assert pj.main(["serve", "--batch", str(path), "--workdir", str(tmp_path)]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == (
        "pj: job 'a': bad 'cores' 'two': expected a whole number\n")
    assert not (tmp_path / REPORT_FILENAME).exists()


def test_serve_batch_refuses_a_malformed_virtual_core_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PJ_VIRTUAL_CORES", "abc")
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"jobs": [{"name": "a", "command": ["true"]}]}))
    assert pj.main(["serve", "--batch", str(path), "--workdir", str(tmp_path)]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == (
        "pj: PJ_VIRTUAL_CORES must be a whole number of cores, got 'abc'\n")
    assert not (tmp_path / REPORT_FILENAME).exists()


@pytest.mark.parametrize("mode", ["--batch", "--socket"])
def test_serve_refuses_a_report_in_a_missing_directory(tmp_path, capsys, mode):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"jobs": [{"name": "a", "command": ["touch", "ran"]}]}))
    report = tmp_path / "missing" / "r.json"
    argv = ["serve", "--workdir", str(tmp_path), "--report", str(report)]
    argv += ["--batch", str(path)] if mode == "--batch" else ["--socket"]
    codes = []
    server = threading.Thread(target=lambda: codes.append(pj.main(argv)), daemon=True)
    server.start()
    server.join(timeout=30)
    assert not server.is_alive()
    assert codes == [pj.EXIT_USAGE]
    assert capsys.readouterr().err == (
        f"pj: cannot write report {report}: no directory {report.parent}\n")
    assert not (tmp_path / "ran").exists()     # refused before any job started
    assert not (tmp_path / SOCKET_FILENAME).exists()


def test_serve_batch_reports_failures_in_exit_code(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({
        "allocation": {"mode": "virtual", "nodes": [{"name": "n0", "cores": 1}]},
        "jobs": [{"name": "bad", "command": ["false"]},
                 {"name": "child", "command": ["true"], "after": ["bad"]}],
    }))
    assert pj.main(["serve", "--batch", str(path), "--workdir", str(tmp_path)]) == pj.EXIT_FAILURES
    report = json.loads((tmp_path / REPORT_FILENAME).read_text())
    assert [j["status"] for j in report["jobs"]] == ["FAILED", "OMITTED"]


def test_serve_batch_logs_under_a_relative_workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("batch.json").write_text(json.dumps({
        "allocation": {"nodes": [{"cores": 1}]},
        "jobs": [{"name": "a", "command": ["echo", "hi"]},
                 {"name": "b", "command": ["echo", "there"], "stdout": "b.out"}],
    }))
    assert pj.main(["serve", "--batch", "batch.json", "--workdir", "w4"]) == pj.EXIT_OK
    assert Path("w4/pj-logs/a.stdout").read_text() == "hi\n"
    assert Path("w4/b.out").read_text() == "there\n"     # a configured path, as before
    assert not Path("w4/w4").exists()


def test_serve_batch_through_the_console_script(tmp_path, console_scripts, child_env):
    # `pj` itself on two jobs, b after a, and on a malformed job: the exit
    # codes pass through the script
    def serve(jobs, workdir):
        path = tmp_path / f"{workdir}.json"
        path.write_text(json.dumps({"jobs": jobs}))
        return subprocess.run([console_scripts / "pj", "serve", "--batch", path,
                               "--workdir", tmp_path / workdir],
                              env=child_env, capture_output=True, timeout=60).returncode

    assert serve([{"name": "a", "command": ["true"]},
                  {"name": "b", "command": ["true"], "after": ["a"]}], "wd") == pj.EXIT_OK
    report = json.loads((tmp_path / "wd" / REPORT_FILENAME).read_text())
    jobs = {job["name"]: job for job in report["jobs"]}
    assert [jobs[n]["status"] for n in "ab"] == ["SUCCEEDED"] * 2, jobs
    a, b = (jobs[n]["iterations"][0] for n in "ab")
    assert b["start"] >= a["end"], (a, b)
    assert serve([{"name": "a", "command": ["true"], "cores": "two"}], "bad") == pj.EXIT_USAGE


def test_serve_socket_round_trip(tmp_path, capsys, child_env):
    # a process of its own: the server prints its summary as soon as it has
    # answered the finish, which in this process would race the client's line
    wd = str(tmp_path)
    server = subprocess.Popen(
        [sys.executable, "-m", "uqpilot.cli.pj", "serve", "--socket", "--workdir", wd,
         "--allocation-cores", "2"], env=child_env, stdout=subprocess.DEVNULL)
    deadline = time.time() + 10
    sock = tmp_path / SOCKET_FILENAME
    while not sock.exists():
        assert time.time() < deadline
        time.sleep(0.01)
    try:
        assert stat.S_IMODE(sock.stat().st_mode) == 0o600
        assert pj.main(["submit", "--manager", wd, "--name", "a", "--", "true"]) == 0
        assert pj.main(["submit", "--manager", wd, "--name", "b", "--after", "a",
                        "--", "true"]) == 0
        assert capsys.readouterr().out.split() == ["a", "b"]
        assert pj.main(["status", "--manager", wd]) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == 2
        assert pj.main(["finish", "--manager", wd]) == 0
        assert capsys.readouterr().out.startswith("finished: jobs=2 ")
        assert server.wait(timeout=30) == pj.EXIT_OK
    finally:
        server.kill()
        server.wait()
    assert not sock.exists()
    report = json.loads((tmp_path / REPORT_FILENAME).read_text())
    assert [j["status"] for j in report["jobs"]] == ["SUCCEEDED", "SUCCEEDED"]


def test_socket_appears_only_once_listening_with_mode_0600(tmp_path, monkeypatch):
    # clients poll for pj.sock, so it must not exist before the server listens
    sock = tmp_path / SOCKET_FILENAME
    seen_at_listen = []
    listen = socket.socket.listen

    def recording_listen(self, *args):
        seen_at_listen.append(sock.exists())
        return listen(self, *args)

    monkeypatch.setattr(socket.socket, "listen", recording_listen)
    server = start(ManagerServer(PilotManager(1, workdir=tmp_path)))
    try:
        assert seen_at_listen == [False]
        assert stat.S_IMODE(sock.stat().st_mode) == 0o600
        assert [p.name for p in tmp_path.glob(f"{SOCKET_FILENAME}*")] == [SOCKET_FILENAME]
        assert pj.main(["status", "--manager", str(tmp_path)]) == pj.EXIT_OK
    finally:
        stop(server)
    assert not sock.exists()


def test_clients_without_a_manager_fail_cleanly(tmp_path, capsys):
    assert pj.main(["status", "--manager", str(tmp_path)]) == pj.EXIT_USAGE
    assert f"no manager socket at {tmp_path / SOCKET_FILENAME}" in capsys.readouterr().err


def test_serve_refuses_a_workdir_with_a_socket_left_behind(tmp_path, capsys):
    (tmp_path / SOCKET_FILENAME).write_text("")
    code = pj.main(["serve", "--socket", "--workdir", str(tmp_path),
                    "--allocation-cores", "1"])
    assert code == pj.EXIT_USAGE
    assert f"cannot bind manager socket {tmp_path / SOCKET_FILENAME}" in capsys.readouterr().err
    assert (tmp_path / SOCKET_FILENAME).exists()


def test_serve_socket_refuses_an_allocation_without_cores(tmp_path, capsys):
    codes = []
    server = threading.Thread(target=lambda: codes.append(pj.main(
        ["serve", "--socket", "--workdir", str(tmp_path), "--allocation-cores", "0"])),
        daemon=True)
    server.start()
    server.join(timeout=30)
    assert not server.is_alive()
    assert codes == [pj.EXIT_USAGE]
    assert capsys.readouterr().err == "pj: allocation needs at least 1 core, got 0\n"
    assert not (tmp_path / SOCKET_FILENAME).exists()


def stale_socket(path):
    """A socket file as a SIGKILLed manager leaves it: bound, then closed."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(str(path))
    sock.close()


def test_clients_of_a_dead_manager_fail_cleanly(tmp_path, capsys):
    stale_socket(tmp_path / SOCKET_FILENAME)
    assert pj.main(["status", "--manager", str(tmp_path)]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == f"pj: no manager listening at {tmp_path / SOCKET_FILENAME}\n"


def test_serve_replaces_a_dead_managers_socket(tmp_path, capsys):
    stale_socket(tmp_path / SOCKET_FILENAME)
    codes = []
    server = threading.Thread(target=lambda: codes.append(pj.main(
        ["serve", "--socket", "--workdir", str(tmp_path), "--allocation-cores", "1"])),
        daemon=True)
    server.start()
    try:
        deadline = time.time() + 10
        while pj.main(["status", "--manager", str(tmp_path)]) != pj.EXIT_OK:
            assert time.time() < deadline
            time.sleep(0.05)
        assert pj.main(["finish", "--manager", str(tmp_path)]) == pj.EXIT_OK
    finally:
        server.join(timeout=30)
    assert not server.is_alive()
    assert codes == [pj.EXIT_OK]
    assert not (tmp_path / SOCKET_FILENAME).exists()


def test_serve_refuses_a_live_managers_socket(tmp_path, capsys):
    live = start(ManagerServer(PilotManager(1, workdir=tmp_path)))
    try:
        code = pj.main(["serve", "--socket", "--workdir", str(tmp_path),
                        "--allocation-cores", "1"])
        assert code == pj.EXIT_USAGE
        assert "cannot bind manager socket" in capsys.readouterr().err
        assert pj.main(["status", "--manager", str(tmp_path)]) == pj.EXIT_OK
    finally:
        stop(live)


@pytest.mark.parametrize("error", UQ_ERRORS, ids=lambda cls: cls.__name__)
def test_main_maps_every_error_to_a_usage_exit(monkeypatch, capsys, error):
    def handler(args):
        raise error("boom")

    monkeypatch.setitem(pj.HANDLERS, "status", handler)
    assert pj.main(["status"]) == pj.EXIT_USAGE
    assert capsys.readouterr().err == "pj: boom\n"


@pytest.mark.parametrize("target", ["process", "group"])
@pytest.mark.parametrize("mode", ["batch", "socket"])
def test_sigterm_stops_the_jobs_in_flight(tmp_path, child_env, mode, target):
    # a SIGTERM to `pj serve` alone, or to its process group as `timeout`
    # sends it: the jobs' own groups are canceled before it exits
    job_dir, wd = tmp_path / "job", tmp_path / "wd"
    job_dir.mkdir()
    if mode == "batch":
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "allocation": {"nodes": [{"cores": 1}]},
            "jobs": [{"name": "sh", "command": ["sh", "-c", SH_SLEEP], "workdir": str(job_dir)}],
        }))
        serve = ["--batch", str(batch)]
    else:
        serve = ["--socket", "--allocation-cores", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "uqpilot.cli.pj", "serve", "--workdir", str(wd), *serve],
        env=child_env, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        if mode == "socket":
            wait_for((wd / SOCKET_FILENAME).exists)
            assert pj.main(["submit", "--manager", str(wd), "--name", "sh", "--job-workdir",
                            str(job_dir), "--", "sh", "-c", SH_SLEEP]) == pj.EXIT_OK
        sleep = sleep_of(job_dir)
        if target == "process":
            proc.send_signal(signal.SIGTERM)
        else:
            os.killpg(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    wait_for(lambda: not running(sleep), timeout=5)
