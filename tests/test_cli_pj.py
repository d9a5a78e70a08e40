"""Smoke tests of the `pj` command, driven through ``uqpilot.cli.pj.main``."""

import json
import threading
import time

from uqpilot.cli import pj
from uqpilot.pilotjob.manager import DISCOVERY_FILENAME, REPORT_FILENAME


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


def test_serve_socket_round_trip(tmp_path, capsys):
    wd = str(tmp_path)
    codes = []
    server = threading.Thread(target=lambda: codes.append(pj.main(
        ["serve", "--socket", "--workdir", wd, "--allocation-cores", "2", "--virtual"])),
        daemon=True)
    server.start()
    deadline = time.time() + 10
    while not (tmp_path / DISCOVERY_FILENAME).exists():
        assert time.time() < deadline
        time.sleep(0.01)
    try:
        assert pj.main(["submit", "--manager", wd, "--name", "a", "--", "true"]) == 0
        assert pj.main(["submit", "--manager", wd, "--name", "b", "--after", "a",
                        "--", "true"]) == 0
        assert capsys.readouterr().out.split() == ["a", "b"]
        assert pj.main(["status", "--manager", wd]) == 0
        assert json.loads(capsys.readouterr().out)["jobs"] == 2
        assert pj.main(["finish", "--manager", wd]) == 0
        assert capsys.readouterr().out.startswith("finished: jobs=2 ")
    finally:
        server.join(timeout=30)
    assert not server.is_alive()
    assert codes == [pj.EXIT_OK]
    assert not (tmp_path / DISCOVERY_FILENAME).exists()
    report = json.loads((tmp_path / REPORT_FILENAME).read_text())
    assert [j["status"] for j in report["jobs"]] == ["SUCCEEDED", "SUCCEEDED"]
