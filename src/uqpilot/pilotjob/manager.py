"""Manager entry points: batch file execution and socket service.

Batch mode loads a JSON job file, runs the whole workload to completion,
and writes the scheduler report. The file's allocation is one core
count, the total of its `nodes[].cores`; every other key of the
allocation and of its nodes is ignored, and a file without an allocation
gets the detected cores. Socket mode serves the control protocol on a
Unix socket, `pj.sock` in the manager workdir and readable only by its
owner, on an allocation of the cores it is given, until a finish command
has drained the manager; clients find the socket from the workdir alone.

Both modes write the scheduler report, `pj-report.json` in the workdir
unless a report path is given, through `write_report`. Its first line
holds the report's other keys, compactly encoded, and opens the `jobs`
list; each job then takes one line of its own, and `]}` closes the file:

    {"cores": 32, "clock": "simulated", ..., "utilization": [...], "jobs": [
    {"name": "a", "status": "SUCCEEDED", "cores": 1, "iterations": [...]},
    {"name": "b", "status": "FAILED", "cores": 2, "iterations": [...]}
    ]}

so `grep FAILED pj-report.json` prints the failed jobs. A report path
whose directory does not exist is refused before any job starts. Any
exception cancels and drains the manager's jobs before it propagates
(`PilotManager.__exit__`).
"""

from __future__ import annotations

import json
from pathlib import Path

from uqpilot.errors import ParseError, UqError, ValidationError
from uqpilot.pilotjob.jobs import JobSpec, detected_cores
from uqpilot.pilotjob.protocol import SOCKET_FILENAME, ManagerServer
from uqpilot.pilotjob.scheduler import PilotManager

REPORT_FILENAME = "pj-report.json"


def load_batch(path: str | Path) -> tuple[int, list[JobSpec]]:
    """Parse a batch document, {"allocation": {"nodes": [{"cores": N}, ...]},
    "jobs": [...]}, into its allocation's cores and its jobs."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read batch file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
        raise ParseError(f"batch file {path} needs a 'jobs' list")
    cores = _allocation_cores(doc["allocation"]) if "allocation" in doc else detected_cores()
    jobs = [JobSpec.from_json(j) for j in doc["jobs"]]
    seen: set[str] = set()
    for job in jobs:
        if job.name in seen:
            raise ParseError(f"duplicate job name {job.name!r} in batch file")
        seen.add(job.name)
    return cores, jobs


def _allocation_cores(doc) -> int:
    try:
        nodes = [int(node["cores"]) for node in doc["nodes"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"allocation document needs a 'nodes' list with cores: {exc!r}") from exc
    if not nodes or min(nodes) < 1:
        raise ValidationError("allocation needs at least one node with >= 1 core")
    return sum(nodes)


def write_report(report: dict, path: str | Path):
    """Write a `PilotManager.report()` dict to `path`, one job per line.

    Line 1 holds every key but `jobs`, then `"jobs": [`; each job follows
    on a line of its own, and the file ends with `]}`. `json.loads` of the
    file gives back `report`. Every piece goes through the C encoder,
    which `json.dumps` uses only without `indent`: the indented form spent
    most of a simulated batch's time in the pure-Python encoder.
    """
    encode = json.JSONEncoder().encode
    head = encode({key: value for key, value in report.items() if key != "jobs"})
    jobs = ",".join("\n" + encode(job) for job in report["jobs"])
    try:
        Path(path).write_text(f'{head[:-1]}, "jobs": [{jobs}\n]}}\n')
    except OSError as exc:
        raise UqError(f"cannot write report {path}: {exc}") from exc


def _report_path(workdir: Path, report_path: str | Path | None) -> Path:
    """Where the report goes; a missing directory is refused before any job runs."""
    path = Path(report_path) if report_path else workdir / REPORT_FILENAME
    if not path.parent.is_dir():
        raise UqError(f"cannot write report {path}: no directory {path.parent}")
    return path


def run_batch(
    batch_path: str | Path,
    workdir: str | Path = ".",
    clock: str = "wall",
    report_path: str | Path | None = None,
) -> dict:
    """File-based interface: load, execute to completion, write the report."""
    cores, jobs = load_batch(batch_path)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report_path = _report_path(workdir, report_path)
    with PilotManager(cores, workdir=workdir, clock=clock) as manager:
        for spec in jobs:
            manager.submit(spec)
        manager.drain()
    report = manager.report()
    write_report(report, report_path)
    return report


def serve_socket(
    cores: int,
    workdir: str | Path = ".",
    clock: str = "wall",
    report_path: str | Path | None = None,
) -> dict:
    """Socket interface: serve requests until a finish command drains us."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report_path = _report_path(workdir, report_path)
    with PilotManager(cores, workdir=workdir, clock=clock) as manager:
        server = ManagerServer(manager)
        server.serve_until_finished()
    write_report(server.report, report_path)
    return server.report


def discover(manager: str | Path) -> Path:
    """Resolve a manager workdir, or its socket path, to the socket path."""
    path = Path(manager)
    if path.is_dir():
        path = path / SOCKET_FILENAME
    if not path.is_socket():
        raise ParseError(f"no manager socket at {path}")
    return path
