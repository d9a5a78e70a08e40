"""Manager entry points: batch file execution and socket service.

Batch mode loads a JSON job file, runs the whole workload to completion,
and writes the scheduler report. Socket mode serves the control protocol
on a Unix socket, `pj.sock` in the manager workdir and readable only by
its owner, until a finish command arrives; clients find the socket from
the workdir alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from uqpilot.errors import ParseError
from uqpilot.pilotjob.jobs import Allocation, JobSpec
from uqpilot.pilotjob.protocol import SOCKET_FILENAME, ManagerServer
from uqpilot.pilotjob.scheduler import PilotManager

REPORT_FILENAME = "pj-report.json"


def load_batch(path: str | Path) -> tuple[Allocation, list[JobSpec]]:
    """Parse a batch document: {"allocation": {...}, "jobs": [...]}."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read batch file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "jobs" not in doc:
        raise ParseError(f"batch file {path} needs a 'jobs' list")
    if "allocation" in doc:
        allocation = Allocation.from_json(doc["allocation"])
    else:
        allocation = Allocation.local()
    jobs = [JobSpec.from_json(j) for j in doc["jobs"]]
    seen: set[str] = set()
    for job in jobs:
        if job.name in seen:
            raise ParseError(f"duplicate job name {job.name!r} in batch file")
        seen.add(job.name)
    return allocation, jobs


def write_report(report: dict, path: str | Path):
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def run_batch(
    batch_path: str | Path,
    workdir: str | Path = ".",
    clock: str = "wall",
    report_path: str | Path | None = None,
) -> dict:
    """File-based interface: load, execute to completion, write the report."""
    allocation, jobs = load_batch(batch_path)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    manager = PilotManager(allocation, workdir=workdir, clock=clock)
    for spec in jobs:
        manager.submit(spec)
    manager.drain()
    report = manager.report()
    write_report(report, report_path or workdir / REPORT_FILENAME)
    return report


def serve_socket(
    allocation: Allocation,
    workdir: str | Path = ".",
    clock: str = "wall",
    report_path: str | Path | None = None,
) -> dict | None:
    """Socket interface: serve requests until a finish command drains us."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    manager = PilotManager(allocation, workdir=workdir, clock=clock)
    server = ManagerServer(manager)
    server.serve_until_finished()
    if server.report is not None:
        write_report(server.report, report_path or workdir / REPORT_FILENAME)
    return server.report


def discover(manager: str | Path) -> Path:
    """Resolve a manager workdir, or its socket path, to the socket path."""
    path = Path(manager)
    if path.is_dir():
        path = path / SOCKET_FILENAME
    if not path.is_socket():
        raise ParseError(f"no manager socket at {path}")
    return path
