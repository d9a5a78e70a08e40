from uqpilot.pilotjob.jobs import Job, JobSpec, Task
from uqpilot.pilotjob.manager import (
    discover,
    load_batch,
    run_batch,
    serve_socket,
    write_report,
)
from uqpilot.pilotjob.protocol import ManagerServer, PjClient
from uqpilot.pilotjob.scheduler import PilotManager

__all__ = [
    "Job",
    "JobSpec",
    "ManagerServer",
    "PilotManager",
    "PjClient",
    "Task",
    "discover",
    "load_batch",
    "run_batch",
    "serve_socket",
    "write_report",
]
