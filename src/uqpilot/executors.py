"""Run execution: every executor drives one in-process pilot manager.

The executor names only size the manager's virtual allocation: `serial`
runs one run at a time, `local-pool` runs `workers` at a time, and
`pilotjob` packs runs into `--allocation-cores` (default: the detected
cores). Each round encodes anything NEW, executes every ENCODED run
(ENCODED -> SUBMITTED -> COMPLETED/FAILED), optionally collates, and
loops on failures up to the retry limit. Every status change is one
store commit, so an interrupted execution resumes where it stopped; on
any error the manager's runs are canceled and drained before the error
propagates.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field

from uqpilot.campaign.ops import Campaign
from uqpilot.errors import DecodeError, ExecutorError
from uqpilot.pilotjob.jobs import EXECUTING, SUCCEEDED, Allocation, JobSpec, detected_cores
from uqpilot.pilotjob.scheduler import PilotManager

EXECUTORS = ("serial", "local-pool", "pilotjob")


@dataclass
class RunPlan:
    executor: str = "serial"
    workers: int = 4
    cores_per_run: int = 1
    retries: int = 0
    allocation_cores: int | None = None
    auto_collate: bool = True
    stage_id: int | None = None          # None = all pending runs

    def __post_init__(self):
        if self.executor not in EXECUTORS:
            raise ExecutorError(
                f"unknown executor {self.executor!r}; choose from {', '.join(EXECUTORS)}"
            )
        if self.workers < 1 or self.cores_per_run < 1:
            raise ExecutorError("workers and cores-per-run must be >= 1")
        if self.retries < 0:
            raise ExecutorError("retry limit must be >= 0")


@dataclass
class RunSummary:
    executed: int = 0
    completed: int = 0
    failed: int = 0
    collated: int = 0
    recovered: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def execute_campaign(campaign: Campaign, plan: RunPlan) -> RunSummary:
    """Run the campaign's pending work to completion under `plan`."""
    summary = RunSummary()
    resumed = campaign.resume()
    summary.recovered = resumed.get("recovered", 0)

    rounds = 0
    while True:
        for row in campaign.store.runs(stage_id=plan.stage_id, status="NEW"):
            campaign.encode(row["run_id"])
        targets = campaign.store.runs(stage_id=plan.stage_id, status="ENCODED")
        if not targets:
            break
        summary.executed += len(targets)
        _execute(campaign, plan, targets)

        failed = campaign.store.runs(stage_id=plan.stage_id, status="FAILED")
        if failed and rounds < plan.retries:
            for row in failed:
                campaign.store.set_status(row["run_id"], "ENCODED", bump_attempts=True)
            rounds += 1
            continue
        break

    if plan.auto_collate:
        for row in campaign.store.runs(stage_id=plan.stage_id, status="COMPLETED"):
            try:
                campaign.decode(row["run_id"])
                summary.collated += 1
            except DecodeError as exc:
                summary.errors.append(f"run {row['run_id']}: {exc}")

    counts = campaign.store.status_counts(stage_id=plan.stage_id)
    summary.completed = counts["COMPLETED"] + counts["COLLATED"]
    summary.failed = counts["FAILED"]
    return summary


def _execute(campaign: Campaign, plan: RunPlan, rows: list):
    """One job per run, submitted to a manager on a virtual allocation.

    A run is marked SUBMITTED as the manager starts it and COMPLETED or
    FAILED as it ends; the manager reports both events through a queue, so
    every commit happens in this thread.
    """
    if plan.executor == "pilotjob":
        cores = plan.allocation_cores or detected_cores()
    else:
        cores = (1 if plan.executor == "serial" else plan.workers) * plan.cores_per_run
    if plan.cores_per_run > cores:
        raise ExecutorError(
            f"cores-per-run {plan.cores_per_run} exceeds the {cores}-core allocation"
        )
    store = campaign.store
    command = tuple(store.app_spec().command)
    events: queue.SimpleQueue = queue.SimpleQueue()
    manager = PilotManager(Allocation.virtual(cores), workdir=campaign.workdir, clock="wall",
                           on_task_event=lambda task: events.put((task.job, task.status)))
    try:
        for row in rows:
            manager.submit(JobSpec(name=str(row["run_id"]), command=command,
                                   cores=plan.cores_per_run, workdir=row["run_dir"],
                                   stdout="run.stdout", stderr="run.stderr"))
        for _ in range(2 * len(rows)):   # one start and one end per run
            name, status = events.get()
            store.set_status(int(name), "SUBMITTED" if status == EXECUTING
                             else "COMPLETED" if status == SUCCEEDED else "FAILED")
        manager.drain()
    except BaseException:
        manager.cancel_all()
        manager.drain()
        raise
