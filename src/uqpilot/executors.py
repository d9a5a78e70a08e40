"""Run execution: one in-process pilot manager on a virtual allocation.

No socket is involved; only `pj serve --socket` serves a manager, on a
Unix socket in its workdir.

`RunPlan.cores` is the allocation's size and `cores_per_run` each run's
share of it, so `cores // cores_per_run` runs execute at once. Each round
encodes anything NEW, executes every ENCODED run (ENCODED -> SUBMITTED ->
COMPLETED/FAILED), and loops on failures up to the retry limit; every
COMPLETED run is then collated. Before each attempt starts, the output
of any earlier attempt is removed, so a run can be recovered only from
output its own attempt wrote. Every status change is one store commit,
so an interrupted execution resumes where it stopped; on any error the
manager's runs are canceled and drained before the error propagates.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field
from pathlib import Path

from uqpilot.campaign.ops import Campaign
from uqpilot.errors import DecodeError, ExecutorError
from uqpilot.pilotjob.jobs import EXECUTING, SUCCEEDED, Allocation, JobSpec
from uqpilot.pilotjob.scheduler import PilotManager


@dataclass
class RunPlan:
    cores: int = 1
    cores_per_run: int = 1
    retries: int = 0
    stage_id: int | None = None          # None = all pending runs

    def __post_init__(self):
        if not 1 <= self.cores_per_run <= self.cores:
            raise ExecutorError(f"cores-per-run {self.cores_per_run} must be between 1 "
                                f"and the allocation's {self.cores} cores")
        if self.retries < 0:
            raise ExecutorError("retry limit must be >= 0")


@dataclass
class RunSummary:
    executed: int = 0
    completed: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def execute_campaign(campaign: Campaign, plan: RunPlan) -> RunSummary:
    """Run the campaign's pending work to completion under `plan`."""
    summary = RunSummary()
    campaign.resume()

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

    for row in campaign.store.runs(stage_id=plan.stage_id, status="COMPLETED"):
        try:
            campaign.decode(row["run_id"])
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
    store = campaign.store
    app = store.app_spec()
    command = tuple(app.command)
    events: queue.SimpleQueue = queue.SimpleQueue()
    manager = PilotManager(Allocation.virtual(plan.cores), workdir=campaign.workdir, clock="wall",
                           on_task_event=lambda task: events.put((task.job, task.status)))
    try:
        for row in rows:
            # resume and the retry loop re-run a run without encoding it again
            (Path(row["run_dir"]) / app.decoder.output_relpath).unlink(missing_ok=True)
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
