"""Run execution: one event loop on an in-process pilot manager.

No socket and no thread is involved: the caller's thread waits in the
manager's event loop. `RunPlan.cores` is the allocation's size and
`cores_per_run` each run's share of it, so `cores // cores_per_run` runs
execute at once. The manager's one launcher process starts every run, in a
process group of its own (see `uqpilot.pilotjob.launcher`). An app with a
`callable` runs as a call of `callable([target])` on one of the launcher's
persistent workers, each of which imports the callable's module once and
then takes one run at a time; for any other app, the launcher decides
whether a run of `command` starts warm or executed. The manager is drained
before `execute_campaign` returns, so every run, worker and the launcher
has been reaped and its CPU time counted in this process's
`RUSAGE_CHILDREN`.

`execute_campaign` makes one pass over the runs of its stage and no
other. Each run first goes through `Campaign.recover`: a run that an
interrupted call left SUBMITTED is collated from the output its attempt
wrote, and a FAILED run, or a SUBMITTED one without usable output, goes
back to ENCODED. The pass then collates each run left COMPLETED, and
encodes each NEW run and submits it at once (an ENCODED run as it is);
each attempt first removes the output of any earlier one, so a run can
be recovered only from output its own attempt wrote.

The loop then commits each event that `PilotManager.wait` returns:
SUBMITTED as a run starts; as it ends, COLLATED (through COMPLETED, in one
commit), or COMPLETED when its output does not decode, or FAILED, and
then, while retries are left, ENCODED (attempts+1) and a resubmission.
Every commit is one transaction, so a second call picks up where an
interrupted one stopped; on any error the manager's runs are canceled
and drained before the error propagates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from uqpilot.campaign.ops import Campaign
from uqpilot.errors import ExecutorError
from uqpilot.pilotjob.jobs import EXECUTING, SUCCEEDED, JobSpec
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
        return self.failed == 0 and not self.errors


def execute_campaign(campaign: Campaign, plan: RunPlan) -> RunSummary:
    """Run the pending work of `plan.stage_id` (every stage if None) to
    completion. One job per attempt on a wall-clock manager of
    `plan.cores` cores; a retry is named `<run_id>.<k>`, as the manager
    refuses a duplicate name."""
    store = campaign.store
    app = campaign.app
    summary = RunSummary()
    manager = PilotManager(plan.cores, workdir=campaign.workdir, clock="wall")

    def collate(run_id: int):
        error = campaign.collate(run_id)
        if error:
            summary.errors.append(error)

    def submit(run_dir: str, name: str):
        (Path(run_dir) / app.decoder.output_relpath).unlink(missing_ok=True)
        manager.submit(JobSpec(name=name, command=(app.target,) if app.callable else app.command,
                               callable=app.callable, cores=plan.cores_per_run,
                               workdir=run_dir, stdout="run.stdout", stderr="run.stderr"))
        summary.executed += 1

    with manager:
        for row in store.runs(stage_id=plan.stage_id):
            status = campaign.recover(row)
            if status == "COMPLETED":   # its output did not decode in an earlier call
                collate(row["run_id"])
            elif status == "NEW":
                submit(str(campaign.encode(row["run_id"])), str(row["run_id"]))
            elif status == "ENCODED":
                submit(row["run_dir"], str(row["run_id"]))
        retried: Counter = Counter()
        ended = 0
        while ended < summary.executed:
            for name, status in manager.wait()[0]:
                run_id = int(name.split(".")[0])
                if status == EXECUTING:
                    store.set_status(run_id, "SUBMITTED")
                    continue
                ended += 1
                if status == SUCCEEDED:
                    collate(run_id)
                    continue
                store.set_status(run_id, "FAILED")
                retried[run_id] += 1
                if retried[run_id] <= plan.retries:
                    store.set_status(run_id, "ENCODED")
                    submit(store.run(run_id)["run_dir"], f"{run_id}.{retried[run_id]}")
        manager.drain()
    counts = store.status_counts(stage_id=plan.stage_id)
    summary.completed = counts["COMPLETED"] + counts["COLLATED"]
    summary.failed = counts["FAILED"]
    return summary
