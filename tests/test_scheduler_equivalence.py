"""The ready-queue scheduler against the full FIFO rescan it replaced.

``FifoScan`` keeps the earlier rules as a reference: every tick scans all
tasks in submission order and starts each eligible one that fits the cores
left; a task end omits a broken sequential job's later iterations and, once
a job is terminal and broken, its dependents, found by scanning the job
table. On seeded random mixes both managers must give the same dispatch
trace and the same report.
"""

import heapq
import random

import pytest

from uqpilot.pilotjob.jobs import (
    BROKEN,
    CANCELED,
    EXECUTING,
    FAILED,
    OMITTED,
    QUEUED,
    SUCCEEDED,
    Allocation,
    JobSpec,
)
from uqpilot.pilotjob.scheduler import PilotManager


class FailingSim(PilotManager):
    """Simulated clock where the (job, iteration) pairs in ``failing`` fail."""

    failing: set = set()

    def drain_simulated(self):
        while self._events:
            end, _, task = heapq.heappop(self._events)
            self._sim_now = max(self._sim_now, end)
            task.end = self._sim_now
            failed = (task.job, task.iteration) in self.failing
            task.exit_code = 1 if failed else 0
            status = CANCELED if task.cancel_requested else FAILED if failed else SUCCEEDED
            self._end_task(task, status)


class FifoScan(FailingSim):
    """Reference: rescan every task, in submission order, on every tick.

    The inherited ready heaps and counters are still filled but never read.
    """

    def _eligible(self, task) -> bool:
        job = self._jobs[task.job]
        if any(self._jobs[dep].status != SUCCEEDED for dep in job.spec.after):
            return False
        if task.iteration > 0 and not job.spec.parallel_iterations:
            return job.tasks[task.iteration - 1].status == SUCCEEDED
        return True

    def _tick(self):
        for job in self._jobs.values():
            for task in job.tasks:
                free = self.allocation.total_cores - self._busy_cores
                if task.status == QUEUED and self._eligible(task) and task.cores <= free:
                    self._start(task)

    def _end_task(self, task, status):
        self._trace.append((task.end, "end", task.job, task.iteration))
        task.status = status
        self._release(task.assigned)
        job = self._jobs[task.job]
        if status in BROKEN and not job.spec.parallel_iterations:
            for later in job.tasks[task.iteration + 1:]:
                if later.status == QUEUED:
                    later.status = OMITTED
        if job.terminal and job.status in BROKEN:
            self._omit_dependents(job.spec.name)
        self._tick()

    def _omit_dependents(self, name):
        for other in self._jobs.values():
            if name in other.spec.after:
                queued = [t for t in other.tasks if t.status == QUEUED]
                for t in queued:
                    t.status = OMITTED
                if queued and other.terminal:
                    self._omit_dependents(other.spec.name)

    def cancel(self, name):
        super().cancel(name)
        with self._cond:
            self._tick()


def random_mix(seed: int, jobs: int = 120, nodes: int = 3, cores: int = 4):
    """Submit a seeded mix to both managers; cancel now and then between submits.

    About one iteration in ten fails, so jobs with several iterations can
    end with some iterations SUCCEEDED and others FAILED.
    """
    rng = random.Random(seed)
    failing: set[tuple[str, int]] = set()
    managers = [cls(Allocation.virtual(nodes * cores, nodes=nodes), clock="simulated")
                for cls in (FailingSim, FifoScan)]
    for m in managers:
        m.failing = failing
    names: list[str] = []
    for i in range(jobs):
        earlier = rng.sample(names, k=min(len(names), rng.choice((0, 0, 1, 2))))
        spec = JobSpec(
            name=f"j{i:03d}",
            command=("true",),
            cores=rng.choice((1, 1, 1, 2, 3, nodes * cores // 2, nodes * cores)),
            after=tuple(earlier),
            iterations=rng.choice((1, 1, 1, 2, 3)),
            parallel_iterations=rng.random() < 0.3,
            duration=rng.randint(1, 12) * 0.25,
        )
        failing.update((spec.name, k) for k in range(spec.iterations) if rng.random() < 0.1)
        victim = rng.choice(names) if names and rng.random() < 0.08 else None
        names.append(spec.name)
        for m in managers:
            m.submit(spec)
            if victim is not None and m.job_snapshot(victim)["status"] in (QUEUED, EXECUTING):
                m.cancel(victim)
    for m in managers:
        m.drain()
    return managers


@pytest.mark.parametrize("seed", range(1, 16))
def test_ready_queues_match_fifo_scan(seed):
    new, reference = random_mix(seed)
    assert new.dispatch_trace() == reference.dispatch_trace()
    assert new.report() == reference.report()
    statuses = {it["status"] for job in new.report()["jobs"] for it in job["iterations"]}
    assert SUCCEEDED in statuses


def test_mixes_cover_every_path():
    seen = set()
    mixed_with_omitted_dependent = 0
    for seed in range(1, 16):
        new, _ = random_mix(seed)
        mixed = set()
        for job in new._jobs.values():
            statuses = {t.status for t in job.tasks}
            seen |= statuses
            if {SUCCEEDED, FAILED} <= statuses:
                mixed.add(job.spec.name)
        mixed_with_omitted_dependent += sum(
            1 for job in new._jobs.values()
            if mixed.intersection(job.spec.after) and job.status == OMITTED)
    assert {SUCCEEDED, FAILED, CANCELED, OMITTED} <= seen
    assert mixed_with_omitted_dependent > 0


def test_dispatch_work_is_linear_in_tasks(monkeypatch):
    calls = 0
    allocate = PilotManager._allocate

    def counted(self, cores):
        nonlocal calls
        calls += 1
        return allocate(self, cores)

    monkeypatch.setattr(PilotManager, "_allocate", counted)
    tasks = 15121
    m = PilotManager(Allocation.virtual(8), clock="simulated")
    for i in range(tasks):
        m.submit(JobSpec(name=f"t{i}", command=(), duration=1.0 + i % 4))
    m.drain()
    assert calls <= tasks
    assert all(job["status"] == SUCCEEDED for job in m.report()["jobs"])
