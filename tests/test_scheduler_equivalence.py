"""The ready-queue scheduler against the full FIFO rescan it replaced.

``FifoScan`` keeps the earlier rules as a reference: every tick scans all
tasks in submission order and starts each eligible one that fits the cores
left, after omitting every job that depends on a terminal, broken job; a
task end omits a broken sequential job's later iterations. On seeded
random mixes, whose jobs are submitted while earlier ones run, end or are
canceled, both managers must give the same dispatch trace and the same
report.
"""

import heapq
import math
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
    JobSpec,
)
from uqpilot.pilotjob.scheduler import PilotManager


class TracingSim(PilotManager):
    """A manager that keeps each task's start and end, as (time, event, job,
    iteration), in ``trace`` in the order they happen."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace: list[tuple[float, str, str, int]] = []

    def _start(self, task):
        # logged first, so a task that ends inside _start logs its start before its end
        self.trace.append((self.now(), "start", task.job, task.iteration))
        super()._start(task)

    def _end_task(self, task, status):
        self.trace.append((task.end, "end", task.job, task.iteration))
        super()._end_task(task, status)


class FailingSim(TracingSim):
    """Simulated clock where the (job, iteration) pairs in ``failing`` fail."""

    failing: set = set()
    omitted_at_submit: list   # set per manager by random_mix

    def submit(self, spec):
        """Submit, noting a job that a broken dependency omits at once."""
        name = super().submit(spec)
        if self._jobs[name].status == OMITTED:
            self.omitted_at_submit.append(name)
        return name

    def drain_simulated(self):
        self.advance(math.inf)

    def advance(self, until: float):
        """End, in time order, every started task due by `until`."""
        while self._events and self._events[0][0] <= until:
            end, _, task = heapq.heappop(self._events)
            self._sim_now = max(self._sim_now, end)
            task.end = self._sim_now
            failed = (task.job, task.iteration) in self.failing
            task.exit_code = 1 if failed else 0
            status = CANCELED if task.cancel_requested else FAILED if failed else SUCCEEDED
            self._end_task(task, status)
            self._tick()


class FifoScan(FailingSim):
    """Reference: rescan every task, in submission order, on every tick.

    The inherited ready heaps, counters and dependents map stay empty.
    """

    def _enqueue(self, job):
        pass

    def _eligible(self, task) -> bool:
        job = self._jobs[task.job]
        if any(self._jobs[dep].status != SUCCEEDED for dep in job.spec.after):
            return False
        if task.iteration > 0 and not job.spec.parallel_iterations:
            return job.tasks[task.iteration - 1].status == SUCCEEDED
        return True

    def _tick(self):
        # submission order puts every dependency before its dependents,
        # so one pass carries the omission down a chain
        for job in self._jobs.values():
            deps = [self._jobs[dep] for dep in job.spec.after]
            if any(dep.terminal and dep.status in BROKEN for dep in deps):
                for task in job.tasks:
                    if task.status == QUEUED:
                        task.status = OMITTED
        for job in self._jobs.values():
            for task in job.tasks:
                free = self.cores - self._busy_cores
                if task.status == QUEUED and self._eligible(task) and task.cores <= free:
                    self._start(task)

    def _end_task(self, task, status):
        self.trace.append((task.end, "end", task.job, task.iteration))
        task.status = status
        self._busy_cores -= task.cores
        job = self._jobs[task.job]
        if status in BROKEN and not job.spec.parallel_iterations:
            for later in job.tasks[task.iteration + 1:]:
                if later.status == QUEUED:
                    later.status = OMITTED

    def cancel(self, name):
        super().cancel(name)
        self._tick()


def random_mix(seed: int, jobs: int = 120, nodes: int = 3, cores: int = 4,
               late: bool = False):
    """Submit a seeded mix to both managers; cancel now and then between submits.

    About one iteration in ten fails, so jobs with several iterations can
    end with some iterations SUCCEEDED and others FAILED. With `late`, the
    simulated clock also moves on now and then between submits, so later
    jobs can depend on jobs that have already ended.
    """
    rng = random.Random(seed)
    clock = 0.0
    failing: set[tuple[str, int]] = set()
    managers = [cls(nodes * cores, clock="simulated")
                for cls in (FailingSim, FifoScan)]
    for m in managers:
        m.failing = failing
        m.omitted_at_submit = []
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
        if late and rng.random() < 0.2:
            clock += rng.randint(1, 8) * 0.25
            for m in managers:
                m.advance(clock)
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
    assert new.trace == reference.trace
    assert new.report() == reference.report()
    statuses = {it["status"] for job in new.report()["jobs"] for it in job["iterations"]}
    assert SUCCEEDED in statuses


@pytest.mark.parametrize("seed", range(16, 26))
def test_late_submissions_match_fifo_scan(seed):
    new, reference = random_mix(seed, late=True)
    assert new.trace == reference.trace
    assert new.report() == reference.report()
    assert new.omitted_at_submit == reference.omitted_at_submit
    assert all(job.terminal for job in new._jobs.values())


def test_late_mixes_submit_jobs_after_a_dependency_failed():
    after_failure = 0
    for seed in range(16, 26):
        new, _ = random_mix(seed, late=True)
        after_failure += sum(
            1 for name in new.omitted_at_submit
            if any(new._jobs[dep].status == FAILED for dep in new._jobs[name].spec.after))
    assert after_failure > 0


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
    start = PilotManager._start

    def counted(self, task):
        nonlocal calls
        calls += 1
        return start(self, task)

    monkeypatch.setattr(PilotManager, "_start", counted)
    tasks = 15121
    m = PilotManager(8, clock="simulated")
    for i in range(tasks):
        m.submit(JobSpec(name=f"t{i}", command=(), duration=1.0 + i % 4))
    m.drain()
    assert calls <= tasks
    assert all(job["status"] == SUCCEEDED for job in m.report()["jobs"])
