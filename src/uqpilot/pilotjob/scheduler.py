"""Pilot manager core: FIFO scheduling with opportunistic backfill.

One lock serializes every state mutation; task execution runs in worker
threads (wall clock) or through an event heap (simulated clock, declared
durations). A task whose dependencies and previous sequential iteration
have succeeded waits in a min-heap per core count, keyed by submission
number. Dispatch starts the lowest-numbered head among the heaps that fit
the free cores, so the oldest eligible task starts first and later ones
backfill while it does not fit. Dependency counters and a reverse map keep
each state change at O(log n) instead of a scan of the queue.
"""

from __future__ import annotations

import heapq
import itertools
import os
import subprocess
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

from uqpilot.errors import AlreadyTerminal, JobNotFound, ValidationError
from uqpilot.pilotjob.jobs import (
    CANCELED,
    EXECUTING,
    FAILED,
    OMITTED,
    QUEUED,
    SUCCEEDED,
    Allocation,
    Job,
    JobSpec,
    Task,
)

CANCEL_GRACE_SECONDS = 5.0


class PilotManager:
    """Schedules and executes sub-jobs inside one allocation.

    `on_task_event(task)` is called, lock held, as each task starts and
    again as it ends.
    """

    def __init__(self, allocation: Allocation, workdir: str | Path = ".",
                 clock: str = "wall", on_task_event: Callable[[Task], None] | None = None):
        if clock not in ("wall", "simulated"):
            raise ValidationError(f"clock must be wall or simulated, got {clock!r}")
        self.allocation = allocation
        self.workdir = Path(workdir)
        self.clock = clock
        self.on_task_event = on_task_event
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._ready: dict[int, list[tuple[int, Task]]] = {}  # cores -> heap of (seq, task)
        self._dependents: dict[str, list[str]] = {}  # job -> jobs listing it in `after`
        self._pending = 0                           # tasks not yet terminal
        self._task_seq = itertools.count()
        self._free: dict[str, int] = {name: cores for name, cores in allocation.nodes}
        self._busy_cores = 0
        self._accepting = True
        self._epoch = time.monotonic()
        self._sim_now = 0.0
        self._events: list[tuple[float, int, Task]] = []   # (end, seq, task)
        self._event_seq = itertools.count()
        self._procs: dict[tuple[str, int], subprocess.Popen] = {}
        self._trace: list[tuple[float, str, str, int]] = []  # (t, event, job, iteration)

    # --- time ------------------------------------------------------------

    def now(self) -> float:
        if self.clock == "simulated":
            return self._sim_now
        return time.monotonic() - self._epoch

    # --- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Validate and enqueue a job; every iteration becomes one task."""
        with self._cond:
            if not self._accepting:
                raise ValidationError("manager is finishing; no new submissions")
            if spec.name in self._jobs:
                raise ValidationError(f"duplicate job name {spec.name!r}")
            for dep in spec.after:
                if dep not in self._jobs:
                    raise ValidationError(f"job {spec.name!r}: unknown dependency {dep!r}")
            if spec.cores > self.allocation.total_cores:
                raise ValidationError(
                    f"job {spec.name!r} wants {spec.cores} cores; allocation has "
                    f"{self.allocation.total_cores}"
                )
            if self.clock == "simulated" and spec.duration is None:
                raise ValidationError(
                    f"job {spec.name!r}: simulated clock needs a declared duration"
                )
            job = Job(spec=spec)
            now = self.now()
            for k in range(spec.iterations):
                job.tasks.append(Task(job=spec.name, iteration=k, cores=spec.cores,
                                      seq=next(self._task_seq), submit=now))
            self._pending += spec.iterations
            self._jobs[spec.name] = job
            self._enqueue(job)
            self._tick()
            return spec.name

    # --- scheduling core (lock held) ------------------------------------------

    def _enqueue(self, job: Job):
        """Count a new job's unmet dependencies; with none left it is ready.

        A dependency that has already ended broken omits the job at once,
        as the cascade would have done had the job existed then. A job
        submitted later that depends on this one is omitted the same way.
        """
        deps = [self._jobs[name] for name in job.spec.after]
        if any(not dep.all_succeeded and dep.terminal for dep in deps):
            self._end_queued(job.tasks, OMITTED)
            return
        unmet = {dep.spec.name for dep in deps if not dep.all_succeeded}
        for name in unmet:
            self._dependents.setdefault(name, []).append(job.spec.name)
        job.unmet = len(unmet)
        if not unmet:
            self._make_ready(job)

    def _make_ready(self, job: Job):
        """The job's dependencies succeeded: its first (or every parallel) task is eligible."""
        for task in job.tasks if job.spec.parallel_iterations else job.tasks[:1]:
            self._push(task)

    def _push(self, task: Task):
        heapq.heappush(self._ready.setdefault(task.cores, []), (task.seq, task))

    def _allocate(self, cores: int) -> tuple[tuple[str, int], ...]:
        """Take `cores` free cores, filling nodes in order (tasks may span nodes)."""
        taken: list[tuple[str, int]] = []
        need = cores
        for name, _ in self.allocation.nodes:
            grab = min(self._free[name], need)
            if grab > 0:
                taken.append((name, grab))
                self._free[name] -= grab
                need -= grab
                if need == 0:
                    break
        assert need == 0
        self._busy_cores += cores
        return tuple(taken)

    def _release(self, assigned: tuple[tuple[str, int], ...]):
        for name, n in assigned:
            self._free[name] += n
        self._busy_cores -= sum(n for _, n in assigned)
        assert self._busy_cores >= 0

    def _tick(self):
        """Start the lowest-numbered eligible task that fits, until none fits.

        Within one tick free cores only fall and eligibility does not
        change, so this is the order of one FIFO scan that starts every
        eligible task fitting the cores left when it is reached.
        """
        while True:
            free = self.allocation.total_cores - self._busy_cores
            best = None
            for cores, heap in self._ready.items():
                if cores > free:
                    continue
                while heap and heap[0][1].status != QUEUED:
                    heapq.heappop(heap)   # canceled or omitted while waiting
                if heap and (best is None or heap[0][0] < best[0][0]):
                    best = heap
            if best is None:
                return
            self._start(heapq.heappop(best)[1])

    def _start(self, task: Task):
        task.assigned = self._allocate(task.cores)
        task.status = EXECUTING
        task.start = self.now()
        self._trace.append((task.start, "start", task.job, task.iteration))
        if self.on_task_event is not None:
            self.on_task_event(task)
        if self.clock == "simulated":
            duration = self._jobs[task.job].spec.duration
            heapq.heappush(self._events, (task.start + duration, next(self._event_seq), task))
        else:
            threading.Thread(target=self._run_task, args=(task,), daemon=True).start()

    # --- wall-clock execution ----------------------------------------------

    def _io_path(self, spec: JobSpec, task: Task, kind: str) -> Path:
        configured = spec.stdout if kind == "stdout" else spec.stderr
        if configured:
            path = Path(configured)
            if spec.iterations > 1:
                path = path.with_name(f"{path.name}.{task.iteration}")
        else:
            suffix = f".{task.iteration}" if spec.iterations > 1 else ""
            path = self._logs_dir() / f"{spec.name}{suffix}.{kind}"
        if not path.is_absolute():
            base = Path(spec.workdir) if spec.workdir else self.workdir
            path = base / path
        return path

    def _logs_dir(self) -> Path:
        return self.workdir / "pj-logs"

    def _run_task(self, task: Task):
        """Worker thread: run the task's command, then end the task."""
        spec = self._jobs[task.job].spec
        cwd = spec.workdir or str(self.workdir)
        env = None
        if spec.env:
            env = dict(os.environ)
            env.update(dict(spec.env))
        try:
            out_path = self._io_path(spec, task, "stdout")
            err_path = self._io_path(spec, task, "stderr")
            out_path.parent.mkdir(parents=True, exist_ok=True)
            err_path.parent.mkdir(parents=True, exist_ok=True)
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(
                    list(spec.command), cwd=cwd, env=env, stdout=out, stderr=err
                )
                with self._cond:
                    if task.cancel_requested:
                        proc.terminate()
                    self._procs[(task.job, task.iteration)] = proc
                exit_code = proc.wait()
        except OSError:
            exit_code = 127   # could not be started
        except Exception:   # a fault of the manager, not of the command: the task fails
            traceback.print_exc()
            exit_code = None
        self._on_task_exit(task, exit_code)

    def _on_task_exit(self, task: Task, exit_code: int | None):
        with self._cond:
            self._procs.pop((task.job, task.iteration), None)
            task.end = self.now()
            task.exit_code = exit_code
            if task.cancel_requested:
                self._end_task(task, CANCELED)
            else:
                self._end_task(task, SUCCEEDED if exit_code == 0 else FAILED)
            self._cond.notify_all()

    # --- simulated execution -------------------------------------------------

    def drain_simulated(self):
        """Run the event loop until every task is terminal (lock held by caller)."""
        while self._events:
            end, _, task = heapq.heappop(self._events)
            self._sim_now = max(self._sim_now, end)
            task.end = self._sim_now
            task.exit_code = 0
            self._end_task(task, CANCELED if task.cancel_requested else SUCCEEDED)

    # --- state cascade ----------------------------------------------------------

    def _end_task(self, task: Task, status: str):
        """A started task ended: free its cores, propagate, dispatch."""
        self._trace.append((task.end, "end", task.job, task.iteration))
        task.status = status
        self._pending -= 1
        self._release(task.assigned)
        if self.on_task_event is not None:
            self.on_task_event(task)
        job = self._jobs[task.job]
        if status == SUCCEEDED:
            job.succeeded += 1
            if job.all_succeeded:
                for name in self._dependents.get(job.spec.name, ()):
                    self._jobs[name].unmet -= 1
                    if self._jobs[name].unmet == 0:
                        self._make_ready(self._jobs[name])
            elif not job.spec.parallel_iterations:
                self._push(job.tasks[task.iteration + 1])
        elif not job.spec.parallel_iterations:
            self._end_queued(job.tasks[task.iteration + 1:], OMITTED)
        if job.terminal and not job.all_succeeded:   # broken once its last task ended
            self._omit_dependents(job.spec.name)
        self._tick()

    def _end_queued(self, tasks, status: str) -> bool:
        """Move the QUEUED ones of `tasks` straight to a terminal `status`."""
        changed = False
        for t in tasks:
            if t.status == QUEUED:
                t.status = status
                self._pending -= 1
                changed = True
        return changed

    def _omit_dependents(self, name: str):
        stack = [name]
        while stack:
            for other in self._dependents.get(stack.pop(), ()):
                job = self._jobs[other]
                if self._end_queued(job.tasks, OMITTED) and job.terminal:
                    stack.append(other)

    # --- operations -----------------------------------------------------------

    def cancel(self, name: str):
        """QUEUED tasks cancel immediately; EXECUTING ones get a grace signal."""
        with self._cond:
            job = self._jobs.get(name)
            if job is None:
                raise JobNotFound(f"no job named {name!r}")
            if job.terminal:
                raise AlreadyTerminal(f"job {name!r} is already terminal")
            self._end_queued(job.tasks, CANCELED)
            for t in job.tasks:
                if t.status != EXECUTING:
                    continue
                t.cancel_requested = True
                proc = self._procs.get((t.job, t.iteration))
                if proc is not None:
                    proc.terminate()
                    timer = threading.Timer(CANCEL_GRACE_SECONDS, proc.kill)
                    timer.daemon = True
                    timer.start()
            if job.terminal:
                self._omit_dependents(name)
            self._cond.notify_all()

    def cancel_all(self):
        """Cancel every non-terminal job under one lock hold: nothing starts meanwhile."""
        with self._cond:
            for name, job in self._jobs.items():
                if not job.terminal:
                    self.cancel(name)

    def job_snapshot(self, name: str) -> dict:
        with self._cond:
            job = self._jobs.get(name)
            if job is None:
                raise JobNotFound(f"no job named {name!r}")
            return self._job_doc(job)

    def _job_doc(self, job: Job) -> dict:
        return {
            "name": job.spec.name,
            "status": job.status,
            "cores": job.spec.cores,
            "iterations": [
                {
                    "iteration": t.iteration,
                    "status": t.status,
                    "submit": t.submit,
                    "start": t.start,
                    "end": t.end,
                    "cores": t.cores,
                    "exit_code": t.exit_code,
                }
                for t in job.tasks
            ],
        }

    def status_snapshot(self) -> dict:
        with self._cond:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return {
                "jobs": len(self._jobs),
                "status_counts": counts,
                "total_cores": self.allocation.total_cores,
                "busy_cores": self._busy_cores,
                "free_cores": self.allocation.total_cores - self._busy_cores,
                "time": self.now(),
            }

    def resources_snapshot(self) -> dict:
        with self._cond:
            return {
                "mode": self.allocation.mode,
                "total_cores": self.allocation.total_cores,
                "free_cores": self.allocation.total_cores - self._busy_cores,
                "nodes": [
                    {"name": n, "cores": c, "free": self._free[n]}
                    for n, c in self.allocation.nodes
                ],
            }

    def dispatch_trace(self) -> list[tuple[float, str, str, int]]:
        """Chronological (time, event, job, iteration) start/end records."""
        with self._cond:
            return list(self._trace)

    def drain(self):
        """Stop accepting work and wait until every task is terminal."""
        with self._cond:
            self._accepting = False
            if self.clock == "simulated":
                self.drain_simulated()
                return
            while self._pending:
                self._cond.wait(timeout=0.5)

    def report(self) -> dict:
        """Makespan, overhead against the ideal bound, utilization trace."""
        with self._cond:
            records = [self._job_doc(job) for job in self._jobs.values()]
            executed = [
                t
                for job in self._jobs.values()
                for t in job.tasks
                if t.start is not None and t.end is not None
            ]
            if executed:
                t0 = min(t.start for t in executed)
                t1 = max(t.end for t in executed)
                makespan = t1 - t0
                core_seconds = sum(t.cores * (t.end - t.start) for t in executed)
                longest = max(t.end - t.start for t in executed)
                ideal = max(core_seconds / self.allocation.total_cores, longest)
                trace = self._utilization(executed, t0)
            else:
                makespan = 0.0
                ideal = 0.0
                trace = []
            return {
                "allocation": self.allocation.to_json(),
                "clock": self.clock,
                "makespan": makespan,
                "ideal_lower_bound": ideal,
                "overhead": makespan - ideal,
                "overhead_fraction": (makespan / ideal - 1.0) if ideal > 0 else 0.0,
                "utilization": trace,
                "jobs": records,
            }

    @staticmethod
    def _utilization(tasks, t0: float) -> list[list[float]]:
        events: list[tuple[float, int]] = []
        for t in tasks:
            events.append((t.start - t0, t.cores))
            events.append((t.end - t0, -t.cores))
        events.sort()
        trace: list[list[float]] = []
        busy = 0
        for when, delta in events:
            busy += delta
            if trace and abs(trace[-1][0] - when) < 1e-12:
                trace[-1][1] = busy
            else:
                trace.append([when, busy])
        return trace
