"""Pilot manager core: FIFO scheduling with opportunistic backfill.

The allocation is a plain count of cores; a task takes its cores from
that count as it starts and gives them back as it ends. A wall-clock
manager starts real processes, so it refuses an allocation above
`LOCAL_CORE_MULTIPLE` times the detected cores (`PJ_VIRTUAL_CORES`
raises the detected count); a simulated one takes any count.

The manager starts no thread and takes no lock; only its owner's thread
calls it. A task whose dependencies and previous sequential iteration have
succeeded waits in a min-heap per core count, keyed by submission number.
Dispatch starts the lowest-numbered head among the heaps that fit the free
cores, so the oldest eligible task starts first and later ones backfill
while it does not fit. Dependency counters and a reverse map keep each
state change at O(log n) instead of a scan of the queue.

A simulated clock ends tasks through an event heap of their declared
durations. On the wall clock, one launcher process (`launcher.py`),
started with the first task, starts, signals and reaps every task, each
in a process group of its own with /dev/null as stdin (a group, not a
session: `setsid` makes a scheduler autogroup per run, 0.36 ms more per
`cp` run on a 2-vCPU Linux VM). `wait` selects on its reports up to the
next deadline, the SIGKILL after a cancel's SIGTERM and grace period;
`submit` and the snapshots first take in reports already there. A task's
request carries `os.environ` with the job's `env` over it, or None when the
job has no `env` and `os.environ` is as it was when the launcher started
(its encoded items compared with a snapshot). A job with a `callable` is
a `call` request, which runs on one of the launcher's workers; for any
other, the launcher alone decides whether the run starts warm or executed
(see `launcher.py`). It reports which in `Task.start_mode`. A task that
cannot start ends with exit 127, as does the rest of a dispatch pass in
which no launcher could start. At a launcher's exit the loop SIGKILLs the
group of each run it left and fails its tasks; the next task starts a new
launcher. `drain` runs the loop until no task is pending and the launcher
has exited, so the runs' CPU time reaches the caller's `RUSAGE_CHILDREN`.
Used as a context manager, the manager cancels every job and drains on
any exception, so no run outlives it.
"""

from __future__ import annotations

import heapq
import itertools
import marshal
import os
import select
import signal
import subprocess
import sys
import time
from operator import itemgetter
from pathlib import Path

from uqpilot.errors import AlreadyTerminal, JobNotFound, ValidationError
from uqpilot.pilotjob.jobs import (
    CANCELED,
    EXECUTING,
    FAILED,
    OMITTED,
    LOCAL_CORE_MULTIPLE,
    QUEUED,
    SUCCEEDED,
    Job,
    JobSpec,
    Task,
    detected_cores,
)

CANCEL_GRACE_SECONDS = 5.0
LAUNCHER = Path(__file__).with_name("launcher.py")


class _Launcher:
    """The manager's end of a launcher process (see `launcher.py`) and the tasks
    it holds, which keep what is in flight far below what the pipes hold."""

    def __init__(self):
        self.environ = dict(os.environ._data)   # encoded: compared per task at C speed
        self.running = True
        req_r, self._requests = os.pipe()
        self.reports, rep_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), str(req_r), str(rep_w)],
                pass_fds=(req_r, rep_w), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, start_new_session=True)
        except OSError:
            os.close(self._requests)
            os.close(self.reports)
            raise
        finally:
            os.close(req_r)
            os.close(rep_w)
        self.tasks: dict[int, Task] = {}    # seq -> task requested and not ended
        self._groups: dict[int, int] = {}   # seq -> pid of each run started and not ended
        self._partial = b""

    def read(self) -> list[tuple[Task, int | None]]:
        """(task, exit code) of each task ended since the last read, each task
        started given its `start_mode`; at EOF, the launcher reaped and its
        runs' groups SIGKILLed, of every task left (None)."""
        data = os.read(self.reports, 65536)
        if not data:
            self.running = False
            os.close(self.reports)
            self.end_requests()
            self.proc.wait()
            for pid in self._groups.values():   # left running by a launcher killed outright
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            return [(self.tasks.pop(seq), None) for seq in list(self.tasks)]
        *lines, self._partial = (self._partial + data).split(b"\n")
        ended = []
        for line in lines:
            fields = line.split()
            if len(fields) == 3:   # a start: "<seq> warm|exec <pid>"
                seq = int(fields[0])
                self._groups[seq] = int(fields[2])
                self.tasks[seq].start_mode = fields[1].decode()
                continue
            seq, code = map(int, fields)
            self._groups.pop(seq, None)
            if seq in self.tasks:   # else a signal's answer, sent as the task ended
                ended.append((self.tasks.pop(seq), code))
        return ended

    def send(self, request: tuple) -> bool:
        """Write one request; False once the launcher is gone or its requests ended."""
        frame = marshal.dumps(request)
        frame = len(frame).to_bytes(4, "little") + frame
        try:
            while frame:
                frame = frame[os.write(self._requests, frame):]
        except OSError:
            return False
        return True

    def end_requests(self):
        """Close the request pipe: the launcher kills any run left, and exits."""
        if self._requests >= 0:
            os.close(self._requests)
            self._requests = -1


class PilotManager:
    """Schedules and executes sub-jobs inside an allocation of `cores` cores."""

    def __init__(self, cores: int, workdir: str | Path = ".", clock: str = "wall"):
        if clock not in ("wall", "simulated"):
            raise ValidationError(f"clock must be wall or simulated, got {clock!r}")
        if cores < 1:
            raise ValidationError(f"allocation needs at least 1 core, got {cores}")
        if clock == "wall" and cores > LOCAL_CORE_MULTIPLE * detected_cores():
            raise ValidationError(
                f"allocation of {cores} cores exceeds {LOCAL_CORE_MULTIPLE}x the "
                f"{detected_cores()} detected cores"
            )
        self.cores = cores
        self.workdir = Path(workdir)
        self.clock = clock
        self._jobs: dict[str, Job] = {}
        self._ready: dict[int, list[tuple[int, Task]]] = {}  # cores -> heap of (seq, task)
        self._dependents: dict[str, list[str]] = {}  # job -> jobs listing it in `after`
        self._pending = 0                           # tasks not yet terminal
        self._task_seq = itertools.count()
        self._busy_cores = 0
        self._accepting = True
        self._epoch = time.monotonic()
        self._sim_now = 0.0
        self._events: list[tuple[float, int, Task]] = []   # (end, seq, task)
        self._event_seq = itertools.count()
        self._launcher: _Launcher | None = None
        self._launch_failed = False           # a launcher could not start in this dispatch pass
        self._kills: list[tuple[float, int]] = []   # heap of (monotonic deadline, seq) for SIGKILL
        self._changes: list[tuple[str, str]] = []   # (job, status) of each start and end for `wait`
        self._trace: list[tuple[float, str, str, int]] = []  # (t, event, job, iteration)

    def __enter__(self) -> PilotManager:
        return self

    def __exit__(self, kind, value, traceback):
        """On any exception, `KeyboardInterrupt` and `SystemExit` included,
        cancel every job and drain: each run is in a process group of its
        own, which a signal to the caller's group misses."""
        if kind is not None:
            self.cancel_all()
            self.drain()

    # --- time ------------------------------------------------------------

    def now(self) -> float:
        if self.clock == "simulated":
            return self._sim_now
        return time.monotonic() - self._epoch

    # --- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Validate and enqueue a job; every iteration becomes one task."""
        self._poll(0.0)
        if not self._accepting:
            raise ValidationError("manager is finishing; no new submissions")
        if spec.name in self._jobs:
            raise ValidationError(f"duplicate job name {spec.name!r}")
        for dep in spec.after:
            if dep not in self._jobs:
                raise ValidationError(f"job {spec.name!r}: unknown dependency {dep!r}")
        if spec.cores > self.cores:
            raise ValidationError(
                f"job {spec.name!r} wants {spec.cores} cores; allocation has {self.cores}"
            )
        if self.clock == "simulated" and spec.duration is None:
            raise ValidationError(
                f"job {spec.name!r}: simulated clock needs a declared duration"
            )
        if self.clock == "wall" and not spec.command:
            raise ValidationError(f"job {spec.name!r}: wall clock needs a command")
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

    # --- scheduling core ------------------------------------------------------

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

    def _tick(self):
        """Start the lowest-numbered eligible task that fits, until none fits.

        Within one tick eligibility does not change, and free cores only
        fall, but for a task that cannot start: it ends at once, and the
        next pass sees the cores it gave back.
        """
        self._launch_failed = False
        while True:
            free = self.cores - self._busy_cores
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
        self._busy_cores += task.cores
        task.status = EXECUTING
        task.start = self.now()
        self._trace.append((task.start, "start", task.job, task.iteration))
        if self.clock == "simulated":
            duration = self._jobs[task.job].spec.duration
            heapq.heappush(self._events, (task.start + duration, next(self._event_seq), task))
            return
        self._changes.append((task.job, EXECUTING))
        if not self._launch(task):
            self._finish(task, 127)   # the calling `_tick` goes on dispatching

    # --- wall-clock execution ----------------------------------------------

    def _io_path(self, spec: JobSpec, task: Task, kind: str) -> Path:
        configured = spec.stdout if kind == "stdout" else spec.stderr
        if not configured:
            suffix = f".{task.iteration}" if spec.iterations > 1 else ""
            return self.workdir / "pj-logs" / f"{spec.name}{suffix}.{kind}"
        path = Path(configured)
        if spec.iterations > 1:
            path = path.with_name(f"{path.name}.{task.iteration}")
        return Path(spec.workdir or self.workdir) / path   # an absolute path stays

    def _launch(self, task: Task) -> bool:
        """Have the launcher start `task`, starting a launcher first if none
        is running; False if none could be started in this dispatch pass."""
        launcher = self._launcher
        if launcher is None or not launcher.running:
            if self._launch_failed:
                return False
            try:
                launcher = self._launcher = _Launcher()
            except OSError:
                self._launch_failed = True
                return False
        spec = self._jobs[task.job].spec
        env = None
        if spec.env or os.environ._data != launcher.environ:
            env = dict(os.environ)
            env.update(spec.env)
        # registered before the request is written: an interrupt between the
        # two leaves a task that cancel can still end, as the launcher reports
        # a signal to a task it lacks; if the launcher has exited, the write
        # fails and the loop, at the launcher's EOF, fails the task with the rest
        launcher.tasks[task.seq] = task
        where = (task.seq, os.path.abspath(spec.workdir or self.workdir),
                 os.path.abspath(self._io_path(spec, task, "stdout")),
                 os.path.abspath(self._io_path(spec, task, "stderr")))
        if spec.callable:
            launcher.send(("call", *where, spec.callable, spec.command, env))
        else:
            launcher.send(("run", *where, spec.command, env))
        return True

    def _poll(self, timeout: float | None, fds=()) -> list:
        """Select on the reports and `fds` for at most `timeout` s (None: no limit)
        or until the next deadline, then end tasks, dispatch and fire deadlines."""
        kills = self._kills
        if kills:
            due = max(kills[0][0] - time.monotonic(), 0.0)
            timeout = due if timeout is None else min(timeout, due)
        launcher = self._launcher
        reports = launcher.reports if launcher is not None and launcher.running else -1
        watch = [*fds, reports] if reports >= 0 else list(fds)
        if not watch and not timeout:
            return []
        ready = select.select(watch, [], [], timeout)[0]
        if reports in ready:
            for task, exit_code in launcher.read():
                self._finish(task, exit_code)
            self._tick()
        while kills and kills[0][0] <= time.monotonic():
            seq = heapq.heappop(kills)[1]
            if seq in self._launcher.tasks:   # else it ended within the grace period
                self._launcher.send(("signal", seq, int(signal.SIGKILL)))
        return [fd for fd in ready if fd != reports]

    def wait(self, fds=()) -> tuple[list[tuple[str, str]], list]:
        """One pass of the event loop (`_poll`), blocking only while it has no
        start (EXECUTING) or end to return as (job, status); and the ready `fds`."""
        ready = self._poll(0.0 if self._changes else None, fds)
        changes, self._changes = self._changes, []
        return changes, ready

    def _finish(self, task: Task, exit_code: int | None):
        """A started task ended with `exit_code` (no dispatch)."""
        task.end = self.now()
        task.exit_code = exit_code
        self._end_task(task, CANCELED if task.cancel_requested
                       else SUCCEEDED if exit_code == 0 else FAILED)
        self._changes.append((task.job, task.status))

    # --- simulated execution -------------------------------------------------

    def drain_simulated(self):
        """Run the event loop until every task is terminal."""
        while self._events:
            end, _, task = heapq.heappop(self._events)
            self._sim_now = max(self._sim_now, end)
            task.end = self._sim_now
            task.exit_code = 0
            self._end_task(task, CANCELED if task.cancel_requested else SUCCEEDED)
            self._tick()

    # --- state cascade ----------------------------------------------------------

    def _end_task(self, task: Task, status: str):
        """A started task ended: free its cores and propagate. The caller
        dispatches, so that a task ending as `_tick` starts it does not
        recurse into `_tick`."""
        self._trace.append((task.end, "end", task.job, task.iteration))
        task.status = status
        self._pending -= 1
        self._busy_cores -= task.cores
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
        """QUEUED tasks cancel immediately; the process group of an
        EXECUTING one gets SIGTERM, and SIGKILL after a grace period."""
        job = self._jobs.get(name)
        if job is None:
            raise JobNotFound(f"no job named {name!r}")
        if job.terminal:
            raise AlreadyTerminal(f"job {name!r} is already terminal")
        self._end_queued(job.tasks, CANCELED)
        launcher = self._launcher
        for t in job.tasks:
            if t.status != EXECUTING:
                continue
            t.cancel_requested = True
            if launcher is not None and launcher.running:   # else a simulated task
                launcher.tasks[t.seq] = t   # again, should an interrupt have lost its report
                launcher.send(("signal", t.seq, int(signal.SIGTERM)))
                heapq.heappush(self._kills,
                               (time.monotonic() + CANCEL_GRACE_SECONDS, t.seq))
        if job.terminal:
            self._omit_dependents(name)

    def cancel_all(self):
        """Cancel every non-terminal job; nothing starts meanwhile."""
        for name, job in self._jobs.items():
            if not job.terminal:
                self.cancel(name)

    def job_snapshot(self, name: str) -> dict:
        self._poll(0.0)
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
        self._poll(0.0)
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return {
            "jobs": len(self._jobs),
            "status_counts": counts,
            "total_cores": self.cores,
            "busy_cores": self._busy_cores,
            "free_cores": self.cores - self._busy_cores,
            "time": self.now(),
        }

    def dispatch_trace(self) -> list[tuple[float, str, str, int]]:
        """Chronological (time, event, job, iteration) start/end records."""
        return list(self._trace)

    def drain(self, block: bool = True) -> bool:
        """Stop accepting work; run the event loop until no task is pending
        and the launcher, its requests ended, has exited (with `block` false,
        only check). Whether drained; what `wait` would return is dropped."""
        self._accepting = False
        if self.clock == "simulated":
            self.drain_simulated()
            return True
        while self._pending or self._launcher is not None and self._launcher.running:
            if not self._pending:
                self._launcher.end_requests()
            if not block:
                return False
            self.wait()
        return True

    def report(self) -> dict:
        """Makespan, overhead against the ideal bound, utilization trace."""
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
            ideal = max(core_seconds / self.cores, longest)
            trace = self._utilization(executed, t0)
        else:
            makespan = 0.0
            ideal = 0.0
            trace = []
        return {
            "cores": self.cores,
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
        """[time, busy cores] steps; events less than 1e-12 after a step merge into it."""
        events = [(t.start - t0, t.cores) for t in tasks]
        events += [(t.end - t0, -t.cores) for t in tasks]
        # by time alone: a step keeps the count after all of its events, in any order
        events.sort(key=itemgetter(0))
        trace: list[list[float]] = []
        step = [float("-inf"), 0]
        busy = 0
        for when, delta in events:
            busy += delta
            if when - step[0] < 1e-12:
                step[1] = busy
            else:
                step = [when, busy]
                trace.append(step)
        return trace
