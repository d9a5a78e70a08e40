"""Pilot manager core: FIFO scheduling with opportunistic backfill.

The allocation is a plain count of cores; a task takes its cores from
that count as it starts and gives them back as it ends. A wall-clock
manager starts real processes, so it refuses an allocation above
`LOCAL_CORE_MULTIPLE` times the detected cores (`PJ_VIRTUAL_CORES`
raises the detected count); a simulated one takes any count.

One lock serializes every state mutation. A task whose dependencies and
previous sequential iteration have succeeded waits in a min-heap per core
count, keyed by submission number. Dispatch starts the lowest-numbered
head among the heaps that fit the free cores, so the oldest eligible task
starts first and later ones backfill while it does not fit. Dependency
counters and a reverse map keep each state change at O(log n) instead of
a scan of the queue.

A simulated clock ends tasks through an event heap of their declared
durations. On the wall clock, every task runs in a process group of its
own with /dev/null as stdin, and cancel signals that whole group: SIGTERM,
then SIGKILL after a grace period. It is a group and not a session because
`setsid` creates a scheduler autogroup per run on kernels with autogroups
(0.36 ms more per `cp` run on a 2-vCPU Linux VM); only Python 3.10, whose
`subprocess` cannot make a group, makes a session. A task starts one of
two ways, chosen from its command:

- **warm**: `[python, "-m", module, *args]`, where `python` is this
  interpreter's `sys.executable` (as given or found on PATH), with no job
  `env`, while every `PYTHONPATH` entry is absolute and `os.environ` is as
  it was when the launcher started. A launcher process (`launcher.py`,
  started with the first such task) forks the run from its one started
  interpreter, which saves an interpreter start-up per run; one reader
  thread ends each task from the launcher's exit reports.
- **exec**: every other command, through `subprocess` from a worker
  thread of its own.

`drain` waits for the launcher to exit, so the runs' CPU time reaches the
caller's `RUSAGE_CHILDREN` and no run outlives the manager.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import marshal
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from operator import itemgetter
from pathlib import Path
from typing import Callable

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
_OWN_GROUP = {"process_group": 0} if sys.version_info >= (3, 11) else {"start_new_session": True}


def runs_this_python_module(command) -> bool:
    """Whether `command` is `[python, "-m", module, ...]` with no interpreter
    option, and `python` is this interpreter's own path (a symlink to it may
    be another installation's prefix, so a path only)."""
    if len(command) < 3 or command[1] != "-m" or not sys.executable:
        return False
    path = command[0] if os.sep in command[0] else shutil.which(command[0])
    return path is not None and os.path.isabs(path) and \
        os.path.normpath(path) == os.path.normpath(sys.executable)


def _pythonpath_is_absolute() -> bool:
    """Whether every PYTHONPATH entry is absolute: an interpreter makes a
    relative one absolute against the directory it starts in, which for the
    launcher is not the run's."""
    paths = os.environ.get("PYTHONPATH")
    return not paths or all(os.path.isabs(p) for p in paths.split(os.pathsep))


def _signal_group(proc: subprocess.Popen, signum: int):
    """Signal the process group `proc` leads, unless `proc` has been reaped."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signum)
        except ProcessLookupError:
            pass


class _Launcher:
    """The manager's end of a warm launcher process (see `launcher.py`).

    `on_report(seq, code)` is called from a reader thread for each exit
    the launcher reports, and `on_report(None, None)` once it has exited.
    Requests in flight are bounded by the allocation's tasks, far below
    what the pipes hold, so a write never waits on the reader.
    """

    def __init__(self, on_report: Callable[[int | None, int | None], None]):
        self.env = dict(os.environ)
        self.running = True
        self._lock = threading.Lock()       # one request written at a time
        req_r, self._requests = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), str(req_r), str(rep_w)],
                pass_fds=(req_r, rep_w), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, start_new_session=True)
        except OSError:
            os.close(self._requests)
            os.close(rep_r)
            raise
        finally:
            os.close(req_r)
            os.close(rep_w)
        self._reader = threading.Thread(target=self._read, args=(rep_r, on_report),
                                        daemon=True)
        self._reader.start()

    @staticmethod
    def _read(fd: int, on_report):
        with open(fd, "rb") as reports:
            for line in reports:
                seq, code = map(int, line.split())
                on_report(seq, code)
        on_report(None, None)

    def send(self, request: tuple) -> bool:
        """Write one request; False once the launcher is gone or closed."""
        frame = marshal.dumps(request)
        frame = len(frame).to_bytes(4, "little") + frame
        with self._lock:
            try:
                while frame:
                    frame = frame[os.write(self._requests, frame):]
            except OSError:
                return False
        return True

    def close(self):
        """End the requests, so the launcher exits, and wait for it and its reports."""
        with self._lock:
            if self._requests >= 0:
                os.close(self._requests)
                self._requests = -1
        self.proc.wait()
        self._reader.join()


class PilotManager:
    """Schedules and executes sub-jobs inside an allocation of `cores` cores.

    `on_task_event(task)` is called, lock held, as each task starts and
    again as it ends.
    """

    def __init__(self, cores: int, workdir: str | Path = ".",
                 clock: str = "wall", on_task_event: Callable[[Task], None] | None = None):
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
        self.on_task_event = on_task_event
        self._cond = threading.Condition()
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
        # (job, iteration) -> signal(signum) of each running task's process group
        self._kills: dict[tuple[str, int], Callable[[int], None]] = {}
        self._launcher: _Launcher | None = None
        self._warm: dict[int, Task] = {}    # seq -> task the launcher runs
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
            if spec.cores > self.cores:
                raise ValidationError(
                    f"job {spec.name!r} wants {spec.cores} cores; allocation has {self.cores}"
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

    def _tick(self):
        """Start the lowest-numbered eligible task that fits, until none fits.

        Within one tick free cores only fall and eligibility does not
        change, so this is the order of one FIFO scan that starts every
        eligible task fitting the cores left when it is reached.
        """
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
        if self.on_task_event is not None:
            self.on_task_event(task)
        if self.clock == "simulated":
            duration = self._jobs[task.job].spec.duration
            heapq.heappush(self._events, (task.start + duration, next(self._event_seq), task))
        elif not self._start_warm(task):
            threading.Thread(target=self._run_task, args=(task,), daemon=True).start()

    # --- wall-clock execution ----------------------------------------------

    def _io_path(self, spec: JobSpec, task: Task, kind: str) -> Path:
        configured = spec.stdout if kind == "stdout" else spec.stderr
        if not configured:      # the logs dir already starts with the manager workdir
            suffix = f".{task.iteration}" if spec.iterations > 1 else ""
            return self._logs_dir() / f"{spec.name}{suffix}.{kind}"
        path = Path(configured)
        if spec.iterations > 1:
            path = path.with_name(f"{path.name}.{task.iteration}")
        if not path.is_absolute():
            base = Path(spec.workdir) if spec.workdir else self.workdir
            path = base / path
        return path

    def _logs_dir(self) -> Path:
        return self.workdir / "pj-logs"

    def _start_warm(self, task: Task) -> bool:
        """Have the launcher run `task`, starting it first, if the task's
        command can run warm (lock held); False to execute it instead."""
        spec = self._jobs[task.job].spec
        if spec.env or not runs_this_python_module(spec.command) \
                or not _pythonpath_is_absolute():
            return False
        if self._launcher is None:
            try:
                self._launcher = _Launcher(self._on_launcher_report)
            except OSError:
                return False
        launcher = self._launcher
        if not launcher.running or os.environ != launcher.env:
            return False
        request = ("run", task.seq, os.path.abspath(spec.workdir or self.workdir),
                   os.path.abspath(self._io_path(spec, task, "stdout")),
                   os.path.abspath(self._io_path(spec, task, "stderr")), spec.command)
        # registered before the request is written: an interrupt between the
        # two (a signal handler on this thread) leaves a task that cancel
        # can still end, as the launcher reports a signal to a task it lacks
        self._warm[task.seq] = task
        self._kills[(task.job, task.iteration)] = \
            lambda signum: launcher.send(("signal", task.seq, int(signum)))
        if launcher.send(request):
            return True
        del self._warm[task.seq], self._kills[(task.job, task.iteration)]
        return False

    def _on_launcher_report(self, seq: int | None, exit_code: int | None):
        """Reader thread: end a warm task, or every one left once the launcher
        is gone. A second report for a task, answering a signal sent as it
        ended, is ignored."""
        with self._cond:
            if seq is not None:
                task = self._warm.pop(seq, None)
                if task is not None:
                    self._on_task_exit(task, exit_code)
                return
            self._launcher.running = False
            stranded = list(self._warm.values())
            self._warm.clear()
            for task in stranded:
                self._on_task_exit(task, None)

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
                    list(spec.command), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                    stdout=out, stderr=err, **_OWN_GROUP
                )
                kill = functools.partial(_signal_group, proc)
                with self._cond:
                    if task.cancel_requested:
                        kill(signal.SIGTERM)
                    self._kills[(task.job, task.iteration)] = kill
                exit_code = proc.wait()
        except OSError:
            exit_code = 127   # could not be started
        except Exception:   # a fault of the manager, not of the command: the task fails
            traceback.print_exc()
            exit_code = None
        self._on_task_exit(task, exit_code)

    def _on_task_exit(self, task: Task, exit_code: int | None):
        with self._cond:
            self._kills.pop((task.job, task.iteration), None)
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
        self._busy_cores -= task.cores
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
        """QUEUED tasks cancel immediately; the process group of an
        EXECUTING one gets SIGTERM, and SIGKILL after a grace period."""
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
                kill = self._kills.get((t.job, t.iteration))
                if kill is not None:
                    kill(signal.SIGTERM)
                    timer = threading.Timer(CANCEL_GRACE_SECONDS, kill, (signal.SIGKILL,))
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
                "total_cores": self.cores,
                "busy_cores": self._busy_cores,
                "free_cores": self.cores - self._busy_cores,
                "time": self.now(),
            }

    def dispatch_trace(self) -> list[tuple[float, str, str, int]]:
        """Chronological (time, event, job, iteration) start/end records."""
        with self._cond:
            return list(self._trace)

    def drain(self):
        """Stop accepting work, wait until every task is terminal, then for
        the launcher to exit."""
        with self._cond:
            self._accepting = False
            if self.clock == "simulated":
                self.drain_simulated()
                return
            while self._pending:
                self._cond.wait(timeout=0.5)
        if self._launcher is not None:
            self._launcher.close()

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
