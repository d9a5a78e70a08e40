"""Launcher: start, signal and reap every run of one wall-clock `PilotManager`.

    python -I -S launcher.py REQUEST_FD REPORT_FD

The manager starts this script with its own interpreter, by the path in its
`sys.executable`, and its own `os.environ`. Isolated and without `site`, it
imports only `marshal`, `os`, `select`, `signal` and `sys`: nothing from
`uqpilot`, no `sitecustomize` and no `.pth` file. It starts no thread and
reads requests on REQUEST_FD, each a 4-byte little-endian length and a
marshalled tuple:

    ("run", task, cwd, stdout, stderr, command, env)           start task
    ("call", task, cwd, stdout, stderr, target, argv, env)     call target(argv)
    ("signal", task, signum)                                   signal its group

A `run` task is executed: `os.posix_spawn` starts `command` in a process
group of its own, with stdin from /dev/null (the launcher's own), stdout
and stderr truncated onto the given absolute paths (parent directories
made), and `cwd`, which the launcher enters just before the start.
`command[0]` is looked up on the PATH of `env` (None: the launcher's
environment, passed already encoded). SIGPIPE, SIGXFSZ and SIGCHLD go back
to their defaults, as `subprocess` starts a run; glibc's `posix_spawn`
leaves its two internal signals (32, 33) ignored, which no program on glibc
can handle. A run that cannot get its files or `cwd`, or cannot start (a
NUL byte or a bad env name included), exits 127 unseen.

A `call` task runs on a worker (`worker.py`): a Python process that calls
`target`, `"module:function"`, once per task. The launcher starts a worker
executed, as any run, but from the directory the launcher started in, so
that a relative `PYTHONPATH` entry resolves as it does for the manager;
neither the worker script's directory nor a run's is on its `sys.path`.
The launcher keeps one worker per `call` task running at once, keyed by
`target` and `env`: a task goes to an idle worker of its key, else to a
new one, which retires an idle worker of another key. A worker imports
the module at its first task. For each task it enters `cwd`, points fds 1
and 2 at `stdout` and `stderr`, truncated, calls `function(argv)`, and
flushes and restores `sys.stdout` and `sys.stderr`. The task's exit code
is the function's int return value, else 0; a `SystemExit`'s code; or 1
for any other exception, whose traceback goes to the task's stderr (120
if a flush fails; 127 if the files or `cwd` cannot be had). A worker
keeps, between its tasks, what one interpreter keeps between two calls:
its modules and their state, and the `warnings` once-registries, so a
warning that one task showed is not shown again by a later task from the
same line with the same text. A worker is a process group of its own,
which the task's signals go to. A worker that dies or is killed fails
only its task, with the exit status of its process, and the next task
gets a new worker.

REPORT_FD gets a line `"<task> exec <pid>"` or `"<task> worker <pid>"` as
a run starts, so that the manager knows how it started and can kill its
group should the launcher be killed, and `"<task> <code>"` as it ends, the
code negative for a signal, as `subprocess` gives it. A signal for a task
not running is answered with that signal's report: it ends a task whose
run request an interrupt kept from being written, and the manager ignores
it for a task already ended.

As it reaps a run or a worker, and before it starts anything else, the
launcher SIGKILLs what is left of that process's group, so that nothing a
run left in the background (`sleep 30 &`) outlives the run and holds a
core that the manager gives to the next run. A worker's children share
its group, so what a task leaves in the background lives until that
worker exits, not only until the task ends. At EOF on REQUEST_FD the
launcher SIGKILLs every run's group, a busy worker's included, and closes
the request pipes of its idle workers, which then exit; on an error of
its own it SIGKILLs every worker's group too. It reaps them all and
exits, 0 once its requests ended and 1 with a traceback on an error, so
no run outlives the manager. Should the launcher itself be killed, an
idle worker exits at EOF on its request pipe, which no other process
holds.
"""

import marshal
import os
import select
import signal
import sys

_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_DEFAULT_SIGNALS = (signal.SIGPIPE, signal.SIGXFSZ, signal.SIGCHLD)
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _signal_group(pid: int, signum: int):
    try:
        os.killpg(pid, signum)
    except ProcessLookupError:   # every process of the group has been reaped
        pass


def _executable(name: str, env) -> str:
    """`name`, or the file it names on the PATH of `env` (None: the launcher's),
    as `shutil.which` finds it, which would cost the launcher `re` to import."""
    if os.sep in name:
        return name
    for directory in os.get_exec_path(env):
        path = os.path.join(directory, name)
        if os.access(path, os.X_OK) and not os.path.isdir(path):
            return path
    raise FileNotFoundError(name)


def _spawn(path: str, stdout: str, stderr: str, command, env) -> int:
    """Start `command`, found at `path`; the pid, or an OSError or ValueError."""
    return os.posix_spawn(path, command, os.environ._data if env is None else env,
                          setpgroup=0, setsigdef=_DEFAULT_SIGNALS,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, stdout, _TRUNCATE, 0o666),
                                        (os.POSIX_SPAWN_OPEN, 2, stderr, _TRUNCATE, 0o666)])


class _Workers:
    """The launcher's workers (see the module docstring), by pid: each one's
    key and the launcher's ends of its request and result pipes."""

    def __init__(self):
        self.home = os.open(".", getattr(os, "O_PATH", os.O_RDONLY))   # where workers start
        self.pipes: dict[int, tuple[tuple, int, int]] = {}   # pid -> (key, requests, results)
        self.idle: dict[tuple, list[int]] = {}   # key -> pids
        self.busy: dict[int, int] = {}           # result fd -> pid

    def call(self, target: str, env, stdout: str, stderr: str, frame: bytes) -> int:
        """Send the task `frame` to an idle worker of (`target`, `env`), or to
        a new one; its pid, or an OSError or ValueError if none could start."""
        key = target, None if env is None else frozenset(env.items())
        idle = self.idle.get(key)
        while idle:
            pid = idle.pop()
            if self._send(pid, frame):
                return pid
            self.retire(pid)   # it died idle, not yet reaped
        for pids in self.idle.values():
            if pids:   # keep one worker per task running
                self.retire(pids[-1])
                break
        pid = self._start(key, target, env, stdout, stderr)
        self._send(pid, frame)   # else it died starting: its exit status ends the task
        return pid

    def _start(self, key, target, env, stdout, stderr) -> int:
        requests, ours = os.pipe()
        results, theirs = os.pipe()
        try:
            os.set_inheritable(requests, True)
            os.set_inheritable(theirs, True)
            os.set_blocking(results, False)
            os.fchdir(self.home)
            pid = _spawn(sys.executable, stdout, stderr,
                         [sys.executable, WORKER, str(requests), str(theirs), target], env)
        except BaseException:
            os.close(ours)
            os.close(results)
            raise
        finally:
            os.close(requests)
            os.close(theirs)
        self.pipes[pid] = key, ours, results
        return pid

    def _send(self, pid: int, frame: bytes) -> bool:
        key, requests, results = self.pipes[pid]
        try:
            while frame:
                frame = frame[os.write(requests, frame):]
        except OSError:
            return False
        self.busy[results] = pid
        return True

    def result(self, fd: int) -> tuple[int, int | None]:
        """The busy worker whose result pipe `fd` is ready, and its task's exit
        code, the worker then idle; None if it closed the pipe without one."""
        pid = self.busy.pop(fd)
        try:
            code = int(os.read(fd, 64))
        except (BlockingIOError, ValueError):   # ValueError: EOF
            return pid, None
        self.idle.setdefault(self.pipes[pid][0], []).append(pid)
        return pid, code

    def reaped(self, pid: int) -> int | None:
        """Forget worker `pid`, reaped; the exit code of a task it ended
        before it exited, if not read yet."""
        results = self.pipes[pid][2]
        code = self.result(results)[1] if results in self.busy else None
        self.retire(pid)
        os.close(results)
        del self.pipes[pid]
        return code

    def retire(self, pid: int):
        """Close the worker's requests: it exits once it has read them all."""
        key, requests, results = self.pipes[pid]
        if requests >= 0:
            os.close(requests)
            self.pipes[pid] = key, -1, results
        if pid in self.idle.get(key, ()):
            self.idle[key].remove(pid)

    def retire_idle(self):
        for pids in self.idle.values():
            for pid in list(pids):
                self.retire(pid)


def _report(reports: int, line: bytes):
    try:
        os.write(reports, line)
    except BrokenPipeError:   # the manager is gone
        pass


def serve(requests: int, reports: int):
    """Start, signal and reap children until EOF on `requests`. Whatever
    ends the launcher, no child outlives it."""
    tasks: dict[int, int] = {}        # pid -> task, of each run and busy worker
    workers = _Workers()
    try:
        _serve(requests, reports, tasks, workers)
    finally:
        for pid in {*tasks, *workers.pipes}:
            _signal_group(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by the loop the error left
                pass


def _serve(requests: int, reports: int, tasks: dict[int, int], workers: _Workers):
    for fd in (requests, reports):
        os.set_inheritable(fd, False)   # no executed run holds the manager's pipes
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)    # a child's exit wakes the select below
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    pending = b""
    open_ = True
    while open_ or tasks or workers.pipes:
        ready = select.select([requests, wake_r, *workers.busy] if open_
                              else [wake_r, *workers.busy], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
        while tasks or workers.pipes:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            _signal_group(pid, signal.SIGKILL)   # what it left in its group
            code = workers.reaped(pid) if pid in workers.pipes else None
            if pid in tasks:
                code = os.waitstatus_to_exitcode(status) if code is None else code
                _report(reports, b"%d %d\n" % (tasks.pop(pid), code))
        for fd in ready:
            if fd in workers.busy:
                pid, code = workers.result(fd)
                if code is None:   # it has exited, or must: its reaping ends the task
                    _signal_group(pid, signal.SIGKILL)
                else:
                    _report(reports, b"%d %d\n" % (tasks.pop(pid), code))
        if not open_:
            workers.retire_idle()
        if requests not in ready:
            continue
        data = os.read(requests, 65536)
        if not data:
            open_ = False
            for pid in tasks:
                _signal_group(pid, signal.SIGKILL)
            workers.retire_idle()
            continue
        pending += data
        while len(pending) >= 4:
            size = int.from_bytes(pending[:4], "little")
            if len(pending) < 4 + size:
                break
            request = marshal.loads(pending[4:4 + size])
            pending = pending[4 + size:]
            if request[0] == "signal":
                _, task, signum = request   # few run at once: a scan finds the pid
                pid = next((p for p, t in tasks.items() if t == task), None)
                if pid is not None:
                    _signal_group(pid, signum)
                else:
                    _report(reports, b"%d %d\n" % (task, -signum))
                continue
            kind, task, cwd, stdout, stderr, *what, env = request
            try:
                for path in (stdout, stderr):
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                if kind == "call":
                    target, argv = what
                    frame = marshal.dumps((cwd, stdout, stderr, argv))
                    pid = workers.call(target, env, stdout, stderr,
                                       len(frame).to_bytes(4, "little") + frame)
                else:
                    command, = what
                    os.chdir(cwd)   # the run's; nothing else in the launcher is relative
                    pid = _spawn(_executable(command[0], env), stdout, stderr, command, env)
            except (OSError, ValueError):   # ValueError: a NUL byte, a bad env name
                _report(reports, b"%d 127\n" % task)   # as for a command that cannot start
                continue
            tasks[pid] = task
            _report(reports, b"%d %s %d\n" % (task, b"worker" if kind == "call" else b"exec", pid))


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]))
    os._exit(0)   # every child reaped: nothing is left for the interpreter's exit to do
