"""Launcher: start, signal and reap every run of one wall-clock `PilotManager`.

    python launcher.py REQUEST_FD REPORT_FD

The manager starts this script with its own interpreter and environment.
It imports nothing from `uqpilot`, starts no thread, and reads requests
on REQUEST_FD, each a 4-byte little-endian length and a marshalled tuple:

    ("run", task, warm, cwd, stdout, stderr, command, env)   start task
    ("signal", task, signum)                                 signal its group

Every run gets a process group of its own, stdin from /dev/null (the
launcher's own), stdout and stderr truncated onto the given absolute paths
(parent directories made), and `cwd`, which the launcher enters just
before the start. A run that cannot get them or cannot start (a NUL byte
or a bad env name included) exits 127 unseen. It starts one of two ways:

- **executed** (`warm` false): `os.posix_spawn`, as `subprocess` starts
  it: SIGPIPE, SIGXFSZ and SIGCHLD back to their defaults, `command[0]`
  looked up on the PATH of `env` (None: the launcher's environment).
  glibc's `posix_spawn` leaves its two internal signals (32, 33) ignored,
  which no program on glibc can handle.
- **warm** (`warm` true, `env` None): `command` is `[python, "-m", module,
  *args]` naming this interpreter. A forked child runs `module` as
  `__main__` in a fresh module, `sys.argv`, `sys.orig_argv` and
  `sys.path[0]` set as `-m` sets them (no warm run comes while
  `PYTHONPATH` holds a relative entry). Its exit code is the
  interpreter's, and a traceback omits the launcher's frames. It shares
  the launcher's modules and hash seed; `gc.freeze` before each fork keeps
  its collections from copying the launcher's pages.

REPORT_FD gets a line `"<task> pid <pid>"` as a run starts, so that the
manager can kill its group should the launcher be killed, and `"<task>
<code>"` as it is reaped, the code negative for a signal, as `subprocess`
gives it. A signal for a task not running is answered with that signal's
report: it ends a task whose run request an interrupt kept from being
written, and the manager ignores it for a task already ended. At EOF on
REQUEST_FD, or on an error of its own, the launcher SIGKILLs every run's
group, reaps them and exits, so no run outlives the manager.
"""

import gc
import marshal
import os
import runpy
import select
import shutil
import signal
import sys

_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_DEFAULT_SIGNALS = (signal.SIGPIPE, signal.SIGXFSZ, signal.SIGCHLD)


def _signal_group(pid: int, signum: int):
    try:
        os.killpg(pid, signum)
    except ProcessLookupError:   # a forked child has not called setpgid yet
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _enter_task(stdout: str, stderr: str):
    """In a fresh warm child: the process group and files of the task."""
    os.setpgid(0, 0)
    for fd, path in ((1, stdout), (2, stderr)):
        opened = os.open(path, _TRUNCATE, 0o666)
        os.dup2(opened, fd)
        os.close(opened)


def _spawn(stdout: str, stderr: str, command, env) -> int:
    """Start `command` executed; the pid, or an OSError or ValueError."""
    env = os.environ if env is None else env
    name = command[0]
    path = name if os.sep in name else \
        shutil.which(name, path=os.pathsep.join(os.get_exec_path(env)))
    if path is None:
        raise FileNotFoundError(name)
    return os.posix_spawn(path, command, env, setpgroup=0, setsigdef=_DEFAULT_SIGNALS,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, stdout, _TRUNCATE, 0o666),
                                        (os.POSIX_SPAWN_OPEN, 2, stderr, _TRUNCATE, 0o666)])


def _report(reports: int, line: bytes):
    try:
        os.write(reports, line)
    except BrokenPipeError:   # the manager is gone
        pass


def serve(requests: int, reports: int):
    """Start, signal and reap children until EOF on `requests`.

    Returns None in the launcher, and the command to run in a warm child.
    Whatever ends the launcher, no child outlives it.
    """
    tasks: dict[int, int] = {}        # pid -> task
    try:
        return _serve(requests, reports, tasks)
    finally:
        for pid in tasks:             # none in a child, which clears its copy
            _signal_group(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by the loop the error left
                pass


def _serve(requests: int, reports: int, tasks: dict[int, int]):
    gc.disable()    # children enable it; the launcher allocates next to nothing
    for fd in (requests, reports):
        os.set_inheritable(fd, False)   # no executed run holds the manager's pipes
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)    # a child's exit wakes the select below
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    pending = b""
    open_ = True
    while open_ or tasks:
        ready = select.select([requests, wake_r] if open_ else [wake_r], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
        while tasks:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            _report(reports, b"%d %d\n" % (tasks.pop(pid), os.waitstatus_to_exitcode(status)))
        if requests not in ready:
            continue
        data = os.read(requests, 65536)
        if not data:
            open_ = False
            for pid in tasks:
                _signal_group(pid, signal.SIGKILL)
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
            _, task, warm, cwd, stdout, stderr, command, env = request
            try:
                for path in (stdout, stderr):
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                os.chdir(cwd)   # the child's; nothing else in the launcher is relative
                if warm:
                    gc.freeze()
                    pid = os.fork()
                else:
                    pid = _spawn(stdout, stderr, command, env)
            except (OSError, ValueError):   # ValueError: a NUL byte, a bad env name
                _report(reports, b"%d 127\n" % task)   # as for a command that cannot start
                continue
            if pid:
                tasks[pid] = task
                _report(reports, b"%d pid %d\n" % (task, pid))
                continue
            tasks.clear()
            gc.enable()
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            for fd in (requests, reports, wake_r, wake_w):
                os.close(fd)
            try:
                _enter_task(stdout, stderr)
            except (OSError, ValueError):
                os._exit(127)
            return command
    return None


def _without_launcher_frames(hook):
    def excepthook(kind, value, tb):
        while tb is not None and tb.tb_frame.f_code.co_filename == __file__:
            tb = tb.tb_next
        hook(kind, value.with_traceback(tb), tb)
    return excepthook


def run_module(command):
    """Run `command`'s module as `python -m` would, in this process."""
    module, args = command[2], command[3:]
    main = type(sys)("__main__")
    main.__annotations__ = {}
    main.__builtins__ = sys.modules["builtins"]
    sys.modules["__main__"] = main
    sys.argv = ["-m", *args]
    sys.orig_argv = list(command)
    if not getattr(sys.flags, "safe_path", False):
        sys.path[0] = os.getcwd()
    try:
        runpy._run_module_as_main(module)
    except BaseException:
        sys.excepthook = _without_launcher_frames(sys.excepthook)
        raise


if __name__ == "__main__":
    command = serve(int(sys.argv[1]), int(sys.argv[2]))
    if command is not None:
        run_module(command)
