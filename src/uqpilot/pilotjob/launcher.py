"""Warm launcher: fork `python -m module args` runs from one started interpreter.

    python launcher.py REQUEST_FD REPORT_FD

A `PilotManager` starts this script with the interpreter a task's command
names, and the environment that task would get. The script imports
nothing from `uqpilot`, starts no thread, and then waits for requests on
REQUEST_FD, each a 4-byte little-endian length and a marshalled tuple:

    ("run", task, cwd, stdout, stderr, command)   fork a child for task
    ("signal", task, signum)                      signal the task's group

A signal for a task it does not run (never received, or already reaped)
is answered with a report that the task ended by that signal. The manager
so ends a task whose run request an interrupt kept from being written,
and ignores the report for a task that has already ended.

For each run it forks a child that does what executing `command`, which is
`[python, "-m", module, *args]`, would do from the fork on. The child
starts its own process group, takes stdin from /dev/null (the launcher's own),
opens stdout and stderr on the given paths (parent directories made) and
changes into `cwd`; if any of that fails it exits 127 unseen. Then it runs
`module` as `__main__` in a fresh module, with `sys.argv`, `sys.orig_argv`
and `sys.path[0]` set as `-m` sets them; the rest of `sys.path` does not
depend on the directory an interpreter starts in, as the manager sends no
run while `PYTHONPATH` holds a relative entry. Its exit code is the one the
interpreter gives for a return, `sys.exit`, an uncaught exception or a
signal, and a traceback omits the launcher's own frames. What it shares
with its siblings is the launcher's start-up: the imported standard
modules and the string hash seed. The launcher's objects are frozen out of
the garbage collector (`gc.freeze`) before each fork, so that collections
in a child do not copy the memory pages they sit on.

The launcher reaps every child and writes `"<task> <code>\\n"` to
REPORT_FD, the code negative for a signal, as `subprocess` gives it, and
127 for a run it could not fork. At EOF on REQUEST_FD, it SIGKILLs the
group of every child still running, reaps them and exits: either the
manager drained and none is left, or the manager died and none should
outlive it. An error in the launcher itself kills and reaps them too
before it exits, so the manager sees its reports end only once no run of
it is left.
"""

import gc
import marshal
import os
import runpy
import select
import signal
import sys


def _signal_group(pid: int, signum: int):
    try:
        os.killpg(pid, signum)
    except ProcessLookupError:   # the child has not called setpgid yet
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _enter_task(cwd: str, stdout: str, stderr: str):
    """In a fresh child: the process group, files and directory of the task."""
    os.setpgid(0, 0)
    for fd, path in ((1, stdout), (2, stderr)):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        opened = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        os.dup2(opened, fd)
        os.close(opened)
    os.chdir(cwd)


def _report(reports: int, task: int, code: int):
    try:
        os.write(reports, b"%d %d\n" % (task, code))
    except BrokenPipeError:   # the manager is gone
        pass


def serve(requests: int, reports: int):
    """Start, signal and reap children until EOF on `requests`.

    Returns None in the launcher, and the command to run in a child.
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
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)    # a child's exit wakes the select below
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    pids: dict[int, int] = {}         # task -> pid
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
            task = tasks.pop(pid)
            del pids[task]
            _report(reports, task, os.waitstatus_to_exitcode(status))
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
                _, task, signum = request
                if task in pids:
                    _signal_group(pids[task], signum)
                else:
                    _report(reports, task, -signum)
                continue
            _, task, cwd, stdout, stderr, command = request
            gc.freeze()
            try:
                pid = os.fork()
            except OSError:
                _report(reports, task, 127)   # as for a command that cannot start
                continue
            if pid:
                tasks[pid] = task
                pids[task] = pid
                continue
            tasks.clear()
            gc.enable()
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            for fd in (requests, reports, wake_r, wake_w):
                os.close(fd)
            try:
                _enter_task(cwd, stdout, stderr)
            except OSError:
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
