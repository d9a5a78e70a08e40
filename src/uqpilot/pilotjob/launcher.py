"""Launcher: start, signal and reap every run of one wall-clock `PilotManager`.

    python launcher.py REQUEST_FD REPORT_FD

The manager starts this script with its own interpreter, by the path in its
`sys.executable`, and its own environment. It imports nothing from
`uqpilot`, starts no thread, and reads requests on REQUEST_FD, each a
4-byte little-endian length and a marshalled tuple:

    ("run", task, cwd, stdout, stderr, command, env)           start task
    ("call", task, cwd, stdout, stderr, target, argv, env)     call target(argv)
    ("signal", task, signum)                                   signal its group

Every run gets a process group of its own, stdin from /dev/null (the
launcher's own), stdout and stderr truncated onto the given absolute paths
(parent directories made), and `cwd`, which the launcher enters just
before the start. `command[0]` is looked up once, on the PATH of `env`
(None: the launcher's environment). A run that cannot get them or cannot
start (a NUL byte or a bad env name included) exits 127 unseen. A run
starts one of two ways:

- **executed**: `os.posix_spawn`, as `subprocess` starts it: SIGPIPE,
  SIGXFSZ and SIGCHLD back to their defaults. glibc's `posix_spawn`
  leaves its two internal signals (32, 33) ignored, which no program on
  glibc can handle. With `env` None it gets the launcher's environment
  already encoded (`os.environ._data`), not converted again for each run.
- **warm**: a forked child runs `module` as `__main__` in a fresh module,
  `sys.argv`, `sys.orig_argv` and `sys.path[0]` set as `-m` sets them. A
  traceback omits the launcher's frames. It shares the launcher's modules
  and hash seed; `gc.freeze` before each fork keeps its collections from
  copying the launcher's pages. The child and the launcher both put it in
  its group, as shells do, so the group exists before the launcher reports
  the start.

A warm child ends as `multiprocessing` ends its forked children: it does
the run's own exit work, then calls `os._exit`, so that no run pays to tear
down the launcher's modules. First the interpreter does what it does at
any exit: it prints what ended the run, joins the non-daemon threads and
makes the atexit calls, last in, first out. These include the calls of the
modules the launcher preloaded (`logging.shutdown`). The last call is the
launcher's own, registered before anything is preloaded. It leaves the
child to the interpreter's full exit when

- a daemon thread still runs: the interpreter halts it before it frees any
  module, so it never sees a global cleared or writes on past the exit;
- the run has `ctypes` or cffi, or any extension module from outside the
  standard library: its C code (a wrapped solver, Fortran) may have left
  text in C's stdio buffers or exit work to the C library's `exit()`,
  which `os._exit` skips.

Otherwise, in order, it

1. collects the run's garbage, as the interpreter does first: a file that
   only a garbage cycle holds loses its buffered text there too;
2. flushes every file the run still holds open, text before binary;
3. drops the last traceback and the atexit calls, all made by now, which
   hold the run's globals; removes the run's modules and its `__main__`
   from `sys.modules` and collects them, so their objects' `__del__`s see
   intact globals; clears the globals of any module still alive, and
   collects again;
4. flushes `sys.stdout` and `sys.stderr`, and the original streams should
   the run have replaced them;
5. exits with the interpreter's status: 0, the `SystemExit` code (1 when
   not an int), or 1 for any other exception. An uncaught
   `KeyboardInterrupt` ends the child by SIGINT, as the interpreter does.

A flush that fails, or a run that removes the call (`atexit._clear()`),
also leaves the child to the full exit, which reports the failure and
exits 120 for a failed stdout or stderr. Three parts of an executed
run's exit do not happen. The atexit calls registered before the launcher
served (by `site` and `.pth` files) do not run: as with the launcher's
modules, they are the launcher's. Nor does the C library's `exit()` run,
but the standard library's own extension modules leave it no work that a
run would see. And an object that a run hangs on a module the launcher
had at the fork (say on `os`) is not finalized. That teardown is the cost
avoided, and the language does not promise a `__del__` at exit.

The launcher alone decides which. A run starts warm when all of these
hold, and executed otherwise:

- `env` is None: the manager sends the job's environment unless the job
  has none and the manager's environment is the launcher's;
- `command` is `[python, "-m", module, *args]`, no option before `-m`;
- `python`, as given or found on PATH, is this `sys.executable`'s path
  (a symlink to it may be another installation's prefix, so a path only);
- every `PYTHONPATH` entry is absolute, as the launcher finds at its
  start: an interpreter makes a relative one absolute against the
  directory it starts in, which for the launcher is not the run's;
- `cwd` holds no importable entry (`name.py`, `name/__init__.py`, an
  extension module) named after a top-level module the launcher has:
  `python -m` puts the cwd first on `sys.path`, so the run imports its
  own module, as the fork would not.

Warm children teach the launcher their standard-library imports, as
`multiprocessing`'s forkserver preloads modules, but learned from the runs.
As `run_module` ends, a child writes the names of the modules it imported
that the launcher lacked at the fork, and that are standard library: the
top-level name is in `sys.stdlib_module_names`, and the module is built-in,
frozen, or a file under the standard library's directories but not under
site-packages or dist-packages. So numpy, whose legacy global RNG a fork
does not reseed, and the app's own modules are never preloaded, while
`random` and `tempfile` reseed at the fork. The names go in one
non-blocking write of at most PIPE_BUF bytes on a pipe of the launcher's,
after `fstat` has shown the fd to be that pipe still, so a run that closed
it and reused the number is never written to. The launcher reads them
before the next request, so before its next warm fork, and imports them
under three rules, besides the cwd rule above:

- An import that prints or warns (`this`; `imp` on 3.11) or fails is
  undone from `sys.modules` and never tried again: a run importing it
  itself shows what a fork would hide.
- A module that acts outside the process on import (`antigravity`,
  `idlelib.idle`, any `__main__` submodule) is never tried.
- An import that brings in ctypes is undone and never tried again, so
  that only the runs that use ctypes end through the full exit.

A module that records a process-wide value as it is imported, rather
than as it is used, records the launcher's: for
`multiprocessing.process.ORIGINAL_DIR`, the cwd of an earlier run.

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

REPORT_FD gets a line `"<task> warm <pid>"`, `"<task> exec <pid>"` or
`"<task> worker <pid>"` as a run starts, so that the manager knows how it
started and can kill its group should the launcher be killed, and
`"<task> <code>"` as it ends, the code negative for a signal, as
`subprocess` gives it. A signal for a task not running is answered with
that signal's report: it ends a task whose run request an interrupt kept
from being written, and the manager ignores it for a task already ended.
At EOF on REQUEST_FD the launcher SIGKILLs every run's group, a busy
worker's included, and closes the request pipes of its idle workers,
which then exit; on an error of its own it SIGKILLs every worker's group
too. It reaps them all and exits, so no run outlives the manager. Should
the launcher itself be killed, an idle worker exits at EOF on its request
pipe, which no other process holds.
"""

import atexit
import gc
import importlib.machinery
import io
import marshal
import os
import runpy
import select
import shutil
import signal
import sys
import sysconfig
import warnings
import weakref

_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_DEFAULT_SIGNALS = (signal.SIGPIPE, signal.SIGXFSZ, signal.SIGCHLD)
# importing these acts outside the process: a browser, a window
_NEVER_PRELOADED = frozenset({"antigravity", "idlelib.idle"})
_SUFFIXES = importlib.machinery.all_suffixes()
_EXTENSION_SUFFIXES = tuple(importlib.machinery.EXTENSION_SUFFIXES)
# these let a run call C code of its own, whose stdio buffers and exit
# handlers only the C library's exit() sees to
_C_CALLERS = frozenset({"_ctypes", "_cffi_backend"})
_STDLIB = tuple({os.path.join(sysconfig.get_paths()[key], "") for key in ("stdlib", "platstdlib")})
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# in a warm child: (the names in `sys.modules` as its run started, the
# exception that ended the run or None)
_ended = None


def _signal_group(pid: int, signum: int):
    try:
        os.killpg(pid, signum)
    except ProcessLookupError:   # every process of the group has been reaped
        pass


def _enter_task(stdout: str, stderr: str):
    """In a fresh warm child: the process group and files of the task."""
    os.setpgid(0, 0)
    for fd, path in ((1, stdout), (2, stderr)):
        opened = os.open(path, _TRUNCATE, 0o666)
        os.dup2(opened, fd)
        os.close(opened)


def _executable(name: str, env) -> str:
    """`name`, or the file it names on the PATH of `env` (None: the launcher's)."""
    if os.sep in name:
        return name
    path = shutil.which(name, path=os.pathsep.join(os.get_exec_path(env)))
    if path is None:
        raise FileNotFoundError(name)
    return path


def _warm_python() -> str | None:
    """The path a warm command names this interpreter by; None if no run may
    start warm, as a relative PYTHONPATH entry would resolve against the
    launcher's start directory rather than the run's."""
    paths = os.environ.get("PYTHONPATH")
    if not os.path.isabs(sys.executable) or \
            paths and not all(map(os.path.isabs, paths.split(os.pathsep))):
        return None
    return os.path.normpath(sys.executable)


def _starts_warm(command, env, path: str, python: str | None, cwd: str) -> bool:
    """Whether the run of `command`, found at `path`, starts warm: the rule
    of the module docstring, `python` being `_warm_python()`."""
    return python is not None and env is None and len(command) > 2 \
        and command[1] == "-m" and os.path.normpath(path) == python and not _shadowed(cwd)


def _spawn(path: str, stdout: str, stderr: str, command, env) -> int:
    """Start `command`, found at `path`, executed; the pid, or an OSError or ValueError."""
    return os.posix_spawn(path, command, os.environ._data if env is None else env,
                          setpgroup=0, setsigdef=_DEFAULT_SIGNALS,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, stdout, _TRUNCATE, 0o666),
                                        (os.POSIX_SPAWN_OPEN, 2, stderr, _TRUNCATE, 0o666)])


def _preloadable(name: str) -> bool:
    """Whether the launcher may try to import `name`: a standard-library name
    that neither acts outside the process nor is a `__main__` submodule."""
    return name.partition(".")[0] in sys.stdlib_module_names \
        and name not in _NEVER_PRELOADED and not name.endswith(".__main__")


def _origin(module):
    return getattr(getattr(module, "__spec__", None), "origin", None)


def _in_stdlib(module) -> bool:
    """Whether `module` is built-in, frozen, or a file under the standard
    library's directories but not under site-packages or dist-packages."""
    origin = _origin(module)
    if origin in ("built-in", "frozen"):
        return True
    return isinstance(origin, str) and origin.startswith(_STDLIB) \
        and not {"site-packages", "dist-packages"} & set(origin.split(os.sep))


def _import_reporter(fd: int):
    """In a fresh warm child: a call that writes on `fd`, the launcher's pipe,
    the standard-library modules imported that are not among the names it
    is given, a name a line."""
    pipe = os.fstat(fd)

    def report(had: set[str]):
        try:
            lines = b""
            for name, module in list(sys.modules.items()):
                if name in had or not _preloadable(name) or not _in_stdlib(module):
                    continue
                line = os.fsencode(name) + b"\n"
                if len(lines) + len(line) > select.PIPE_BUF:   # one atomic write
                    break
                lines += line
            now = os.fstat(fd)   # the run may have closed the fd and reused its number
            if lines and (now.st_dev, now.st_ino) == (pipe.st_dev, pipe.st_ino):
                os.write(fd, lines)   # non-blocking: a full pipe drops the report
        except Exception:   # the run's exit code and output are its own
            pass
    return report


def _import_quietly(name: str):
    """Import `name` in the launcher; undo it should the import print, warn,
    fail or bring in ctypes, so that a run importing it itself shows what a
    fork would hide, and only a run that uses ctypes pays the full exit."""
    had = set(sys.modules)
    streams = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = captured = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            __import__(name)
        quiet = not caught and not captured.getvalue() \
            and not _C_CALLERS & (set(sys.modules) - had)
    except Exception:   # the launcher goes on; the run will meet the error itself
        quiet = False
    finally:
        sys.stdout, sys.stderr = streams
    if not quiet:
        for added in set(sys.modules) - had:
            del sys.modules[added]


def _shadowed(cwd: str) -> bool:
    """Whether `cwd`, first on a warm run's `sys.path`, holds a module or
    package named after a top-level module the launcher has imported."""
    for entry in os.listdir(cwd):
        name, dot, suffix = entry.partition(".")
        if name in sys.modules and (
                "." + suffix in _SUFFIXES if dot
                else os.path.isfile(os.path.join(cwd, entry, "__init__.py"))):
            return True
    return False


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

    def forget(self):
        """In a warm child: close the launcher's ends of every worker's pipes."""
        for key, requests, results in self.pipes.values():
            for fd in (requests, results):
                if fd >= 0:
                    os.close(fd)
        os.close(self.home)
        self.pipes.clear()


def _report(reports: int, line: bytes):
    try:
        os.write(reports, line)
    except BrokenPipeError:   # the manager is gone
        pass


def serve(requests: int, reports: int):
    """Start, signal and reap children until EOF on `requests`.

    Returns None in the launcher; in a warm child, the command to run and
    the call that reports the child's standard-library imports. Whatever
    ends the launcher, no child outlives it.
    """
    tasks: dict[int, int] = {}        # pid -> task, of each run and busy worker
    workers = _Workers()
    try:
        return _serve(requests, reports, tasks, workers)
    finally:
        for pid in {*tasks, *workers.pipes}:   # none in a child, which clears its copies
            _signal_group(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by the loop the error left
                pass


def _serve(requests: int, reports: int, tasks: dict[int, int], workers: _Workers):
    atexit.register(_end_warm_run)   # first, so a warm child makes it last
    gc.disable()    # children enable it; the launcher allocates next to nothing
    for fd in (requests, reports):
        os.set_inheritable(fd, False)   # no executed run holds the manager's pipes
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    learned_r, learned_w = os.pipe()   # warm children's standard-library imports
    os.set_blocking(learned_w, False)
    python = _warm_python()
    signal.set_wakeup_fd(wake_w)    # a child's exit wakes the select below
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    pending = b""
    learned = b""                   # names read, the last one maybe partial
    tried: set[str] = set()         # names learned: imported, or refused for good
    open_ = True
    while open_ or tasks or workers.pipes:
        ready = select.select([requests, wake_r, learned_r, *workers.busy] if open_
                              else [wake_r, *workers.busy], [], [])[0]
        if wake_r in ready:
            os.read(wake_r, 4096)
        while tasks or workers.pipes:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
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
        if learned_r in ready:   # before the requests: a run writes before it exits
            *lines, learned = (learned + os.read(learned_r, 65536)).split(b"\n")
            for name in map(os.fsdecode, lines):
                if name not in tried and _preloadable(name):
                    tried.add(name)
                    _import_quietly(name)
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
            if request[0] == "call":
                _, task, cwd, stdout, stderr, target, argv, env = request
                frame = marshal.dumps((cwd, stdout, stderr, argv))
                try:
                    for path in (stdout, stderr):
                        os.makedirs(os.path.dirname(path), exist_ok=True)
                    pid = workers.call(target, env, stdout, stderr,
                                       len(frame).to_bytes(4, "little") + frame)
                except (OSError, ValueError):
                    _report(reports, b"%d 127\n" % task)
                    continue
                tasks[pid] = task
                _report(reports, b"%d worker %d\n" % (task, pid))
                continue
            _, task, cwd, stdout, stderr, command, env = request
            try:
                for path in (stdout, stderr):
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                os.chdir(cwd)   # the child's; nothing else in the launcher is relative
                exe = _executable(command[0], env)
                warm = _starts_warm(command, env, exe, python, cwd)
                if warm:
                    gc.freeze()
                    pid = os.fork()
                else:
                    pid = _spawn(exe, stdout, stderr, command, env)
            except (OSError, ValueError):   # ValueError: a NUL byte, a bad env name
                _report(reports, b"%d 127\n" % task)   # as for a command that cannot start
                continue
            if pid:
                if warm:
                    try:
                        os.setpgid(pid, pid)
                    except PermissionError:   # the child has exec'd: its group exists
                        pass
                tasks[pid] = task
                _report(reports, b"%d %s %d\n" % (task, b"warm" if warm else b"exec", pid))
                continue
            tasks.clear()
            workers.forget()
            gc.enable()
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            for fd in (requests, reports, wake_r, wake_w, learned_r):
                os.close(fd)
            try:
                _enter_task(stdout, stderr)
            except (OSError, ValueError):
                os._exit(127)
            return command, _import_reporter(learned_w)
    return None


def _without_launcher_frames(hook):
    def excepthook(kind, value, tb):
        while tb is not None and tb.tb_frame.f_code.co_filename == __file__:
            tb = tb.tb_next
        hook(kind, value.with_traceback(tb), tb)
    return excepthook


def run_module(command, report_imports):
    """Run `command`'s module as `python -m` would, in this process, and then
    `report_imports`, whatever the module's end. `_end_warm_run` ends the
    process once the interpreter has made its other atexit calls."""
    global _ended
    module, args = command[2], command[3:]
    main = type(sys)("__main__")
    main.__annotations__ = {}
    main.__builtins__ = sys.modules["builtins"]
    sys.modules["__main__"] = main
    sys.argv = ["-m", *args]
    sys.orig_argv = list(command)
    if not getattr(sys.flags, "safe_path", False):
        sys.path[0] = os.getcwd()
    had = set(sys.modules)
    _ended = had, None
    try:
        runpy._run_module_as_main(module)
    except BaseException as error:
        _ended = had, error
        sys.excepthook = _without_launcher_frames(sys.excepthook)
        raise
    finally:
        report_imports(had)


def _exit_status(error) -> int:
    """The status an interpreter exits with once `error` (None: nothing)
    ended its main module."""
    if isinstance(error, SystemExit):
        code = error.code
        return 0 if code is None else code if isinstance(code, int) else 1
    return 0 if error is None else 1


def _flushed(streams) -> bool:
    """Flush each of `streams` that is open; False once one fails, leaving the
    interpreter's own exit to flush again and report it."""
    try:
        for stream in streams:
            if stream is not None and not stream.closed:
                stream.flush()
    except Exception:
        return False
    return True


def _open_writers() -> list:
    """The run's files open for writing, text before binary; the launcher's
    were frozen at the fork, so `gc.get_objects` leaves them out."""
    objects = gc.get_objects()
    return [o for o in objects if isinstance(o, io.TextIOWrapper)] \
        + [o for o in objects if isinstance(o, (io.BufferedWriter, io.BufferedRandom))]


def _free_modules(had: set[str]):
    """Remove the modules not named in `had`, and `__main__`, from
    `sys.modules` and free them as the interpreter does at exit: collect
    them, so that their objects' `__del__`s see intact globals, then clear
    the globals of any still alive, last imported first, and collect again."""
    modules = [sys.modules.pop("__main__", None)] \
        + [sys.modules.pop(name) for name in list(sys.modules) if name not in had]
    refs = [weakref.ref(module) for module in reversed(modules) if isinstance(module, type(sys))]
    del modules
    gc.collect()
    for ref in refs:
        if (module := ref()) is not None:
            vars(module).clear()
    module = None
    gc.collect()


def _needs_full_exit() -> bool:
    """Whether a warm child must end through the interpreter's full exit:
    a daemon thread runs, which the interpreter halts before it frees any
    module, or the run can call C code of its own."""
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:   # non-daemon ones are joined
        return True
    return any(name in _C_CALLERS or isinstance(origin := _origin(module), str)
               and origin.endswith(_EXTENSION_SUFFIXES) and not _in_stdlib(module)
               for name, module in list(sys.modules.items()))


def _end_warm_run():
    """The last atexit call: in a warm child, end the run as the module
    docstring says; in the launcher, nothing."""
    global _ended
    if _ended is None:
        return
    had, error = _ended
    _ended = None
    if _needs_full_exit():
        return
    status, interrupted = _exit_status(error), type(error) is KeyboardInterrupt
    del error   # its traceback holds the run's frames
    gc.collect()
    if not _flushed(_open_writers()):
        return
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        vars(sys).pop(name, None)   # as the interpreter drops them: they hold the frames too
    atexit._clear()   # all made; the run's own would hold its modules' globals
    _free_modules(had)
    if not _flushed((sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__)):
        return
    if interrupted:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        status = 128 + signal.SIGINT   # the interpreter's, should the signal be blocked
    os._exit(status & 0xFF)


if __name__ == "__main__":
    child = serve(int(sys.argv[1]), int(sys.argv[2]))
    if child is not None:
        run_module(*child)
