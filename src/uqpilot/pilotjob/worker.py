"""Worker: call one Python function for each task its launcher sends.

    python worker.py REQUEST_FD RESULT_FD MODULE:FUNCTION

The launcher (`launcher.py`) starts it and says what it keeps between
tasks. It imports nothing from `uqpilot` and starts no thread. It reads
tasks on REQUEST_FD, each a 4-byte little-endian length and a marshalled
`(cwd, stdout, stderr, argv)`, and answers each with one line `"<code>\\n"`
on RESULT_FD. At EOF on REQUEST_FD it exits.
"""

import sys

if not getattr(sys.flags, "safe_path", False):
    del sys.path[0]   # this script's directory: the function imports nothing from it

import importlib
import marshal
import os
import traceback

_TRUNCATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _read(fd: int, size: int) -> bytes:
    """`size` bytes from `fd`; fewer only at EOF."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def _resolve(target: str):
    """The object `target`, `module:name` with a dotted name, names."""
    module, _, name = target.partition(":")
    value = importlib.import_module(module)
    for part in name.split("."):
        value = getattr(value, part)
    return value


def _enter(cwd: str, stdout: str, stderr: str):
    """Enter the task's directory and point fds 1 and 2 at its files."""
    os.chdir(cwd)
    for fd, path in ((1, stdout), (2, stderr)):
        opened = os.open(path, _TRUNCATE, 0o666)
        os.dup2(opened, fd)
        os.close(opened)


def _exit_code(error: SystemExit) -> int:
    """The status an interpreter exits with on `error`, printing a code that
    is not an int, as it does."""
    if error.code is None or isinstance(error.code, int):
        return error.code or 0
    print(error.code, file=sys.stderr)
    return 1


def _flush() -> bool:
    """Flush the standard streams and restore them, should the task have
    replaced them; False if a flush failed."""
    ok = True
    for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception:
            ok = False
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return ok


def serve(requests: int, results: int, target: str):
    """Run tasks until EOF on `requests`; the function is imported at the
    first task, and again at the next while its import fails."""
    for fd in (requests, results):
        os.set_inheritable(fd, False)   # no process the function starts holds them
    function = None
    while True:
        header = _read(requests, 4)
        if len(header) < 4:
            return
        cwd, stdout, stderr, argv = marshal.loads(
            _read(requests, int.from_bytes(header, "little")))
        try:
            _enter(cwd, stdout, stderr)
        except (OSError, ValueError):   # as for a command that cannot start
            code = 127
        else:
            try:
                if function is None:
                    function = _resolve(target)
                returned = function(list(argv))
                code = returned if isinstance(returned, int) else 0
            except SystemExit as error:
                code = _exit_code(error)
            except Exception:
                traceback.print_exc()
                code = 1
            if not _flush():
                code = 120   # as the interpreter exits when it cannot flush
        try:
            os.write(results, b"%d\n" % (code & 0xFF))
        except BrokenPipeError:   # the launcher is gone
            return


if __name__ == "__main__":
    serve(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
