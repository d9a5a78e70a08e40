"""Command-line entry points: `uq` (campaigns) and `pj` (pilot manager)."""

from __future__ import annotations

import contextlib
import signal
import threading


def _exit_on_signal(signum, frame):
    for s in (signal.SIGTERM, signal.SIGHUP):   # stopping the runs is not to be cut short
        signal.signal(s, signal.SIG_IGN)
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def stop_on_termination():
    """Turn SIGTERM and SIGHUP into a `SystemExit(128 + signum)`, which
    cancels and drains a pilot manager's runs as an interrupt does. The runs
    are in process groups of their own, so a signal to this process group
    (`timeout`, a closed terminal) reaches them only this way. Off the main
    thread, which alone can set a handler, the signals keep theirs."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {s: signal.signal(s, _exit_on_signal) for s in (signal.SIGTERM, signal.SIGHUP)}
    try:
        yield
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
