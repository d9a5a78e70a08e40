"""In-memory span recorder that wraps the program's functions from outside.

A span is (name, start, end, parent, thread, extra). The parent is the
innermost open span of the same thread, so a layer's self time is its
duration minus the durations of its direct children. Nothing is written
until ``dump`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import threading
import time
import types
from collections import defaultdict

CALIBRATION_CALLS = 5000


def cpu_times() -> tuple[float, float]:
    """(this process, its waited-for children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped_calls: set[str] = set()   # span names recorded by ``wrap``
        self._unit_cost: dict[str, float] | None = None

    # --- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, threading.get_ident(), {}]
            )
        stack.append(idx)
        return idx

    def end(self, idx: int, **extra):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5].update(extra)
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, cpu: bool = False):
        cpu0 = cpu_times() if cpu else None
        idx = self.begin(name)
        try:
            yield idx
        finally:
            extra = {}
            if cpu0 is not None:
                cpu1 = cpu_times()
                extra = {"cpu_self": cpu1[0] - cpu0[0], "cpu_children": cpu1[1] - cpu0[1]}
            self.end(idx, **extra)

    # --- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, cpu: bool = False):
        """Replace owner.attr by a spanned wrapper until ``restore``.

        ``on_result(span_extra, result, args)`` may record counts taken
        from the call; its keys land in the span's extra dict.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, cpu=cpu) as idx:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self.spans[idx][5], result, args)
                return result

        self._wrapped_calls.add(name)
        self._patch(owner, attr, original, wrapper)

    def wrap_cm(self, owner, attr: str, name: str):
        """Span a context-manager method from enter to exit."""
        original = vars(owner)[attr]

        @contextlib.contextmanager
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                with original(*args, **kwargs) as value:
                    yield value

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- own cost -------------------------------------------------------

    @staticmethod
    def unit_cost(calls: int = CALIBRATION_CALLS) -> dict[str, float]:
        """Seconds one span adds over the bare call, measured in this process.

        ``call`` is a ``wrap``-ped function, ``block`` a ``wrap_cm``-ped
        context manager or a ``span`` block. Each is the median of five
        timings of ``calls`` calls, minus the same calls unwrapped.
        """
        probe = types.SimpleNamespace(call=lambda: None, block=contextlib.nullcontext)
        tracer = Tracer()

        def timings():
            out = []
            for _ in range(5):
                call, block = probe.call, probe.block
                t0 = time.perf_counter()
                for _ in range(calls):
                    call()
                t1 = time.perf_counter()
                for _ in range(calls):
                    with block():
                        pass
                out.append((t1 - t0, time.perf_counter() - t1))
                tracer.spans.clear()
            return [statistics.median(kind) for kind in zip(*out)]

        bare = timings()
        tracer.wrap(probe, "call", "probe.call")
        tracer.wrap_cm(probe, "block", "probe.block")
        try:
            wrapped = timings()
        finally:
            tracer.restore()
        return {kind: max(w - b, 0.0) / calls
                for kind, w, b in zip(("call", "block"), wrapped, bare)}

    def cost(self, first: int = 0) -> float:
        """Estimated seconds the spans from index ``first`` on added."""
        if self._unit_cost is None:
            self._unit_cost = self.unit_cost()
        return sum(
            self._unit_cost["call" if span[0] in self._wrapped_calls else "block"]
            for span in self.spans[first:]
        )

    # --- summaries -----------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, dict]:
        """Per name: calls, total and self seconds, summed extras.

        Only spans from index ``first`` on are counted, so one tracer can
        serve several rounds.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent is not None and parent >= first and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for offset, (name, start, end, _, _, extra) in enumerate(spans):
            if end is None:
                continue
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": defaultdict(float)}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[first + offset]
            for key, value in extra.items():
                entry["extra"][key] += value
        return out

    def dump(self, path, meta: dict):
        """Write every span as JSON: times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            **meta,
            "fields": ["name", "start_s", "end_s", "parent", "thread", "extra"],
            "spans": [
                [n, s - t0, None if e is None else e - t0, p, th, x]
                for n, s, e, p, th, x in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
