"""In-memory spans recorded around calls into the program's layers.

The benchmark wraps public functions of the program (and the names other
modules imported them under) with timing shims, so the program itself
carries no tracing code.  Every call becomes one span: its name, start,
end, the span that was open on the same thread when it began, and the
thread.  A span's *self time* is its duration minus the time covered by
its children, so self times of nested layers add up without counting
any interval twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; patches are undone by :meth:`close`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target, attr: str, name: str) -> None:
        """Replace ``target.attr`` (``target``: a module or class, or its
        dotted path) with a shim that records one span named ``name`` per
        call."""
        owner = _resolve(target) if isinstance(target, str) else target
        original = vars(owner)[attr]

        @functools.wraps(original)
        def shim(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.current_thread().name))

        setattr(owner, attr, shim)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def within(self, t0: float, t1: float) -> list[Span]:
        """Spans that started and ended inside ``[t0, t1]``."""
        return [s for s in self.spans if s.start >= t0 and s.end <= t1]

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(
            s.id, 0.0)
    return out


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def overhead_pct(spans: list[Span], wall: float, calls: int = 20000) -> float:
    """Tracing cost as a percentage of ``wall``: the spans recorded times
    what one shim adds to a call, measured on a no-op.

    Estimated rather than taken from a traced and an untraced run side by
    side, because run-to-run drift on a shared machine is larger than the
    shims' cost.
    """

    class Probe:
        def noop(self):
            return None

    probe = Probe()
    t = time.monotonic()
    for _ in range(calls):
        probe.noop()
    bare = time.monotonic() - t
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    t = time.monotonic()
    for _ in range(calls):
        probe.noop()
    shimmed = time.monotonic() - t
    tracer.close()
    return 100.0 * len(spans) * max(0.0, shimmed - bare) / calls / wall


def _resolve(dotted: str):
    """``pkg.mod`` or ``pkg.mod.Class`` → the module or class object."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)
