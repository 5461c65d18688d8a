"""Span tracer that times ``repro``'s public callables from outside.

:meth:`Tracer.installed` replaces each :class:`Target` -- a method on
the class that defines it, or a function at the module attribute its
caller looks it up through -- with a wrapper that records one span per
call, and puts every original back on exit.  A span is
``(id, name, start, end, parent id, op id, thread id, value)``; the
parent is the innermost open span on the same thread, and the op id is
whatever the benchmark last stored in :attr:`Tracer.op`.

Total and self time (duration minus the time child spans cover) are
summed per name as spans close.  Every span stays in memory until
:meth:`Tracer.write_chrome_trace` writes it out: a traced ``fleet32``
run keeps about 150k spans, which raise its peak memory from about 115
to 215 MB.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class Target:
    """One callable to time: ``owner.attr``, recorded as span ``name``.

    ``value`` maps the call's ``(args, kwargs)`` to a number kept on the
    span (e.g. a front size), collected in :attr:`Tracer.values`.
    """

    owner: Any
    attr: str
    name: str
    value: Optional[Callable[[tuple, dict], float]] = None


class Tracer:
    """Collects spans from wrapped callables and from :meth:`span`."""

    def __init__(self):
        self.op = -1
        self.spans: List[tuple] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._count = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------

    def _open(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = self._count
            self._count += 1
        parent = stack[-1][0] if stack else None
        frame = [index, parent, 0.0]  # id, parent id, child seconds
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float,
               value: Optional[float]) -> None:
        stack = self._local.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_seconds[name] += duration - frame[2]
            self.total_seconds[name] += duration
            self.calls[name] += 1
            if value is not None:
                self.values[name].append(value)
            self.spans.append((frame[0], name, start, end, frame[1],
                               self.op, threading.get_ident(), value))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span (the benchmark's own)."""
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter(), None)

    def wrap(self, fn: Callable, name: str,
             value: Optional[Callable[[tuple, dict], float]] = None,
             ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(frame, name, start, end,
                              None if value is None else value(args, kwargs))

        return traced

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the ``with`` body, then restore them.

        A method is replaced on the class that defines it (looked up in
        ``owner.__dict__``, so the exact original object goes back); a
        module attribute is replaced where the caller resolves it.
        """
        saved = []
        try:
            for target in targets:
                if isinstance(target.owner, type):
                    original = target.owner.__dict__[target.attr]
                else:
                    original = getattr(target.owner, target.attr)
                setattr(target.owner, target.attr,
                        self.wrap(original, target.name, target.value))
                saved.append((target.owner, target.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_chrome_trace(self, path: Path,
                           metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write every span as Chrome trace-event JSON, one event at a
        time."""
        pid = os.getpid()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write('{"otherData": %s, "traceEvents": ['
                         % json.dumps(metadata or {}))
            for i, (index, name, start, end, parent, op, tid,
                    value) in enumerate(self.spans):
                args = {"id": index, "parent": parent, "op": op}
                if value is not None:
                    args["value"] = value
                handle.write(("," if i else "") + json.dumps({
                    "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                    "ts": 1e6 * (start - self._origin),
                    "dur": 1e6 * (end - start),
                    "pid": pid, "tid": tid, "args": args}))
            handle.write("]}\n")
