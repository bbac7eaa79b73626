"""In-memory span recorder for traced runs.

A traced run wraps public functions of the program's layers (see
``perfbench/layers.py``) with :meth:`Recorder.wrap`.  Every call becomes
a :class:`Span` with a name, start, end, parent span and thread, plus
the request id of the service job it ran for.  Parents come from a
context variable, so spans nest per thread, per asyncio task, and
across ``asyncio.to_thread`` (which copies the caller's context).
Spans stay in memory until :meth:`Recorder.dump` writes them out when
the run ends.

:func:`self_times` turns the dumped rows into each span's self time:
its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: contextvars.ContextVar["list[object] | None"] = contextvars.ContextVar(
    "perfbench_request", default=None
)

#: ``observe(result, args, kwargs)``: counts taken inside a wrapped call.
Observer = Callable[[Any, tuple, dict], None]

#: A dumped span: ``[id, name, start, end, parent_id, thread, request]``.
Row = Sequence[Any]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "request")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        parent: "int | None",
        request: "list[object] | None",
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.thread = threading.get_ident()
        self.request = request


class Recorder:
    """Collects spans and counters of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict[str, float]] = []
        self._maxima: dict[str, float] = {}

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a counter (a per-thread tally: no lost updates)."""
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = {}
            with self._lock:
                self._tallies.append(tally)
        tally[name] = tally.get(name, 0) + n

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._maxima.get(name, float("-inf")):
                self._maxima[name] = value

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        with self._lock:
            for tally in self._tallies:
                for key, value in tally.items():
                    out[key] = out.get(key, 0) + value
            out.update(self._maxima)
        return out

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self, name: str, parent: "Span | None") -> tuple[Span, contextvars.Token]:
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            parent.id if parent is not None else None,
            _REQUEST.get(),
        )
        self.spans.append(span)
        return span, _CURRENT.set(span)

    def wrap(
        self, name: str, fn: Callable[..., Any], observe: "Observer | None" = None
    ) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` around every call.

        A call made while a span of the same name is open (a subclass
        method calling its parent's, a helper calling its batch twin)
        records nothing more, so each span counts one call of the layer.
        """
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = _CURRENT.get()
                if parent is not None and parent.name == name:
                    return await fn(*args, **kwargs)
                span, token = self._open(name, parent)
                try:
                    result = await fn(*args, **kwargs)
                    if observe is not None:
                        observe(result, args, kwargs)
                    return result
                finally:
                    span.end = self.clock()
                    _CURRENT.reset(token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            span, token = self._open(name, parent)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, args, kwargs)
                return result
            finally:
                span.end = self.clock()
                _CURRENT.reset(token)

        return wrapper

    def tag_requests(
        self, fn: Callable[..., Any], request_id: Callable[[Any], object]
    ) -> Callable[..., Any]:
        """``fn`` whose spans, and those of tasks it creates, carry an id.

        The id is read off ``fn``'s result by ``request_id``; spans
        opened before it is known hold the same slot, filled afterwards.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            slot: list[object] = [None]
            token = _REQUEST.set(slot)
            try:
                result = fn(*args, **kwargs)
            finally:
                _REQUEST.reset(token)
            slot[0] = request_id(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def rows(self) -> list[list[Any]]:
        """Every finished span as a :data:`Row`."""
        return [
            [s.id, s.name, s.start, s.end, s.parent, s.thread,
             s.request[0] if s.request else None]
            for s in list(self.spans)
            if s.end is not None
        ]

    def dump(self, path: str, **extra: object) -> None:
        """Write spans, counters and ``extra`` fields as one JSON file."""
        data = {"spans": self.rows(), "counters": self.counters(), **extra}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# analysis of dumped rows
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reached = lo  # everything in [lo, reached] is already counted
    for a, b in sorted((a, min(b, hi)) for a, b in intervals if b > lo and a < hi):
        if b > reached:
            total += b - max(a, reached)
            reached = b
    return total


def self_times(rows: Iterable[Row]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    rows = list(rows)
    children: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if row[4] is not None:
            children.setdefault(row[4], []).append((row[2], row[3]))
    out: dict[int, float] = {}
    for row in rows:
        span_id, start, end = row[0], row[2], row[3]
        kids = children.get(span_id)
        covered = union_length(kids, start, end) if kids else 0.0
        out[span_id] = (end - start) - covered
    return out


def summarize(rows: Iterable[Row]) -> dict[str, dict[str, float]]:
    """Span name → ``{"calls": n, "self_s": total self seconds}``."""
    rows = list(rows)
    own = self_times(rows)
    out: dict[str, dict[str, float]] = {}
    for row in rows:
        entry = out.setdefault(row[1], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[row[0]]
    return out


def covered_share(rows: Iterable[Row], lo: float, hi: float) -> float:
    """Share of ``[lo, hi]`` covered by at least one span."""
    if hi <= lo:
        return 0.0
    return union_length(((r[2], r[3]) for r in rows), lo, hi) / (hi - lo)


def merge_summaries(parts: Iterable[Mapping[str, Mapping[str, float]]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            acc = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
    return out
