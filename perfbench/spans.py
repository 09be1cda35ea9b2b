"""In-memory span recording and the arithmetic the benchmark reports.

A :class:`Tracer` wraps functions of the program from the outside: each
call becomes a span (name, start, end, parent) kept in memory, and
``gc.callbacks`` adds one ``gc`` span per collection.  Spans are written
out once, when the traced process is done (:meth:`Tracer.dump`), so
recording costs two clock reads and a few array appends per call.

The module also holds the pure functions that turn spans and samples
into reported numbers (:func:`layer_totals`, :func:`tail_percentile`);
the benchmark's tests pin them.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: A span as dumped: (name, parent index or -1, start, end).
SpanRow = Tuple[str, int, float, float]


class _Buffer:
    """One thread's spans, as flat arrays so the collector never walks them.

    Span ``i`` is ``(names[i], parents[i], starts[i], ends[i])``;
    ``parents`` holds indexes into the same buffer (-1 for none).
    """

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.gc_span = -1

    def open(self, name: int) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.monotonic())
        self.ends.append(0.0)
        return index


class Tracer:
    """Records spans, counts and maxima for one process.

    Each thread records into its own buffer, so a served program's
    handler and runner threads nest their own calls without a lock.
    After a ``fork`` the child calls :meth:`restart` to drop what it
    inherited from its parent.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()

    def restart(self) -> None:
        """Forget everything recorded so far (first call in a forked child)."""
        self.pid = os.getpid()
        self.counts.clear()
        self.maxima.clear()
        self._buffers.clear()
        self._local = threading.local()

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            self._buffers.append(buffer)
        return buffer

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, owner: object, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a function that records a span.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, result)`` once it has closed, so neither
        is charged to the wrapped layer.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        buffer_of = self._buffer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            buffer = buffer_of()
            index = buffer.open(name_id)
            buffer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                buffer.ends[index] = time.monotonic()
                buffer.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def watch_gc(self) -> None:
        """Record every collection as a ``gc`` span under the open span."""
        name_id = self._name_id("gc")

        def on_gc(phase: str, info: Dict[str, int]) -> None:
            buffer = self._buffer()
            if phase == "start":
                buffer.gc_span = buffer.open(name_id)
            elif buffer.gc_span >= 0:
                buffer.ends[buffer.gc_span] = time.monotonic()
                buffer.gc_span = -1

        gc.callbacks.append(on_gc)

    def rows(self) -> List[SpanRow]:
        """Every span of every thread, parents as indexes into the list."""
        rows: List[SpanRow] = []
        for buffer in self._buffers:
            offset = len(rows)
            for name, parent, start, end in zip(buffer.names, buffer.parents,
                                                buffer.starts, buffer.ends):
                rows.append((self.names[name],
                             parent + offset if parent >= 0 else -1,
                             start, end))
        return rows

    def dump(self, path: str) -> None:
        """Write spans, counts and maxima as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"pid": self.pid, "spans": self.rows(),
                       "counts": self.counts, "maxima": self.maxima},
                      handle)


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans and samples.
# ---------------------------------------------------------------------------

def layer_totals(rows: Sequence[SpanRow]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``calls`` and ``busy_s`` count only outermost spans of a name — a
    span nested (at any depth) inside another span of the same name
    adds neither, so recursion and wrapper-over-wrapper pairs are not
    counted twice.  ``self_s`` sums every span's duration minus the
    durations of its direct children.
    """
    children_time = [0.0] * len(rows)
    for name, parent, start, end in rows:
        if parent >= 0:
            children_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    for number, (name, parent, start, end) in enumerate(rows):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        entry["self_s"] += (end - start) - children_time[number]
        ancestor = parent
        while ancestor >= 0 and rows[ancestor][0] != name:
            ancestor = rows[ancestor][1]
        if ancestor < 0:
            entry["calls"] += 1
            entry["busy_s"] += end - start
    return totals


def tail_percentile(values: Sequence[float],
                    beyond: int = TAIL_BEYOND
                    ) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with ``beyond``
    samples above it, or ``None`` when there are too few samples.

    With ``n`` samples sorted ascending, the sample at 1-based rank
    ``n - beyond`` has exactly ``beyond`` samples after it; it is the
    ``100 * (n - beyond) / n``-th percentile by the nearest-rank rule.
    """
    count = len(values)
    if count <= beyond:
        return None
    rank = count - beyond
    return 100.0 * rank / count, sorted(values)[rank - 1]
