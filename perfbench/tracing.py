"""In-memory span recorder wrapped around the program's public calls.

A :class:`Tracer` replaces chosen methods and module functions with thin
wrappers that record one span per call -- name, start, end and parent --
and restores the originals on :meth:`Tracer.uninstall`.  Nothing inside
``repro`` is edited: the wrappers sit at the class (or module) attribute,
so every instance, existing or future, goes through them, while class
identity, ``isinstance`` checks and overridden-method checks are left
untouched.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans of a run add up to the traced
wall time.  Spans live in flat arrays (a traced stream session records
about a million of them) until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tracer", "percentile"]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


class Tracer:
    """Records spans around wrapped callables while installed.

    ``observe`` callbacks given to :meth:`wrap` receive the call's
    arguments and result after the span closes, so per-call quantities
    (window sizes, drop counts) are measured where the work happens
    without being timed as part of it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self.observations: Dict[str, List[float]] = {}
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._child = array("d")
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
             ) -> None:
        """Route ``owner.attr`` through a span named ``name``."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                for key, value in observe(args, result).items():
                    tracer.observations.setdefault(key, []).append(value)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span around a block."""
        return _SpanContext(self, self._name_id(name))

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._child.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._end[index] = end
        self._stack.pop()
        parent = self._parent[index]
        if parent >= 0:
            self._child[parent] += end - self._start[index]

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """Per span name: ``[count, summed duration, summed self time]``.

        Self time is a span's duration minus its direct children's.
        """
        sums = [[0, 0.0, 0.0] for _ in self.names]
        start, end, child, name = self._start, self._end, self._child, self._name
        for i in range(len(start)):
            row = sums[name[i]]
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return dict(zip(self.names, sums))

    def durations(self, name: str) -> List[float]:
        wanted = self._ids.get(name)
        return [self._end[i] - self._start[i]
                for i in range(len(self._start)) if self._name[i] == wanted]

    def write(self, path: str) -> None:
        """Append the spans to a gzip file of CSV lines.

        A header line ``# run=<id>`` opens the run; each span is
        ``id,name,parent,start,end`` with times in seconds from the run's
        first span and ``parent`` -1 for a root span.
        """
        origin = self._start[0] if self._start else 0.0
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as out:
            out.write(f"# run={self.run_id}\n")
            names = self.names
            out.writelines(
                f"{i},{names[self._name[i]]},{self._parent[i]},"
                f"{self._start[i] - origin:.9f},{self._end[i] - origin:.9f}\n"
                for i in range(len(self._start)))


class _SpanContext:
    def __init__(self, tracer: Tracer, name_id: int):
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._name_id)

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._index)
