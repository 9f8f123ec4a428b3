"""Span recording for the traced pass, and self times derived from the spans.

A span is one call into a public nsdamp function, timed from the outside by
a wrapper that replaces the module attribute the caller looks up.  Spans
are kept in memory and written out once, after the pass.  A span's parent
is the innermost open span on its thread; a call that starts on a pool
thread with no open span there belongs to the root (the driver call).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; returns (span index, result)."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        span = Span(name, 0.0, 0.0, parent, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if self._root is None:
                self._root = index
        stack.append(index)
        span.start = time.perf_counter()
        try:
            return index, fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, module: Any, attr: str, layer: str,
             describe: Callable[[tuple, dict, Any], dict] | None = None) -> None:
        """Replace module.attr with a wrapper that records a ``layer.attr`` span.

        describe(args, kwargs, result) may attach counts to the span; it runs
        after the span has closed, so it is not timed.
        """
        fn = getattr(module, attr)
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, result = self.call(name, fn, *args, **kwargs)
            if describe is not None:
                self.spans[index].meta = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> tuple[list[float], float]:
    """Self time of every span, and the accounting gap of the whole tree.

    A span's self time is its duration minus the part of its interval that
    its children cover.  Children running in parallel on a thread pool cover
    the same wall time more than once; that overlap is what makes the self
    times sum to more than the root.  The returned gap is

        root duration - (sum of self times - sum of child overlaps),

    which is zero up to rounding when every child lies inside its parent
    and minus the time spent outside it otherwise.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    selfs = []
    overlap = 0.0
    for i, s in enumerate(spans):
        clipped = [
            (max(k.start, s.start), min(k.end, s.end))
            for k in (spans[c] for c in children.get(i, ()))
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union_length(clipped)
        selfs.append(s.duration - covered)
        overlap += sum(b - a for a, b in clipped) - covered
    gap = spans[0].duration - (sum(selfs) - overlap) if spans else 0.0
    return selfs, gap
