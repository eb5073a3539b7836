"""In-memory spans around the public calls of the pipeline.

A span records a name, start and end times, the span that caused it and the
operation it belongs to.  Names are ``<module>.<call>`` so that self time
can be summed per module.  Spans are kept in a list and written out once,
when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects nested spans; the outermost span of each operation is its root."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def root(self, name: str, op: int):
        self._op = op
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """``fn(*args)``, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        s.duration - _covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def module_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per module; root spans count as ``uncovered``."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = "uncovered" if span.parent is None else span.module
        out[key] = out.get(key, 0.0) + own
    return out
