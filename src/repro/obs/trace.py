"""Span-based tracing: follow one pair through the pipeline's stages.

A :class:`Tracer` appends one JSON object per finished span to a JSONL
log.  Spans carry sequential ids and a ``parent_id``, so a single pair's
journey — fingerprint → cache probe → matcher dispatch → store append —
reconstructs as a tree; durations come from the monotonic clock
(``time.perf_counter``), with ``start_s`` expressed as the offset from
the tracer's epoch (its construction time) so spans from one run are
directly comparable.

The schema of one line (see ``docs/observability.md``):

    {"span_id": 2, "parent_id": 1, "name": "fingerprint",
     "start_s": 0.00012, "duration_s": 0.0031, "attrs": {...}}

:data:`NULL_TRACER` is a do-nothing implementation with the same API, so
instrumented code never branches on "is tracing on?".
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = ["Tracer", "Span", "NullTracer", "NULL_TRACER"]


class Span:
    """One traced operation; call :meth:`end` (or use ``Tracer.span``)."""

    __slots__ = ("name", "span_id", "parent_id", "attrs",
                 "start_s", "duration_s", "_tracer", "_started")

    def __init__(self, tracer, name, span_id, parent_id, start_s, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = start_s
        self.duration_s = None
        self._tracer = tracer
        self._started = time.perf_counter()

    def end(self) -> None:
        """Close the span and write its line; idempotent."""
        if self._tracer is None:
            return
        tracer, self._tracer = self._tracer, None
        self.duration_s = time.perf_counter() - self._started
        tracer._write(self)


class Tracer:
    """Appends finished spans to a JSONL log, one JSON object per line."""

    def __init__(self, path) -> None:
        self._path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        self._next_id = 1
        self._epoch = time.perf_counter()

    def start(self, name: str, parent=None, **attrs) -> Span:
        """Open a span; the caller must ``end()`` it."""
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            self, name, span_id, parent_id,
            time.perf_counter() - self._epoch, attrs,
        )

    @contextmanager
    def span(self, name: str, parent=None, **attrs):
        """``with tracer.span("match", pair_id=...) as span: ...``"""
        opened = self.start(name, parent=parent, **attrs)
        try:
            yield opened
        finally:
            opened.end()

    def record(self, name: str, duration_s: float, parent=None, **attrs) -> Span:
        """Log an already-measured operation as a completed span."""
        span = self.start(name, parent=parent, **attrs)
        span._tracer = None
        span.duration_s = duration_s
        self._write(span)
        return span

    def _write(self, span: Span) -> None:
        line = json.dumps(
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start_s": span.start_s,
                "duration_s": span.duration_s,
                "attrs": span.attrs,
            },
            sort_keys=True,
        )
        with self._lock:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class _NullSpan(Span):
    """The span no one is recording; ``end()`` is a no-op."""

    def __init__(self):
        super().__init__(None, None, None, None, 0.0, {})


class NullTracer:
    """Same API as :class:`Tracer`, writes nothing; safe to share."""

    def start(self, name, parent=None, **attrs):
        return NULL_SPAN

    def span(self, name, parent=None, **attrs):
        return _NULL_SPAN_CONTEXT

    def record(self, name, duration_s, parent=None, **attrs):
        return NULL_SPAN

    def close(self) -> None:
        return None


NULL_SPAN = _NullSpan()
#: What every :meth:`NullTracer.span` returns.  ``nullcontext`` keeps no
#: state between enter and exit, so one instance nests and serves every
#: thread.
_NULL_SPAN_CONTEXT = nullcontext(NULL_SPAN)
NULL_TRACER = NullTracer()
