"""Lightweight span tracing for the synthesis hot paths.

The tracer answers "where did the time go?" for one query or one build:
every instrumented region (``with trace("bfs.level", level=3): ...``)
becomes a *span* with a wall-clock duration, and spans opened while
another span is running on the same thread nest under it, forming a
tree.  ``repro trace`` renders these trees for a one-shot synthesis;
the service daemon exports per-span-name histograms through its
:class:`~repro.service.metrics.MetricsRegistry` (``span_<name>``) when
started with ``--trace``.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Tracing is off by default and
   the instrumented code includes scalar hot paths (canonicalization is
   ~50 us/call).  A disabled ``trace(...)`` call is one module-global
   read, one ``None`` test, and the context-manager protocol on a
   shared no-op singleton -- a few hundred nanoseconds, well under the
   5% budget asserted by ``tests/test_perf_trace.py``.
2. **Bounded memory when enabled.**  A BFS build canonicalizes millions
   of words; storing every child span would OOM.  Each span keeps at
   most ``max_children`` children (the rest are counted in
   ``dropped_children``), and the tracer keeps at most ``max_roots``
   completed root spans (oldest evicted first).  Per-name aggregates
   (count/total/min/max) are always exact, regardless of the caps.
3. **No upward imports.**  This module is imported by ``repro.core``
   and ``repro.synth``; it depends on the standard library only.
   Metrics export is wired by the *caller* passing a sink callable.

Thread model: the span stack is thread-local (each thread builds its
own trees); completed roots and aggregates are shared behind one lock
taken only at span completion.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "remove_sink",
    "render_tree",
    "trace",
]

#: A sink receives ``(span_name, duration_seconds)`` for every completed
#: span.  The service daemon installs one that feeds its metrics
#: registry; tests install recording sinks.
Sink = Callable[[str, float], None]


@dataclass
class Span:
    """One timed region: name, attributes, duration, children."""

    name: str
    attrs: dict[str, Any]
    started: float
    duration: "float | None" = None
    error: "str | None" = None
    children: list["Span"] = field(default_factory=list)
    dropped_children: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view of the span tree rooted here."""
        body: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attrs:
            body["attrs"] = dict(self.attrs)
        if self.error is not None:
            body["error"] = self.error
        if self.children:
            body["children"] = [child.to_dict() for child in self.children]
        if self.dropped_children:
            body["dropped_children"] = self.dropped_children
        return body


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a :class:`Span` on the tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> bool:
        if exc_type is not None:
            self._span.error = exc_type.__name__
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects span trees and per-name aggregates; see module docs."""

    def __init__(self, max_roots: int = 64, max_children: int = 64) -> None:
        self.max_roots = max_roots
        self.max_children = max_children
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: deque[Span] = deque(maxlen=max_roots)
        # name -> [count, total, min, max]
        self._agg: dict[str, list[float]] = {}
        self._sinks: list[Sink] = []

    # ------------------------------------------------------------------
    # Span lifecycle (called via trace())
    # ------------------------------------------------------------------
    def span(self, name: str, attrs: dict[str, Any]) -> _SpanContext:
        return _SpanContext(
            self, Span(name=name, attrs=attrs, started=time.perf_counter())
        )

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        span.started = time.perf_counter()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.started
        stack = self._stack()
        # Tolerate mispaired exits (a span leaked across a generator,
        # say) by unwinding to the span being closed.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            parent = stack[-1]
            if len(parent.children) < self.max_children:
                parent.children.append(span)
            else:
                parent.dropped_children += 1
        with self._lock:
            if not stack:
                self._roots.append(span)
            entry = self._agg.get(span.name)
            if entry is None:
                self._agg[span.name] = [
                    1.0, span.duration, span.duration, span.duration,
                ]
            else:
                entry[0] += 1.0
                entry[1] += span.duration
                if span.duration < entry[2]:
                    entry[2] = span.duration
                if span.duration > entry[3]:
                    entry[3] = span.duration
            sinks = tuple(self._sinks)
        for sink in sinks:
            sink(span.name, span.duration)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def add_sink(self, sink: Sink) -> None:
        """Register a callback fired with (name, seconds) per span."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> int:
        """Unregister ``sink``; returns how many sinks remain."""
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            return len(self._sinks)

    def roots(self) -> list[Span]:
        """Completed root spans, oldest first (bounded by max_roots)."""
        with self._lock:
            return list(self._roots)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Exact per-name totals: count / total_s / min_s / max_s / mean_s."""
        with self._lock:
            items = sorted(self._agg.items())
        return {
            name: {
                "count": entry[0],
                "total_s": entry[1],
                "min_s": entry[2],
                "max_s": entry[3],
                "mean_s": entry[1] / entry[0],
            }
            for name, entry in items
        }

    def reset(self) -> None:
        """Drop all recorded roots and aggregates (sinks stay)."""
        with self._lock:
            self._roots.clear()
            self._agg.clear()


# ----------------------------------------------------------------------
# Module-level switch.  The fast path reads one global; everything else
# happens only when tracing was explicitly enabled.
# ----------------------------------------------------------------------
_active: "Tracer | None" = None
_switch_lock = threading.Lock()


def trace(name: str, **attrs: Any) -> "_SpanContext | _NullSpan":
    """Open a span (``with trace("search.scan", list=2): ...``).

    Returns a shared no-op context manager when tracing is disabled --
    the call costs a global read and a ``None`` check.
    """
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs)


def enable(
    *,
    sink: "Sink | None" = None,
    max_roots: int = 64,
    max_children: int = 64,
) -> Tracer:
    """Turn tracing on (idempotent) and return the active tracer.

    When already enabled the existing tracer is kept (its caps are not
    changed) and ``sink``, if given, is added to it.
    """
    global _active
    with _switch_lock:
        tracer = _active
        if tracer is None:
            tracer = Tracer(max_roots=max_roots, max_children=max_children)
            _active = tracer
        # Under the switch lock, so a concurrent remove_sink cannot turn
        # this tracer off between its creation and this sink's arrival.
        if sink is not None:
            tracer.add_sink(sink)
    return tracer


def disable() -> None:
    """Turn tracing off; in-flight spans complete unrecorded."""
    global _active
    with _switch_lock:
        _active = None


def remove_sink(sink: Sink) -> None:
    """Unregister ``sink``; tracing turns off once no sink is left."""
    global _active
    with _switch_lock:
        if _active is not None and _active.remove_sink(sink) == 0:
            _active = None


def is_enabled() -> bool:
    return _active is not None


def get_tracer() -> "Tracer | None":
    """The active tracer, or None while disabled."""
    return _active


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_seconds(seconds: "float | None") -> str:
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_tree(span: Span, indent: int = 0) -> str:
    """Indented text rendering of one span tree."""
    lines: list[str] = []
    _render_into(span, indent, lines)
    return "\n".join(lines)


def _render_into(span: Span, indent: int, lines: list[str]) -> None:
    attrs = ""
    if span.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        attrs = f"  [{inner}]"
    error = f"  !{span.error}" if span.error else ""
    lines.append(
        f"{'  ' * indent}- {span.name}  "
        f"{_format_seconds(span.duration)}{attrs}{error}"
    )
    for child in span.children:
        _render_into(child, indent + 1, lines)
    if span.dropped_children:
        lines.append(
            f"{'  ' * (indent + 1)}... {span.dropped_children} more "
            "child span(s) dropped (max_children cap)"
        )


def render_aggregate(aggregate: dict[str, dict[str, float]]) -> str:
    """Fixed-width table of per-name aggregates."""
    if not aggregate:
        return "(no spans recorded)"
    width = max(len(name) for name in aggregate)
    lines = [
        f"{'span':<{width}} {'count':>8} {'total':>10} {'mean':>10} {'max':>10}"
    ]
    for name, entry in aggregate.items():
        lines.append(
            f"{name:<{width}} {int(entry['count']):>8} "
            f"{_format_seconds(entry['total_s']):>10} "
            f"{_format_seconds(entry['mean_s']):>10} "
            f"{_format_seconds(entry['max_s']):>10}"
        )
    return "\n".join(lines)


def spans_to_dicts(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """JSON-ready list of span trees (for stats payloads / --json)."""
    return [span.to_dict() for span in spans]
