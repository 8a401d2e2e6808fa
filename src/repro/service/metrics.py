"""Thread-safe counters and histograms for the service daemon.

The registry is intentionally tiny -- a dict of named instruments behind
one lock -- because the daemon only ever touches it on the request path
(a handful of increments per batch).  ``snapshot()`` renders everything
to plain JSON-serializable values for the ``stats`` protocol request.

One model: the component that owns an event counts it once (task
outcomes live in the ``TaskRegistry``, deadline misses in the breaker,
fired faults in the ``FaultInjector``), and a stage that has a span is
timed only by it -- under ``--trace`` the tracer's sink fills one
``span_<name>`` histogram per span name.  The daemon times by hand only
what a span cannot give: queue wait and cancel latency (no span covers
them), each scan that returns (its p90 is the shed estimate, traced or
not) and each named-engine call (span names carry no engine).

Histograms keep exact count/sum/min/max plus a bounded reservoir of
recent observations for approximate percentiles; with the default
reservoir of 1024 samples the p50/p90/p99 of a steady workload are
accurate to well under a bucket width without unbounded memory.
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self):
        return self._value


class Histogram:
    """Exact count/sum/min/max plus reservoir-based percentiles.

    The reservoir holds the most recent ``reservoir_size`` observations
    (ring buffer); percentiles are computed over it at snapshot time.
    """

    __slots__ = ("_lock", "count", "total", "min", "max", "_ring", "_pos", "_size")

    def __init__(self, reservoir_size: int = 1024) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: "float | None" = None
        self.max: "float | None" = None
        self._ring: list[float] = []
        self._pos = 0
        self._size = reservoir_size

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._ring) < self._size:
                self._ring.append(value)
            else:
                self._ring[self._pos] = value
                self._pos = (self._pos + 1) % self._size

    @property
    def mean(self) -> "float | None":
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> "float | None":
        """Approximate q-quantile (0 <= q <= 1) over the reservoir."""
        with self._lock:
            if not self._ring:
                return None
            ordered = sorted(self._ring)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self):
        with self._lock:
            if not self.count:
                return {"count": 0}
            ordered = sorted(self._ring)
            count, total = self.count, self.total
            lo, hi = self.min, self.max

        def pick(q: float) -> float:
            return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": pick(0.50),
            "p90": pick(0.90),
            "p99": pick(0.99),
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, factory):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """All instruments rendered to JSON-serializable values, sorted
        by name for stable output."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in items}


__all__ = ["Counter", "Histogram", "MetricsRegistry"]
