"""Unit tests for cancellation tokens and the in-flight registry.

Covers :mod:`repro.service.tasks`: token semantics (first-call-wins,
deadline auto-cancel) and registry accounting -- each tracked token's
outcome counted exactly once, preemption of every open token, the
metrics feed, and the bounded idle wait.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import WorkCancelledError
from repro.service.metrics import MetricsRegistry
from repro.service.tasks import (
    CANCELLED,
    DEGRADED,
    DONE,
    CancelToken,
    TaskRegistry,
)


class FakeDeadline:
    """Duck-typed deadline: expired() flips when told to."""

    def __init__(self, expired: bool = False) -> None:
        self._expired = expired

    def expire(self) -> None:
        self._expired = True

    def expired(self) -> bool:
        return self._expired


class TestCancelToken:
    def test_fresh_token_is_live(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        token.checkpoint()  # no raise

    def test_cancel_sets_reason_and_first_call_wins(self):
        token = CancelToken()
        assert token.cancel("breaker_open") is True
        assert token.cancel("shutdown") is False
        assert token.cancelled
        assert token.reason == "breaker_open"

    def test_checkpoint_raises_with_reason(self):
        token = CancelToken()
        token.cancel("deadline")
        with pytest.raises(WorkCancelledError) as exc_info:
            token.checkpoint()
        assert exc_info.value.reason == "deadline"
        assert "deadline" in str(exc_info.value)

    def test_deadline_expiry_reads_as_cancelled(self):
        deadline = FakeDeadline()
        token = CancelToken(deadline=deadline)
        assert not token.cancelled
        deadline.expire()
        assert token.cancelled
        assert token.reason == "deadline"

    def test_concurrent_cancels_have_one_winner(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(1000):
                token = CancelToken()
                barrier = threading.Barrier(8)
                won = []

                def cancel(reason):
                    barrier.wait()
                    if token.cancel(reason):
                        won.append(reason)

                threads = [
                    threading.Thread(target=cancel, args=(f"r{i}",))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=5.0)
                assert not any(t.is_alive() for t in threads)
                assert len(won) == 1
                assert token.reason == won[0]
        finally:
            sys.setswitchinterval(interval)

    def test_explicit_cancel_beats_later_deadline(self):
        deadline = FakeDeadline()
        token = CancelToken(deadline=deadline)
        token.cancel("shutdown")
        deadline.expire()
        assert token.reason == "shutdown"


class TestTaskRegistry:
    def test_counts_outcomes(self):
        registry = TaskRegistry()
        done = registry.begin(CancelToken())
        registry.end(done, DONE)
        cancelled = registry.begin(CancelToken())
        cancelled.cancel("shutdown")
        registry.end(cancelled, CANCELLED)
        degraded = registry.begin(CancelToken())
        registry.end(degraded, DEGRADED)
        snap = registry.snapshot()
        assert snap["created"] == 3
        assert snap["done"] == 1
        assert snap["cancelled"] == 1
        assert snap["degraded"] == 1
        assert snap["in_flight"] == 0
        assert snap["cancelled_by_reason"] == {"shutdown": 1}

    def test_end_twice_counts_once(self):
        registry = TaskRegistry()
        token = registry.begin(CancelToken())
        registry.end(token, DONE)
        registry.end(token, DEGRADED)
        token.cancel("shutdown")
        registry.end(token, CANCELLED)
        snap = registry.snapshot()
        assert (snap["done"], snap["cancelled"], snap["degraded"]) == (1, 0, 0)
        assert snap["cancelled_by_reason"] == {}

    def test_cancel_in_flight_hits_every_open_item(self):
        registry = TaskRegistry()
        a = registry.begin(CancelToken())
        b = registry.begin(CancelToken())
        closed = registry.begin(CancelToken())
        registry.end(closed, DONE)
        assert registry.in_flight == 2
        assert registry.cancel_in_flight("breaker_open") == 2
        assert a.reason == b.reason == "breaker_open"
        assert not closed.cancelled
        registry.end(a, CANCELLED)
        registry.end(b, CANCELLED)
        snap = registry.snapshot()
        assert snap["cancelled"] == 2
        assert snap["cancelled_by_reason"] == {"breaker_open": 2}

    def test_deadline_expiry_counts_as_deadline_cancel(self):
        deadline = FakeDeadline()
        registry = TaskRegistry()
        token = registry.begin(CancelToken(deadline))
        deadline.expire()
        with pytest.raises(WorkCancelledError):
            token.checkpoint()
        registry.end(token, CANCELLED)
        assert registry.snapshot()["cancelled_by_reason"] == {"deadline": 1}

    def test_metrics_plumbing(self):
        metrics = MetricsRegistry()
        registry = TaskRegistry(metrics=metrics)
        registry.end(registry.begin(CancelToken()), DONE)
        cancelled = registry.begin(CancelToken())
        cancelled.cancel("deadline")
        registry.end(cancelled, CANCELLED)
        registry.end(registry.begin(CancelToken()), DEGRADED)
        expired = FakeDeadline()
        late = registry.begin(CancelToken(expired))
        expired.expire()
        assert late.reason == "deadline"
        registry.end(late, CANCELLED)
        snap = registry.snapshot()
        assert snap["done"] == 1
        assert snap["cancelled"] == 2
        assert snap["degraded"] == 1
        # Only an explicit cancel has a cancel-to-end latency: nobody
        # asked the expired token to stop.
        assert metrics.snapshot()["cancel_latency_seconds"]["count"] == 1

    def test_wait_idle_is_bounded(self):
        registry = TaskRegistry()
        assert registry.wait_idle(timeout=0.0) is True
        token = registry.begin(CancelToken())
        started = time.monotonic()
        assert registry.wait_idle(timeout=0.05) is False
        assert time.monotonic() - started < 1.0
        ender = threading.Timer(0.05, registry.end, (token, DONE))
        ender.start()
        try:
            assert registry.wait_idle(timeout=5.0) is True
        finally:
            ender.join(timeout=5.0)
        assert not ender.is_alive()

    def test_concurrent_cancel_and_finish_settles_once(self):
        # The work ending races a canceller that also ends the token:
        # two ends on one token, exactly one outcome counted, whichever
        # side wins.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                registry = TaskRegistry()
                token = registry.begin(CancelToken())
                barrier = threading.Barrier(2)

                def finisher():
                    barrier.wait()
                    registry.end(token, CANCELLED if token.cancelled else DONE)

                def canceller():
                    barrier.wait()
                    registry.cancel_in_flight("breaker_open")
                    registry.end(token, CANCELLED)

                threads = [
                    threading.Thread(target=finisher),
                    threading.Thread(target=canceller),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=5.0)
                assert not any(t.is_alive() for t in threads)
                snap = registry.snapshot()
                assert snap["done"] + snap["cancelled"] == 1
                assert snap["in_flight"] == 0
        finally:
            sys.setswitchinterval(interval)
