"""Unit tests for the cancellable work-item machinery.

Covers :mod:`repro.service.tasks`: token semantics (first-call-wins,
deadline auto-cancel, parent chaining), the work-item state machine
(including the hypothesis property that no operation sequence escapes
the pending -> running -> terminal DAG), and registry accounting.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError, WorkCancelledError
from repro.service.metrics import MetricsRegistry
from repro.service.tasks import (
    CANCELLED,
    DEGRADED,
    DONE,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    TRANSITIONS,
    CancelToken,
    TaskRegistry,
    WorkItem,
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

    def test_explicit_cancel_beats_later_deadline(self):
        deadline = FakeDeadline()
        token = CancelToken(deadline=deadline)
        token.cancel("shutdown")
        deadline.expire()
        assert token.reason == "shutdown"


class TestWorkItemStateMachine:
    def test_happy_path(self):
        item = WorkItem("scan")
        assert item.state == PENDING
        assert not item.finished
        item.start()
        assert item.state == RUNNING
        item.finish(42)
        assert item.state == DONE
        assert item.finished
        assert item.result == 42

    def test_pending_cancel_is_immediate(self):
        item = WorkItem("scan")
        assert item.cancel("shutdown") is True
        assert item.state == CANCELLED
        assert item.token.reason == "shutdown"

    def test_running_cancel_needs_cooperation(self):
        item = WorkItem("scan")
        item.start()
        assert item.cancel("deadline") is False
        assert item.state == RUNNING  # not terminal yet
        assert item.token.cancelled
        assert item.mark_cancelled() is True
        assert item.state == CANCELLED

    def test_terminal_states_latch(self):
        item = WorkItem("scan")
        item.start()
        item.finish("answer")
        with pytest.raises(ServiceError):
            item.start()
        with pytest.raises(ServiceError):
            item.finish("other")
        with pytest.raises(ServiceError):
            item.degrade()
        assert item.cancel("late") is False
        assert item.state == DONE
        assert item.result == "answer"

    def test_degrade_records_error(self):
        item = WorkItem("scan")
        item.start()
        boom = RuntimeError("boom")
        item.degrade(boom)
        assert item.state == DEGRADED
        assert item.error is boom

    def test_run_executes_fn_with_token(self):
        seen = []
        item = WorkItem("scan", lambda token: seen.append(token) or "ok")
        assert item.run() == "ok"
        assert item.state == DONE
        assert seen == [item.token]

    def test_run_cancelled_checkpoint_lands_in_cancelled(self):
        def fn(token):
            token.cancel("deadline")
            token.checkpoint()

        item = WorkItem("scan", fn)
        assert item.run() is None
        assert item.state == CANCELLED

    def test_run_error_lands_in_degraded(self):
        item = WorkItem("scan", lambda token: 1 / 0)
        assert item.run() is None
        assert item.state == DEGRADED
        assert isinstance(item.error, ZeroDivisionError)

    def test_run_precancelled_never_starts(self):
        item = WorkItem("scan", lambda token: "never")
        item.token.cancel("shutdown")
        assert item.run() is None
        assert item.state == CANCELLED
        assert item.started_at is None

    def test_run_post_return_cancel_is_cancelled(self):
        # The token flipped while fn ran but fn never hit a checkpoint.
        def fn(token):
            token.cancel("lost_race")
            return "wasted"

        item = WorkItem("scan", fn)
        assert item.run() is None
        assert item.state == CANCELLED

    def test_run_without_fn_raises(self):
        with pytest.raises(ServiceError):
            WorkItem("scan").run()

    def test_wait_is_bounded(self):
        item = WorkItem("scan")
        assert item.wait(timeout=0.01) is False
        item.start()
        item.finish(None)
        assert item.wait(timeout=0.01) is True

    def test_cancel_latency_measured(self):
        clock_value = [0.0]
        item = WorkItem("scan", clock=lambda: clock_value[0])
        item.start()
        clock_value[0] = 1.0
        item.cancel("deadline")
        clock_value[0] = 1.5
        item.mark_cancelled()
        assert item.cancel_latency() == pytest.approx(0.5)

    def test_cancel_latency_none_without_cancel(self):
        item = WorkItem("scan")
        item.start()
        item.finish(None)
        assert item.cancel_latency() is None

    # ------------------------------------------------------------------
    # The DAG property: no operation sequence reaches an illegal
    # transition, terminal states latch, and the terminal transition
    # happens exactly once.
    # ------------------------------------------------------------------
    OPS = ("start", "finish", "degrade", "cancel", "mark")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(OPS), min_size=0, max_size=12))
    def test_no_sequence_escapes_the_dag(self, ops):
        item = WorkItem("prop")
        observed = [item.state]
        terminal_count = 0
        for op in ops:
            before = item.state
            try:
                if op == "start":
                    item.start()
                elif op == "finish":
                    item.finish("r")
                elif op == "degrade":
                    item.degrade(RuntimeError("x"))
                elif op == "cancel":
                    item.cancel("prop")
                elif op == "mark":
                    item.mark_cancelled()
            except ServiceError:
                # Rejected: the state must not have moved.
                assert item.state == before
                continue
            after = item.state
            if after != before:
                assert after in TRANSITIONS[before], (
                    f"illegal transition {before} -> {after} via {op}"
                )
                observed.append(after)
                if after in TERMINAL_STATES:
                    terminal_count += 1
        assert terminal_count <= 1
        if item.finished:
            assert item.state in TERMINAL_STATES
        # Once terminal, the public flag and the state agree.
        assert (item.state in TERMINAL_STATES) == item.finished


class TestTaskRegistry:
    def test_counts_outcomes(self):
        registry = TaskRegistry()
        done = registry.create("a", lambda token: 1)
        done.run()
        cancelled = registry.create("b")
        cancelled.cancel("shutdown")
        degraded = registry.create("c", lambda token: 1 / 0)
        degraded.run()
        snap = registry.snapshot()
        assert snap["created"] == 3
        assert snap["done"] == 1
        assert snap["cancelled"] == 1
        assert snap["degraded"] == 1
        assert snap["in_flight"] == 0
        assert snap["cancelled_by_reason"] == {"shutdown": 1}

    def test_cancel_in_flight_hits_every_open_item(self):
        registry = TaskRegistry()
        a = registry.create("a")
        b = registry.create("b")
        b.start()
        closed = registry.create("c", lambda token: None)
        closed.run()
        assert registry.in_flight == 2
        assert registry.cancel_in_flight("breaker_open") == 2
        # Pending item terminal now; running one needs its checkpoint.
        assert a.state == CANCELLED
        assert b.token.cancelled
        assert b.mark_cancelled()
        snap = registry.snapshot()
        assert snap["cancelled"] == 2
        assert snap["cancelled_by_reason"] == {"breaker_open": 2}

    def test_metrics_plumbing(self):
        metrics = MetricsRegistry()
        registry = TaskRegistry(metrics=metrics)
        item = registry.create("a", lambda token: None)
        item.run()
        cancelled = registry.create("b")
        cancelled.cancel("deadline")
        snap = metrics.snapshot()
        assert snap["tasks_done"] == 1
        assert snap["tasks_cancelled"] == 1
        assert snap["cancel_latency_seconds"]["count"] == 1

    def test_deadline_token_from_create(self):
        deadline = FakeDeadline()
        registry = TaskRegistry()
        item = registry.create("a", deadline=deadline)
        assert not item.token.cancelled
        deadline.expire()
        assert item.token.cancelled
        assert item.token.reason == "deadline"

    def test_concurrent_cancel_and_finish_settles_once(self):
        # The work finishing races a cancel whose checkpoint fires:
        # exactly one terminal transition may win, and the registry
        # counts exactly one outcome.
        for _ in range(25):
            registry = TaskRegistry()
            item = registry.create("a")
            item.start()
            barrier = threading.Barrier(2)

            def finisher():
                barrier.wait()
                try:
                    item.finish("r")
                except ServiceError:
                    pass

            def canceller():
                barrier.wait()
                item.cancel("breaker_open")
                item.mark_cancelled()

            threads = [
                threading.Thread(target=finisher),
                threading.Thread(target=canceller),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
            snap = registry.snapshot()
            assert snap["done"] + snap["cancelled"] == 1
            assert item.state in (DONE, CANCELLED)
