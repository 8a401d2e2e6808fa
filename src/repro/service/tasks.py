"""Cancellable work items for the hard-query path.

The hard ``A_i``-list scans, compiles, and named-engine requests used
to run as opaque blocking work: the deadline/breaker machinery could
only *abandon* them (stop waiting) while the computation burned on.
This module makes each unit of hard work a first-class
:class:`WorkItem` with a :class:`CancelToken`, so the resilience layer
can *preempt* work instead:

* :class:`CancelToken` -- a thread-safe cancellation flag with an
  optional monotonic deadline.  Cooperative code calls
  :meth:`CancelToken.checkpoint` at loop boundaries; the scan loops in
  ``repro.synth.search`` and ``repro.analysis.hard`` accept exactly
  such a callable.
* :class:`WorkItem` -- one cancellable unit of work with a strict
  state machine::

      pending ──> running ──> done
         │           ├──────> cancelled
         │           └──────> degraded
         └─────────> cancelled

  No transition escapes that DAG (property-tested in
  ``tests/test_tasks.py``); every terminal state is reached exactly
  once and latches.  ``degraded`` means the work ended without its
  exact answer (an error, an exhausted budget) and the caller should
  fall back; ``cancelled`` means it was preempted on purpose.
* :class:`TaskRegistry` -- tracks in-flight items and counts outcomes
  (including cancellations by reason) for the daemon's
  ``stats``/``health`` payloads, and offers
  :meth:`TaskRegistry.cancel_in_flight` -- the one call behind
  deadline-expiry, breaker-trip, and shutdown preemption.

Every ``.wait()`` in this module is bounded: the unbounded-wait check
rule (``repro check``) covers ``repro/service/`` and gates on it.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ServiceError, WorkCancelledError
from repro.perf.trace import trace

#: Work-item states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
DEGRADED = "degraded"

#: The full transition DAG; anything else is a bug, not a shrug.
TRANSITIONS: "dict[str, frozenset[str]]" = {
    PENDING: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, CANCELLED, DEGRADED}),
    DONE: frozenset(),
    CANCELLED: frozenset(),
    DEGRADED: frozenset(),
}

#: States with no outgoing transitions.
TERMINAL_STATES = frozenset(
    state for state, nexts in TRANSITIONS.items() if not nexts
)


class CancelToken:
    """A thread-safe cancellation flag with an optional deadline.

    Args:
        deadline: Anything exposing ``expired() -> bool`` (a
            :class:`repro.service.resilience.Deadline`); when it
            expires the token reads as cancelled with reason
            ``"deadline"`` without anyone calling :meth:`cancel`.
    """

    __slots__ = ("_event", "_lock", "_reason", "deadline")

    def __init__(self, deadline=None) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason: "str | None" = None
        self.deadline = deadline

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; the first call wins and sets the
        reason.  Returns True when this call flipped the token."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        """Whether the token reads as cancelled (explicitly or via its
        deadline)."""
        if self._event.is_set():
            return True
        if self.deadline is not None and self.deadline.expired():
            self.cancel("deadline")
            return True
        return False

    @property
    def reason(self) -> "str | None":
        """Why the token was cancelled (None while live)."""
        if not self.cancelled:
            return None
        return self._reason

    def checkpoint(self) -> None:
        """Cooperative cancellation point: raises
        :class:`WorkCancelledError` once the token is cancelled.

        Bound methods of this are what the scan loops receive as their
        ``cancel`` callable -- no service import needed there.
        """
        if self.cancelled:
            reason = self._reason or "cancelled"
            raise WorkCancelledError(
                f"work cancelled ({reason})", reason=reason
            )


class WorkItem:
    """One cancellable unit of hard work.

    Args:
        name: Label for traces and stats (``"scan"``, ``"compile"``,
            an engine name, ...).
        fn: The work, called as ``fn(token)``; it should thread
            ``token.checkpoint`` into its inner loops.
        token: The cancellation token (a fresh one when omitted).
        registry: Owning :class:`TaskRegistry`, notified on terminal
            transitions.
    """

    def __init__(
        self,
        name: str,
        fn=None,
        *,
        token: "CancelToken | None" = None,
        registry: "TaskRegistry | None" = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.fn = fn
        self.token = token if token is not None else CancelToken()
        self.registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._state = PENDING
        self._done = threading.Event()
        self.result = None
        self.error: "BaseException | None" = None
        self.created_at = clock()
        self.started_at: "float | None" = None
        self.finished_at: "float | None" = None
        self.cancel_requested_at: "float | None" = None

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def _transition(self, new_state: str, apply=None) -> None:
        """Move to ``new_state`` or raise; caller holds no lock.

        ``apply`` runs under the lock after validation and before the
        state flips, so payload writes (result, error) are only visible
        on transitions that actually happen -- a late ``finish`` racing
        a cancellation must not clobber anything.
        """
        with self._lock:
            allowed = TRANSITIONS.get(self._state)
            if allowed is None or new_state not in allowed:
                raise ServiceError(
                    f"work item {self.name!r}: illegal transition "
                    f"{self._state} -> {new_state}"
                )
            if apply is not None:
                apply()
            self._state = new_state
            if new_state == RUNNING:
                self.started_at = self._clock()
                return
            # Terminal.
            self.finished_at = self._clock()
        self._done.set()
        if self.registry is not None:
            self.registry._note_terminal(self, new_state)

    def start(self) -> None:
        """pending -> running."""
        self._transition(RUNNING)

    def finish(self, result) -> None:
        """running -> done with the exact answer."""

        def _apply() -> None:
            self.result = result

        self._transition(DONE, _apply)

    def degrade(self, error: "BaseException | None" = None) -> None:
        """running -> degraded: the work ended without its answer."""

        def _apply() -> None:
            self.error = error

        self._transition(DEGRADED, _apply)

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation.

        A pending item is cancelled immediately (it never ran).  A
        running item has its token flipped and reaches ``cancelled``
        when the work observes the checkpoint.  Returns True when the
        item reached the cancelled state in this call.
        """
        with trace("task.cancel", item=self.name, reason=reason):
            self.token.cancel(reason)
            with self._lock:
                state = self._state
                if self.cancel_requested_at is None:
                    self.cancel_requested_at = self._clock()
            if state != PENDING:
                return False
            try:
                self._transition(CANCELLED)
            except ServiceError:
                # Lost the race against start()/a concurrent cancel.
                return False
            return True

    def mark_cancelled(self) -> bool:
        """running -> cancelled, from the thread running the work (the
        cooperative checkpoint fired).  Returns False if already
        terminal."""
        try:
            self._transition(CANCELLED)
        except ServiceError:
            return False
        return True

    # ------------------------------------------------------------------
    # Execution and waiting
    # ------------------------------------------------------------------
    def run(self):
        """Execute ``fn(token)`` under the state machine.

        A token already cancelled never starts.  A
        :class:`WorkCancelledError` out of the work lands in
        ``cancelled``; any other exception lands in ``degraded`` with
        the error recorded (the caller decides how to fall back).
        Returns the result (None unless the item reached ``done``).
        """
        if self.fn is None:
            raise ServiceError(f"work item {self.name!r} has no work function")
        if self.token.cancelled:
            self.cancel(self.token.reason or "cancelled")
            return None
        try:
            self.start()
        except ServiceError:
            # Cancelled between the check above and start().
            return None
        try:
            result = self.fn(self.token)
        except WorkCancelledError:
            self.mark_cancelled()
            return None
        except BaseException as exc:
            self.degrade(exc)
            return None
        if self.token.cancelled and self.mark_cancelled():
            # The work returned but the token flipped while it ran,
            # after its last checkpoint.
            return None
        self.finish(result)
        return result

    def wait(self, timeout: float) -> bool:
        """Bounded wait for a terminal state; True when terminal."""
        return self._done.wait(timeout=timeout)

    def cancel_latency(self) -> "float | None":
        """Seconds from cancel request to terminal state (None when
        never cancelled or still running)."""
        if self.cancel_requested_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.cancel_requested_at)


class TaskRegistry:
    """Tracks in-flight work items and counts outcomes for stats.

    Thread-safe; shared by the dispatcher, the connection threads
    (compiles, named engines), and shutdown.  ``metrics`` is an optional
    :class:`repro.service.metrics.MetricsRegistry` that receives the
    ``cancel_latency_seconds`` histogram and per-outcome counters.
    """

    def __init__(self, metrics=None, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self.metrics = metrics
        self._in_flight: "set[WorkItem]" = set()
        self._created = 0
        self._outcomes = {DONE: 0, CANCELLED: 0, DEGRADED: 0}
        self._cancelled_by_reason: "dict[str, int]" = {}

    def create(self, name: str, fn=None, *, deadline=None) -> WorkItem:
        """A new tracked :class:`WorkItem` (in-flight until terminal)."""
        item = WorkItem(
            name, fn, token=CancelToken(deadline=deadline),
            registry=self, clock=self._clock,
        )
        with self._lock:
            self._created += 1
            self._in_flight.add(item)
        return item

    def _note_terminal(self, item: WorkItem, state: str) -> None:
        with self._lock:
            self._in_flight.discard(item)
            self._outcomes[state] = self._outcomes.get(state, 0) + 1
            if state == CANCELLED:
                reason = item.token.reason or "cancelled"
                self._cancelled_by_reason[reason] = (
                    self._cancelled_by_reason.get(reason, 0) + 1
                )
        if self.metrics is not None:
            self.metrics.counter(f"tasks_{state}").inc()
            latency = item.cancel_latency()
            if latency is not None:
                self.metrics.histogram("cancel_latency_seconds").observe(
                    latency
                )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._in_flight)

    def cancel_in_flight(self, reason: str) -> int:
        """Cancel every in-flight item (the preemption primitive behind
        deadline expiry, breaker trips, and shutdown).  Returns how
        many items were asked to stop."""
        with self._lock:
            items = list(self._in_flight)
        for item in items:
            item.cancel(reason)
        return len(items)

    def snapshot(self) -> dict:
        """JSON-ready registry state for ``stats``/``health``."""
        with self._lock:
            return {
                "in_flight": len(self._in_flight),
                "created": self._created,
                "done": self._outcomes.get(DONE, 0),
                "cancelled": self._outcomes.get(CANCELLED, 0),
                "degraded": self._outcomes.get(DEGRADED, 0),
                "cancelled_by_reason": dict(
                    sorted(self._cancelled_by_reason.items())
                ),
            }


__all__ = [
    "CANCELLED",
    "DEGRADED",
    "DONE",
    "PENDING",
    "RUNNING",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "CancelToken",
    "TaskRegistry",
    "WorkItem",
]
