"""Cancellation tokens and the one registry of hard work in flight.

The hard ``A_i``-list scans, compiles, named-engine requests and the
shard router's forwards are long enough that the resilience layer must
be able to *preempt* them, not merely stop waiting:

* :class:`CancelToken` -- a cancellation flag with an optional
  monotonic deadline.  Cooperative code calls
  :meth:`CancelToken.checkpoint` at loop boundaries; the scan loops in
  ``repro.synth.search`` and ``repro.analysis.hard`` accept exactly
  such a callable.
* :class:`TaskRegistry` -- tracks each token from :meth:`begin` to
  :meth:`end`, counts its outcome (``done``, ``cancelled`` by reason,
  or ``degraded``) exactly once for the ``stats``/``health`` payloads,
  and offers :meth:`TaskRegistry.cancel_in_flight` -- the one call
  behind breaker-trip, shutdown and shard-leave preemption -- and a
  bounded :meth:`TaskRegistry.wait_idle`.

``degraded`` means the work ended without its exact answer (an error)
and the caller falls back; ``cancelled`` means it was preempted on
purpose.  Work that returns after its token was cancelled -- between
its last checkpoint and its return -- ends ``done``: the caller answers
it exact and counts a deadline miss if it was late.

Every ``.wait()`` in this module is bounded: the unbounded-wait check
rule (``repro check``) covers ``repro/service/`` and gates on it.
"""

from __future__ import annotations

import threading
import time

from repro.errors import WorkCancelledError

#: Outcomes a tracked token ends with.
DONE = "done"
CANCELLED = "cancelled"
DEGRADED = "degraded"

#: Makes a token's first cancel win; cancels are rare, so one lock for
#: every token costs nothing and keeps a token cheap to build.
_CANCEL_LOCK = threading.Lock()


class CancelToken:
    """A thread-safe cancellation flag with an optional deadline.

    Args:
        deadline: Anything exposing ``expired() -> bool`` (a
            :class:`repro.service.resilience.Deadline`); when it
            expires the token reads as cancelled with reason
            ``"deadline"`` without anyone calling :meth:`cancel`.
    """

    __slots__ = ("_reason", "cancelled_at", "deadline")

    def __init__(self, deadline=None) -> None:
        self._reason: "str | None" = None
        #: ``time.monotonic()`` when :meth:`cancel` flipped the token
        #: (None while live or when its deadline expired); the registry
        #: times cancellation latency from it.
        self.cancelled_at: "float | None" = None
        self.deadline = deadline

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; the first call wins and sets the
        reason.  Returns True when this call flipped the token."""
        with _CANCEL_LOCK:
            if self._reason is not None:
                return False
            self._reason = reason
            self.cancelled_at = time.monotonic()
            return True

    @property
    def cancelled(self) -> bool:
        """Whether the token reads as cancelled (explicitly or via its
        deadline)."""
        if self._reason is not None:
            return True
        if self.deadline is not None and self.deadline.expired():
            # Nobody asked, so there is no round trip to time: set the
            # reason without stamping cancelled_at.
            with _CANCEL_LOCK:
                if self._reason is None:
                    self._reason = "deadline"
            return True
        return False

    @property
    def reason(self) -> "str | None":
        """Why the token was cancelled (None while live)."""
        return self._reason if self.cancelled else None

    def checkpoint(self) -> None:
        """Cooperative cancellation point: raises
        :class:`WorkCancelledError` once the token is cancelled.

        Bound methods of this are what the scan loops receive as their
        ``cancel`` callable -- no service import needed there.
        """
        if self.cancelled:
            raise WorkCancelledError(
                f"work cancelled ({self._reason})", reason=self._reason
            )


class TaskRegistry:
    """The hard work in flight, and how each unit of it ended.

    Thread-safe; shared by the dispatcher, the connection threads
    (compiles, named engines, forwards), and shutdown.  ``metrics`` is
    an optional :class:`repro.service.metrics.MetricsRegistry` that
    receives the ``cancel_latency_seconds`` histogram (explicit
    :meth:`CancelToken.cancel` to ``end``; an expired deadline adds no
    sample).  Outcomes are counted here only, in :meth:`snapshot`.
    """

    def __init__(self, metrics=None) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self.metrics = metrics
        self._in_flight: "set[CancelToken]" = set()
        self._created = 0
        self._outcomes = {DONE: 0, CANCELLED: 0, DEGRADED: 0}
        self._cancelled_by_reason: "dict[str, int]" = {}

    def begin(self, token: CancelToken) -> CancelToken:
        """Track ``token`` as in flight until :meth:`end`; returns it."""
        with self._lock:
            self._created += 1
            self._in_flight.add(token)
        return token

    def end(self, token: CancelToken, outcome: str) -> None:
        """Stop tracking ``token`` and count ``outcome`` (``DONE``,
        ``CANCELLED`` -- by the token's reason -- or ``DEGRADED``).
        Only the first call for a tracked token counts."""
        with self._lock:
            if token not in self._in_flight:
                return
            self._in_flight.discard(token)
            self._outcomes[outcome] += 1
            if outcome == CANCELLED:
                reason = token.reason or "cancelled"
                self._cancelled_by_reason[reason] = (
                    self._cancelled_by_reason.get(reason, 0) + 1
                )
            if not self._in_flight:
                self._idle.notify_all()
        if self.metrics is not None and token.cancelled_at is not None:
            self.metrics.histogram("cancel_latency_seconds").observe(
                max(0.0, time.monotonic() - token.cancelled_at)
            )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._in_flight)

    def cancel_in_flight(self, reason: str) -> int:
        """Cancel every in-flight token (the preemption primitive behind
        breaker trips, shutdown and shard leaves).  Returns how many
        tokens were asked to stop."""
        with self._lock:
            tokens = list(self._in_flight)
        for token in tokens:
            token.cancel(reason)
        return len(tokens)

    def wait_idle(self, timeout: float) -> bool:
        """Bounded wait until nothing is in flight; True when idle."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(timeout=min(remaining, 0.5))
            return True

    def snapshot(self) -> dict:
        """JSON-ready registry state for ``stats``/``health``."""
        with self._lock:
            return {
                "in_flight": len(self._in_flight),
                "created": self._created,
                "done": self._outcomes[DONE],
                "cancelled": self._outcomes[CANCELLED],
                "degraded": self._outcomes[DEGRADED],
                "cancelled_by_reason": dict(
                    sorted(self._cancelled_by_reason.items())
                ),
            }


__all__ = [
    "CANCELLED",
    "DEGRADED",
    "DONE",
    "CancelToken",
    "TaskRegistry",
]
