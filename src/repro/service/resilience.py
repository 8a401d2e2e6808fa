"""Resilience primitives for the synthesis service.

The meet-in-the-middle lookup has a wildly bimodal cost profile: a hash
hit answers in microseconds, a hard ``A_i``-scan runs for seconds.  A
daemon serving heavy traffic therefore needs machinery that treats the
two regimes differently and survives the failure modes the hard path
invites.  This module collects that machinery:

* :class:`Deadline` -- a monotonic per-request budget carried from the
  protocol's ``deadline_ms`` field through the batch queue.
* :class:`CircuitBreaker` -- closed/open/half-open state around the
  hard path; trips on consecutive deadline misses (or recorded
  failures), sheds hard queries into the degraded fallback while open,
  and probes its way closed again after a cooldown.
* :class:`RetryPolicy` -- client-side exponential backoff with bounded,
  deterministic (seeded-RNG) jitter.
* :class:`ResilienceConfig` -- all tuning knobs, read from
  ``ServiceConfig.extra["resilience"]``.

Everything here is deterministic given its injected clock/RNG, which is
what lets the chaos suite (``tests/test_chaos.py``) drive every
recovery path reproducibly.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, fields

from repro.errors import ServiceError


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the service's resilience layer.

    Lives in ``ServiceConfig.extra["resilience"]`` (a plain dict of
    these field names) so the stable :class:`ServiceConfig` surface does
    not grow a field per knob.
    """

    #: Consecutive hard-path failures (deadline misses) that trip the
    #: breaker open.
    breaker_failure_threshold: int = 5
    #: Seconds the breaker stays open before letting a probe through.
    breaker_cooldown: float = 30.0
    #: Seconds a scan, compile or named-engine request may run when it
    #: carries no ``deadline_ms``; past it the work is preempted and the
    #: request degrades like one that blew its own deadline.
    hard_timeout: float = 120.0
    #: Server-side cap on how long a connection thread stays parked on
    #: a queued request; the backstop that guarantees no hung connection.
    request_timeout: float = 600.0

    @classmethod
    def from_extra(cls, extra: "dict | None") -> "ResilienceConfig":
        """Build from ``ServiceConfig.extra``; unknown keys are errors
        (a typo silently dropping a bound would be worse)."""
        raw = dict((extra or {}).get("resilience", {}))
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - valid)
        if unknown:
            raise ServiceError(
                f"unknown resilience option(s): {', '.join(unknown)} "
                f"(valid: {', '.join(sorted(valid))})"
            )
        return cls(**raw)


class Deadline:
    """A monotonic expiry instant for one request.

    Created when the daemon *accepts* the request, so queue time counts
    against the budget -- a request that waited out its deadline in the
    batch queue is already late before any work starts.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(self, seconds: float, clock=time.monotonic, start=None) -> None:
        self._clock = clock
        self.expires_at = (clock() if start is None else start) + seconds

    @classmethod
    def from_ms(
        cls, deadline_ms: "int | None", clock=time.monotonic, start=None
    ) -> "Deadline | None":
        """A deadline for a protocol ``deadline_ms`` field (None = no
        deadline), counted from the ``clock`` reading ``start`` (default
        now)."""
        if deadline_ms is None:
            return None
        return cls(deadline_ms / 1000.0, clock, start)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class CircuitBreaker:
    """Closed/open/half-open breaker around the hard path.

    * **closed** -- normal operation; consecutive failures are counted.
    * **open** -- tripped by ``failure_threshold`` consecutive failures
      or deadline misses; every :meth:`allow` is refused (the dispatcher
      degrades hard queries without scanning) until ``cooldown``
      seconds have passed.
    * **half-open** -- after the cooldown one probe batch is allowed
      through; success closes the breaker, failure re-opens it and
      restarts the cooldown.

    Thread-safe: the dispatcher drives it, connection threads snapshot
    it for ``health``/``stats``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock=time.monotonic,
        on_trip=None,
    ) -> None:
        if failure_threshold < 1:
            raise ServiceError(
                f"breaker failure threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.on_trip = on_trip
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: "float | None" = None
        self._trips = 0
        self._deadline_misses = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a hard query be scanned right now?

        While open, flips to half-open (and allows the probe) once the
        cooldown has elapsed.
        """
        with self._lock:
            if self._state == self.OPEN:
                if (
                    self._opened_at is not None
                    and self._clock() - self._opened_at >= self.cooldown
                ):
                    self._state = self.HALF_OPEN
                    return True
                return False
            return True

    def record_success(self) -> None:
        """A hard batch completed: reset the failure run, close."""
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        """A hard batch failed; counts toward tripping."""
        self._note_failure()

    def record_deadline_miss(self) -> None:
        """A hard query missed its deadline; counts toward tripping."""
        self._note_failure(deadline_miss=True)

    def _note_failure(self, deadline_miss: bool = False) -> None:
        tripped = False
        with self._lock:
            if deadline_miss:
                self._deadline_misses += 1
            self._failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._failures >= self.failure_threshold
            ):
                if self._state != self.OPEN:
                    self._trips += 1
                    tripped = True
                self._state = self.OPEN
                self._opened_at = self._clock()
        # Invoked outside the lock: the trip hook preempts in-flight
        # hard work (cancels the daemon's in-flight tokens), and that path
        # re-enters breaker snapshots from other threads.
        if tripped and self.on_trip is not None:
            self.on_trip()

    def snapshot(self) -> dict:
        """JSON-ready state for ``health``/``stats``."""
        with self._lock:
            open_for = (
                self._clock() - self._opened_at
                if self._state == self.OPEN and self._opened_at is not None
                else None
            )
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "cooldown": self.cooldown,
                "trips": self._trips,
                "deadline_misses": self._deadline_misses,
                "open_for": open_for,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded jitter for the service client.

    ``delay(attempt, rng)`` is ``base * factor**attempt`` capped at
    ``backoff_max``, spread by up to ``jitter`` (a fraction) in both
    directions.  The RNG is injected so tests (and clients that care)
    get deterministic schedules.
    """

    retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1

    def delay(self, attempt: int, rng: "random.Random | None" = None) -> float:
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt),
        )
        if rng is None or self.jitter <= 0.0:
            return base
        spread = self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, base * (1.0 + spread))


__all__ = [
    "CircuitBreaker",
    "Deadline",
    "ResilienceConfig",
    "RetryPolicy",
]
