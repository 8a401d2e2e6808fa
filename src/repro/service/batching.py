"""Request queue with batch coalescing.

The daemon's dispatcher does not process requests one at a time: it
blocks while the queue is empty, then takes everything pending as one
batch (bounded by ``max_batch``).  Requests that arrive while the
dispatcher is busy therefore leave together, and the batch flows
through the vectorized database path -- one ``canonical_np`` +
``lookup_batch`` call for the whole group instead of per-request
``size_of`` calls -- which is where the service's throughput under
concurrent load comes from.  A request that finds the dispatcher idle
is dispatched at once.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import ServiceShutdownError


class PendingRequest:
    """A validated request parked in the queue with its completion signal.

    The connection thread that enqueued it blocks on :meth:`wait`; the
    dispatcher fulfills it with :meth:`resolve`.
    """

    __slots__ = (
        "request", "word", "enqueued_at", "response", "deadline",
        "token", "_event",
    )

    def __init__(
        self, request, word: "int | None" = None, deadline=None, token=None
    ) -> None:
        self.request = request
        #: The packed word the request names (parsed before enqueueing).
        self.word = word
        self.enqueued_at = time.perf_counter()
        self.response: "dict | None" = None
        #: Optional :class:`repro.service.resilience.Deadline`, created
        #: at accept time so queue time counts against the budget.
        self.deadline = deadline
        #: The request's :class:`repro.service.tasks.CancelToken`,
        #: created at enqueue -- the handle through which an abandoning
        #: connection thread preempts the scan, or has the dispatcher
        #: skip it while the request is still queued.
        self.token = token
        self._event = threading.Event()

    def resolve(self, response: dict) -> None:
        self.response = response
        self._event.set()

    def wait(self, timeout: "float | None" = None) -> "dict | None":
        if not self._event.wait(timeout):
            return None
        return self.response


class BatchQueue:
    """Bounded FIFO of :class:`PendingRequest` with coalesced dequeue."""

    def __init__(self, max_batch: int = 256, max_depth: int = 100_000) -> None:
        self.max_batch = max_batch
        self.max_depth = max_depth
        self._items: "deque[PendingRequest]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: PendingRequest) -> None:
        """Enqueue; raises :class:`ServiceShutdownError` once closed."""
        with self._not_empty:
            if self._closed:
                raise ServiceShutdownError(
                    "service is shutting down; request rejected"
                )
            if len(self._items) >= self.max_depth:
                raise ServiceShutdownError(
                    f"request queue is full ({self.max_depth} pending)"
                )
            self._items.append(item)
            self._not_empty.notify()

    def next_batch(self) -> "list[PendingRequest] | None":
        """Block while the queue is empty, then return what is pending.

        Returns None only when the queue is closed *and* fully drained,
        which is the dispatcher's signal to exit.  After close, remaining
        items keep coming out in batches (graceful drain).
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                # Bounded wait: close() notifies, but a bounded loop also
                # survives a missed wakeup instead of parking forever.
                self._not_empty.wait(timeout=0.5)
            batch = []
            while self._items and len(batch) < self.max_batch:
                batch.append(self._items.popleft())
            return batch

    def close(self) -> None:
        """Stop accepting new requests; wake the dispatcher to drain."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def drain_remaining(self) -> "list[PendingRequest]":
        """Remove and return everything still queued (after close)."""
        with self._not_empty:
            items = list(self._items)
            self._items.clear()
            return items


__all__ = ["BatchQueue", "PendingRequest"]
