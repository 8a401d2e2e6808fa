"""Synthesis service layer: a long-lived daemon over the optimal database.

The paper's database is "compute once, query forever"; this package is
the *query forever* half.  A daemon loads the :class:`OptimalDatabase`
once, then serves synthesis queries over a newline-delimited-JSON
protocol (TCP or stdio) with batch coalescing through the vectorized
lookup path, a result cache keyed by canonical representative,
cancellable ``A_i``-list scans for hard queries, and a metrics registry
exposed via the ``stats`` request.  See ``docs/SERVICE.md``.  More cores
come from the sharded router (:mod:`repro.service.sharding`).

The hard-query path is wrapped in a resilience layer -- circuit
breaker, per-request deadlines with graceful degradation, crash-safe
cache persistence, and a deterministic fault-injection harness --
documented in ``docs/RESILIENCE.md``.
"""

from repro.service.batching import BatchQueue, PendingRequest
from repro.service.cache import CacheHit, ResultCache
from repro.service.client import ServiceClient
from repro.service.daemon import (
    ServiceConfig,
    SynthesisService,
    TCPDaemon,
    serve_stdio,
)
from repro.service.faults import FaultInjector, FaultPlan, FaultSpec
from repro.service.metrics import Counter, Histogram, MetricsRegistry
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceConfig,
    RetryPolicy,
)
from repro.service.tasks import CancelToken, TaskRegistry

__all__ = [
    "BatchQueue",
    "CacheHit",
    "CancelToken",
    "CircuitBreaker",
    "Counter",
    "Deadline",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "Histogram",
    "MetricsRegistry",
    "PendingRequest",
    "ResilienceConfig",
    "ResultCache",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "SynthesisService",
    "TCPDaemon",
    "TaskRegistry",
    "serve_stdio",
]
