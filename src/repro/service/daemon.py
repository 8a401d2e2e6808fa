"""The synthesis daemon: load the database once, serve many queries.

Architecture::

    TCP / stdio transports          (one thread per connection)
        -> SynthesisService.submit  (parks a PendingRequest, blocks)
            -> BatchQueue           (batch coalescing window)
                -> dispatcher thread
                    -> vectorized lookup: canonical_np + lookup_batch
                       over the WHOLE batch (one numpy pass)
                    -> ResultCache keyed by canonical representative
                    -> fast path: circuit peeling (size <= k)
                    -> hard path: HardQueryPool (A_i-list scans)

Control ops (``ping``/``stats``/``health``/``shutdown``) are answered
synchronously on the connection thread; only synthesis work is queued.
Graceful shutdown closes the queue (new requests get a ``shutdown``
error envelope), drains everything already accepted, persists the
result cache, and only then stops the transports.

The hard path is wrapped in resilience machinery (see
:mod:`repro.service.resilience` and ``docs/RESILIENCE.md``): a
:class:`WorkerSupervisor` bounds every ``A_i``-scan batch and restarts
dead/hung pools, a :class:`CircuitBreaker` sheds hard queries after
consecutive failures or deadline misses, and requests carrying
``deadline_ms`` degrade to an upper-bound answer from the fallback
engine instead of blowing their budget -- a response is always written,
never a hung connection.

Requests naming a non-default ``engine`` bypass the batched pipeline:
servable engines from :mod:`repro.engines` are created lazily on first
use (options from ``config.extra["engine_options"]``), answered
synchronously on the connection thread under a per-engine lock, and
cached in their own keyspace of the shared :class:`ResultCache`.  The
batching machinery exists for the optimal engine's vectorized lookup;
the others have no batch-wide fast path to exploit.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import __version__
from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.engines import (
    GUARANTEE_UPPER_BOUND,
    Engine,
    SynthesisRequest,
    create_engine,
)
from repro.engines.optimal import make_optimal_synthesizer
from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceShutdownError,
    SizeLimitExceededError,
    SynthesisError,
    WorkCancelledError,
)
from repro.perf.trace import enable as _perf_enable
from repro.perf.trace import get_tracer as _perf_get_tracer
from repro.perf.trace import trace as trace_span
from repro.service import protocol
from repro.service.batching import BatchQueue, PendingRequest
from repro.service.cache import DEFAULT_ENGINE, ResultCache
from repro.service.faults import FaultInjector
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import (
    CircuitBreaker,
    Deadline,
    ResilienceConfig,
    WorkerSupervisor,
)
from repro.service.tasks import CANCELLED, DEGRADED, TaskRegistry
from repro.service.workers import HardQueryPool
from repro.synth.search import peel_minimal_circuit
from repro.synth.synthesizer import SynthesisHandle

log = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Everything needed to build and tune a daemon."""

    n_wires: int = 4
    k: int = 6
    max_list_size: "int | None" = None
    workers: int = 0
    batch_window: float = 0.002
    max_batch: int = 256
    cache_capacity: int = 65536
    result_cache_path: "str | None" = None
    db_cache_dir: object = None  # None = default dir, False = no persistence
    verbose: bool = False
    extra: dict = field(default_factory=dict)


class SynthesisService:
    """Long-lived serving core shared by the TCP and stdio transports."""

    def __init__(
        self,
        handle: SynthesisHandle,
        config: "ServiceConfig | None" = None,
        cache: "ResultCache | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.handle = handle
        self.config = config or ServiceConfig(
            n_wires=handle.n_wires, k=handle.k,
            max_list_size=handle.max_list_size,
        )
        self.cache = cache if cache is not None else ResultCache(
            capacity=self.config.cache_capacity,
            path=self.config.result_cache_path,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queue = BatchQueue(
            max_batch=self.config.max_batch,
            coalesce_window=self.config.batch_window,
        )
        self.resilience = ResilienceConfig.from_extra(self.config.extra)
        self.faults = FaultInjector.from_extra(self.config.extra)
        # Every hard unit of work (scan, SAT solve, race lane) runs as a
        # cancellable WorkItem tracked here; a breaker trip preempts all
        # of them instead of letting abandoned work burn on.
        self.tasks = TaskRegistry(metrics=self.metrics)
        self.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown=self.resilience.breaker_cooldown,
            on_trip=lambda: self.tasks.cancel_in_flight("breaker_open"),
        )
        self.supervisor: "WorkerSupervisor | None" = None
        self._engines: dict[str, Engine] = {}
        self._engine_locks: dict[str, threading.Lock] = {}
        self._engines_lock = threading.Lock()
        self._dispatcher: "threading.Thread | None" = None
        self._shutdown_hooks: list = []
        self._shutdown_lock = threading.Lock()
        self._shutdown_requested = False
        self._shutdown_started = False
        self._stopped = threading.Event()
        self._started_at: "float | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: ServiceConfig) -> "SynthesisService":
        """Prepare the synthesizer (build/load the database) and wire up
        the service around its warm handle."""
        synth = make_optimal_synthesizer(
            n_wires=config.n_wires,
            k=config.k,
            max_list_size=config.max_list_size,
            cache_dir=config.db_cache_dir,
            verbose=config.verbose,
        )
        handle = synth.handle()
        config.max_list_size = handle.max_list_size
        return cls(handle, config=config)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SynthesisService":
        """Create the worker pool and start the dispatcher.

        The pool is created first, before any serving threads exist:
        fork-starting workers from a multithreaded process is unsafe.
        """
        if self._dispatcher is not None:
            return self
        if self.config.extra.get("trace"):
            # Feed every completed span into the metrics registry so
            # span timings ride the existing stats/snapshot plumbing.
            _perf_enable(sink=self._span_sink)
        pool = HardQueryPool(self.handle, processes=self.config.workers)
        self.supervisor = WorkerSupervisor(
            pool,
            hard_timeout=self.resilience.hard_timeout,
            max_restarts=self.resilience.max_restarts,
            metrics=self.metrics,
            faults=self.faults,
        )
        self._started_at = time.monotonic()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def _span_sink(self, name: str, seconds: float) -> None:
        """Bridge completed trace spans into per-name histograms."""
        self.metrics.histogram(f"span_{name}").observe(seconds)

    @property
    def pool(self) -> "HardQueryPool | None":
        """The *current* hard-query pool (changes across supervisor
        restarts); None before :meth:`start`."""
        return self.supervisor.pool if self.supervisor is not None else None

    @property
    def stopping(self) -> bool:
        return self._shutdown_requested or self._shutdown_started

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def add_shutdown_hook(self, hook) -> None:
        """Register a callable run at the end of graceful shutdown
        (transports use this to stop accepting)."""
        self._shutdown_hooks.append(hook)

    def shutdown(self, *, save_cache: bool = True) -> None:
        """Drain pending requests, persist the cache, stop transports.

        Idempotent and safe to call from any thread except the
        dispatcher itself.
        """
        with self._shutdown_lock:
            already_started = self._shutdown_started
            self._shutdown_started = True
        if already_started:
            # Wait outside the lock: blocking here while holding it would
            # deadlock a concurrent first-caller that still needs it.
            # Bounded waits in a loop so a stuck shutdown stays observable
            # (and interruptible) instead of parking this thread forever.
            while not self._stopped.wait(timeout=1.0):
                pass
            return
        self.queue.close()
        # Preempt in-flight hard work: cancelled items resolve their
        # requests as degraded answers (counted in stats), so the
        # dispatcher drains in bounded time instead of finishing
        # arbitrarily long scans.  Requests still queued drain through
        # the shutdown-aware phase 4 (degraded, never scanned).
        self.tasks.cancel_in_flight("shutdown")
        if self._dispatcher is not None:
            while self._dispatcher.is_alive():
                self._dispatcher.join(timeout=1.0)
        # Anything that raced past close without being dispatched.
        for pending in self.queue.drain_remaining():
            pending.resolve(self._error_response(
                pending.request.id,
                ServiceShutdownError("service stopped before dispatch"),
            ))
        if self.supervisor is not None:
            self.supervisor.close()
        if save_cache and self.cache.path is not None:
            try:
                self.cache.save()
            except ServiceError as exc:
                log.error("result cache save failed during shutdown: %s", exc)
            else:
                if self.faults is not None:
                    self.faults.corrupt_cache_file(self.cache.path)
        for hook in self._shutdown_hooks:
            try:
                hook()
            except Exception:
                pass
        self._stopped.set()

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown from a request-handling thread.

        Sets :attr:`stopping` synchronously (so transports stop reading
        right after acknowledging) and drains on a background thread.
        """
        self._shutdown_requested = True
        threading.Thread(
            target=self.shutdown, name="repro-shutdown", daemon=True
        ).start()

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def handle_line(self, line: "str | bytes") -> str:
        """Decode one protocol line, execute it, encode the response."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            self.metrics.counter("responses_error").inc()
            return protocol.encode_response(
                None, error=protocol.error_envelope(exc)
            )
        return self.submit(request)

    def submit(self, request: "protocol.Request") -> str:
        """Execute one decoded request and return the response line."""
        self.metrics.counter("requests_total").inc()
        self.metrics.counter(f"requests_{request.op}").inc()
        # The deadline starts at accept time, *before* any injected delay
        # or queueing: everything the daemon spends counts against it.
        deadline = Deadline.from_ms(request.deadline_ms)
        if self.faults is not None:
            self.faults.delay_request(request.op)
        if request.op == "ping":
            return protocol.encode_response(
                request.id, result={"pong": True, "version": __version__}
            )
        if request.op == "stats":
            return protocol.encode_response(request.id, result=self.stats())
        if request.op == "health":
            return protocol.encode_response(request.id, result=self.health())
        if request.op == "shutdown":
            self.request_shutdown()
            return protocol.encode_response(
                request.id, result={"draining": True}
            )
        if request.op == "batch":
            return self._batch_submit(request)
        if request.op == "compile":
            return self._compile_submit(request, deadline)
        if request.op in ("shards", "shard_join", "shard_leave"):
            return self._error_response(
                request.id,
                ProtocolError(
                    f"op {request.op!r} needs a sharded router "
                    "(start one with 'repro serve --shards N')"
                ),
            )
        # synth / size: route by engine.  The default keeps the batched
        # optimal pipeline; named engines answer on this thread.
        engine_name = request.engine or DEFAULT_ENGINE
        self.metrics.counter(f"engine_requests_{engine_name}").inc()
        if engine_name != DEFAULT_ENGINE:
            return self._engine_submit(request, engine_name, deadline)
        # Park on the queue and wait for the dispatcher.  The wait is
        # bounded by ``request_timeout`` -- the server-side backstop that
        # guarantees a connection thread can never hang forever even if
        # the dispatcher wedges.
        pending = PendingRequest(request, deadline=deadline)
        try:
            self.queue.put(pending)
        except ServiceShutdownError as exc:
            return self._error_response(request.id, exc)
        self.metrics.gauge("queue_depth").set(self.queue.depth)
        response = pending.wait(self.resilience.request_timeout)
        if response is None:
            # The connection thread is abandoning the request -- preempt
            # any hard work still attached to it so the pool does not
            # keep scanning for an answer nobody will read.
            if pending.work_item is not None:
                pending.work_item.cancel("abandoned")
            self.metrics.counter("responses_timeout").inc()
            return self._error_response(
                request.id,
                ServiceError(
                    "request was not resolved within "
                    f"{self.resilience.request_timeout}s"
                ),
            )
        return response

    def _batch_submit(self, request: "protocol.Request") -> str:
        """Answer a ``batch`` op by executing its sub-requests in order.

        A single daemon has no shards to scatter over, so sub-requests
        run sequentially through the same entry point a standalone
        request would take; each yields a complete response envelope
        (its own id/ok/error), so one bad spec never poisons the batch.
        A sharded router produces the same envelopes for the same
        sub-requests (the shard-smoke CI job compares the two byte for
        byte -- see ``docs/SHARDING.md``).
        """
        envelopes = []
        for entry in request.options.get("requests", []):
            try:
                sub = protocol.decode_payload(entry)
            except ProtocolError as exc:
                envelopes.append(json.loads(protocol.encode_response(
                    entry.get("id") if isinstance(entry, dict) else None,
                    error=protocol.error_envelope(exc),
                )))
                continue
            envelopes.append(json.loads(self.submit(sub)))
        return protocol.encode_response(
            request.id,
            result={"count": len(envelopes), "results": envelopes},
        )

    # ------------------------------------------------------------------
    # Function-form compilation
    # ------------------------------------------------------------------
    def _compile_submit(
        self,
        request: "protocol.Request",
        deadline: "Deadline | None" = None,
    ) -> str:
        """Answer a ``compile`` op: spec form in, circuit + embedding out.

        Runs on the connection thread under the chosen engine's lock (the
        completion search is one logical engine call).  The whole search
        is one cancellable :class:`~repro.service.tasks.WorkItem` whose
        token carries the request deadline: expiry, breaker trips, and
        shutdown preempt it at the next completion boundary, after which
        the request degrades to a fallback-engine compile instead of an
        error.  Compile answers are never cached: the result is keyed by
        the *spec* (not a permutation class), and the embedding payload
        already makes re-compilation cheap to reason about.
        """
        if self.stopping:
            return self._error_response(
                request.id, ServiceShutdownError("service is draining")
            )
        from repro.specs import compile_spec, spec_from_wire

        n = self.handle.n_wires
        if request.wires is not None and request.wires != n:
            return self._error_response(
                request.id,
                ProtocolError(
                    f"this daemon serves n_wires={n}, "
                    f"got wires={request.wires}",
                    kind="invalid_spec",
                ),
            )
        try:
            spec = spec_from_wire(request.spec)
        except ReproError as exc:
            return self._error_response(request.id, exc)
        engine_name = request.engine or DEFAULT_ENGINE
        try:
            engine = self._get_engine(engine_name)
        except SynthesisError as exc:
            return self._error_response(
                request.id, ProtocolError(str(exc), kind="protocol")
            )
        samples = request.options.get("samples")
        if samples is not None and (
            isinstance(samples, bool)
            or not isinstance(samples, int)
            or samples < 1
        ):
            return self._error_response(
                request.id,
                ProtocolError(
                    f"samples must be a positive integer, got {samples!r}"
                ),
            )
        work = self.tasks.create(
            "compile", payload=spec.kind, deadline=deadline
        )
        work.start()
        started = time.perf_counter()
        try:
            with self._engine_locks[engine_name], trace_span(
                "service.compile", engine=engine_name, kind=spec.kind
            ):
                kwargs: dict = {"n_wires": n, "cancel": work.token.checkpoint}
                if samples is not None:
                    kwargs["samples"] = samples
                result = compile_spec(spec, engine, **kwargs)
        except WorkCancelledError as exc:
            work.mark_cancelled()
            if exc.reason == "deadline":
                self.metrics.counter("deadline_misses").inc()
                self.breaker.record_deadline_miss()
            return self._compile_degraded(request, spec, exc.reason)
        except Exception as exc:
            work.degrade(exc)
            return self._error_response(request.id, exc)
        work.finish(result.size)
        self.metrics.histogram("compile_seconds").observe(
            time.perf_counter() - started
        )
        self.metrics.counter("responses_ok").inc()
        body = result.to_wire()
        body["source"] = "engine"
        return protocol.encode_response(request.id, result=body)

    def _compile_degraded(
        self, request: "protocol.Request", spec, reason: str
    ) -> str:
        """Answer a preempted compile from the fallback engine.

        The fallback compile takes the generic candidate path (a handful
        of heuristic synthesis calls, no database scan), so it is cheap
        enough to run inline even when the optimal search just blew its
        deadline.  The answer is correct on every specified row but only
        an upper bound, and -- like every degraded answer -- never cached.
        """
        from repro.specs import compile_spec

        name = self.resilience.fallback_engine
        try:
            engine = self._get_engine(name)
            with self._engine_locks[name]:
                result = compile_spec(spec, engine, n_wires=self.handle.n_wires)
        except Exception as exc:  # pragma: no cover - fallback engine broke
            return self._error_response(request.id, exc)
        self.metrics.counter("responses_ok").inc()
        self.metrics.counter("responses_degraded").inc()
        self.metrics.counter(f"degraded_{reason}").inc()
        body = result.to_wire()
        body["source"] = "degraded"
        body["guarantee"] = GUARANTEE_UPPER_BOUND
        body["degraded_reason"] = reason
        body["tier"] = name
        return protocol.encode_response(request.id, result=body)

    # ------------------------------------------------------------------
    # Non-default engines
    # ------------------------------------------------------------------
    def _get_engine(self, name: str) -> Engine:
        """The lazily-created adapter for ``name``; raises on unknown or
        non-servable names."""
        with self._engines_lock:
            engine = self._engines.get(name)
            if engine is None:
                options = dict(
                    self.config.extra.get("engine_options", {}).get(name, {})
                )
                options.setdefault("n_wires", self.handle.n_wires)
                # Factories that declare them (the racing engine) get
                # the service's work-item registry and warm database
                # handle; ``create_engine`` drops both for the rest.
                options.setdefault("tasks", self.tasks)
                options.setdefault("handle", self.handle)
                # A served race must never outlive the hard-path wall
                # clock: without a client deadline an out-of-reach
                # function would otherwise keep the SAT lane (and the
                # per-engine lock) busy indefinitely.  Requests carrying
                # ``deadline_ms`` still take the tighter budget.
                options.setdefault(
                    "time_budget", self.resilience.hard_timeout
                )
                engine = create_engine(name, **options)
                if not engine.capabilities.servable:
                    raise SynthesisError(
                        f"engine {name!r} is not servable over the daemon"
                    )
                self._engines[name] = engine
                self._engine_locks[name] = threading.Lock()
            return engine

    def _engine_submit(
        self,
        request: "protocol.Request",
        name: str,
        deadline: "Deadline | None" = None,
    ) -> str:
        """Answer one synth/size request with a non-default engine."""
        if self.stopping:
            return self._error_response(
                request.id, ServiceShutdownError("service is draining")
            )
        try:
            engine = self._get_engine(name)
        except SynthesisError as exc:
            return self._error_response(
                request.id, ProtocolError(str(exc), kind="protocol")
            )
        try:
            perm = Permutation.coerce(
                request.spec_value(), request.wires or self.handle.n_wires
            )
        except ReproError as exc:
            return self._error_response(request.id, exc)
        except (TypeError, ValueError) as exc:
            return self._error_response(
                request.id,
                ProtocolError(f"unparseable spec: {exc}", kind="invalid_spec"),
            )
        # Engine answers are not class-invariant (relabeling changes the
        # MMD heuristic's output), so the keyspace is keyed by exact word
        # and the stored "circuit" is the full serialized wire result.
        word, n = perm.word, perm.n_wires
        hit = self.cache.lookup(n, word, word, engine=name)
        if hit is not None and hit.circuit is not None:
            self.metrics.counter(f"engine_cache_hits_{name}").inc()
            self.metrics.counter("served_from_cache").inc()
            payload, source = json.loads(hit.circuit), "cache"
        else:
            started = time.perf_counter()
            # The request's remaining budget rides along as options: the
            # SAT engine turns ``time_budget`` into a solver wall-clock
            # bound, the racing engine derives its lane deadline from
            # ``deadline``.  Engines that read neither are unaffected.
            options: dict = {}
            if deadline is not None:
                options["time_budget"] = max(0.0, deadline.remaining())
                options["deadline"] = deadline
            try:
                with self._engine_locks[name], trace_span(
                    "service.engine", engine=name
                ):
                    result = engine.synthesize(
                        SynthesisRequest(spec=perm, n_wires=n, options=options)
                    )
            except Exception as exc:
                return self._error_response(request.id, exc)
            self.metrics.histogram(f"engine_seconds_{name}").observe(
                time.perf_counter() - started
            )
            payload, source = result.to_wire(), "engine"
            if result.guarantee == GUARANTEE_UPPER_BOUND:
                # A degraded (bound-only) answer -- a race that hit its
                # deadline before any lane proved optimality -- is never
                # cached: a later uncontended query deserves the exact
                # answer.
                self.metrics.counter("responses_degraded").inc()
            else:
                self.cache.store_circuit(
                    n,
                    word,
                    word,
                    result.size,
                    json.dumps(payload, sort_keys=True),
                    engine=name,
                )
        self.metrics.counter("responses_ok").inc()
        body = dict(payload)
        if request.op == "size":
            body.pop("circuit", None)
        body["source"] = source
        return protocol.encode_response(request.id, result=body)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Config + metrics + cache state (the ``stats`` op payload)."""
        batch = self.metrics.histogram("batch_size").snapshot()
        return {
            "version": __version__,
            "uptime": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else None
            ),
            "config": {
                "n_wires": self.handle.n_wires,
                "k": self.handle.k,
                "max_list_size": self.handle.max_list_size,
                "max_size": self.handle.max_size,
                "workers": self.config.workers,
                "batch_window": self.config.batch_window,
                "max_batch": self.config.max_batch,
            },
            "queue_depth": self.queue.depth,
            "mean_batch_size": batch.get("mean"),
            "engines": {
                "default": DEFAULT_ENGINE,
                "loaded": sorted(self._engines),
            },
            "database": self._database_info(),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "trace": self._trace_stats(),
            "tasks": self.tasks.snapshot(),
            "resilience": {
                "breaker": self.breaker.snapshot(),
                "pool": (
                    self.supervisor.liveness()
                    if self.supervisor is not None
                    else None
                ),
            },
        }

    def _database_info(self) -> dict:
        """Where the database lives and whether it is a shared mapping.

        ``mapped: True`` means the table is a read-only ``.rdb``
        memory-map -- every worker process touching it shares one
        page-cache copy (see ``docs/DATABASE.md``).
        """
        from repro.store import is_mapped, mapped_path, store_format

        db = self.handle.database
        path = mapped_path(db)
        if path is None and self.handle.store_path is not None:
            path = self.handle.store_path
        elif path is None and self.handle.cache_path is not None:
            path = self.handle.cache_path
        return {
            "store": str(path) if path is not None else None,
            "format": store_format(path) if path is not None else None,
            "mapped": is_mapped(db),
        }

    def _trace_stats(self) -> dict:
        """The ``stats`` payload's span-tracing block."""
        tracer = _perf_get_tracer()
        if tracer is None:
            return {"enabled": False}
        return {"enabled": True, "aggregate": tracer.aggregate()}

    def health(self) -> dict:
        """Resilience status (the ``health`` op payload).

        ``status`` is ``"ok"`` when everything is nominal, ``"degraded"``
        when the breaker is not closed, workers are dead, or the
        persisted cache was quarantined, and ``"stopping"`` during
        shutdown.  Cheap enough for tight poll loops: no engine work, no
        queue traffic.
        """
        breaker = self.breaker.snapshot()
        pool = (
            self.supervisor.liveness() if self.supervisor is not None else None
        )
        cache = self.cache.health()
        dispatcher_alive = (
            self._dispatcher is not None and self._dispatcher.is_alive()
        )
        if self.stopping:
            status = "stopping"
        elif (
            breaker["state"] != CircuitBreaker.CLOSED
            or (pool is not None and pool["dead"] > 0)
            or cache["quarantined"] is not None
            or not dispatcher_alive
        ):
            status = "degraded"
        else:
            status = "ok"
        body = {
            "status": status,
            "version": __version__,
            "dispatcher_alive": dispatcher_alive,
            "breaker": breaker,
            "pool": pool,
            "cache": cache,
            "tasks": self.tasks.snapshot(),
            "database": self._database_info(),
        }
        if self.faults is not None:
            body["faults"] = self.faults.snapshot()
        return body

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            started = time.perf_counter()
            for pending in batch:
                self.metrics.histogram("queue_wait_seconds").observe(
                    started - pending.enqueued_at
                )
            self.metrics.histogram("batch_size").observe(len(batch))
            self.metrics.gauge("queue_depth").set(self.queue.depth)
            try:
                self._process_batch(batch)
            except Exception as exc:  # pragma: no cover - defensive
                for pending in batch:
                    if pending.response is None:
                        pending.resolve(
                            self._error_response(pending.request.id, exc)
                        )
            self.metrics.histogram("batch_seconds").observe(
                time.perf_counter() - started
            )

    def _process_batch(self, batch: "list[PendingRequest]") -> None:
        """Resolve a coalesced batch through the vectorized path."""
        with trace_span("service.batch", size=len(batch)):
            self._process_batch_inner(batch)

    def _process_batch_inner(self, batch: "list[PendingRequest]") -> None:
        db = self.handle.database
        n = self.handle.n_wires
        # Phase 1: parse specs; protocol/spec failures resolve immediately.
        work: list[tuple[PendingRequest, int]] = []
        with trace_span("service.parse"):
            for pending in batch:
                request = pending.request
                if request.wires is not None and request.wires != n:
                    pending.resolve(self._error_response(
                        request.id,
                        ProtocolError(
                            f"this daemon serves n_wires={n}, "
                            f"got wires={request.wires}",
                            kind="invalid_spec",
                        ),
                    ))
                    continue
                try:
                    perm = Permutation.coerce(request.spec_value(), n)
                except ReproError as exc:
                    pending.resolve(self._error_response(request.id, exc))
                    continue
                except (TypeError, ValueError) as exc:
                    pending.resolve(self._error_response(
                        request.id,
                        ProtocolError(
                            f"unparseable spec: {exc}", kind="invalid_spec"
                        ),
                    ))
                    continue
                work.append((pending, perm.word))
        if not work:
            return
        # Phase 2: one vectorized canonicalization + hash probe for the
        # whole batch (this is the point of coalescing).
        lookup_started = time.perf_counter()
        with trace_span("service.lookup", words=len(work)):
            words = np.array([w for _, w in work], dtype=np.uint64)
            keys, sizes = db.lookup_with_keys(words)
        self.metrics.histogram("lookup_seconds").observe(
            time.perf_counter() - lookup_started
        )
        # Phase 3: resolve per request from cache / db; collect hard ones.
        hard: list[tuple[PendingRequest, int, int]] = []
        for (pending, word), canon, size in zip(
            work, keys.tolist(), sizes.tolist()
        ):
            request = pending.request
            hit = self.cache.lookup(n, canon, word)
            if hit is not None and hit.size is not None:
                if request.op == "size" or hit.circuit is not None:
                    self.metrics.counter("served_from_cache").inc()
                    pending.resolve(self._ok_synthesis(
                        request, word, hit.size, hit.circuit, "cache"
                    ))
                    continue
            if size != db.MISSING:
                self.metrics.counter("served_from_db").inc()
                self._resolve_db_hit(pending, word, canon, size)
                continue
            bound = self.cache.bound_for(n, canon, self.handle.max_size)
            if bound is not None:
                self.metrics.counter("served_from_cache").inc()
                pending.resolve(self._error_response(
                    request.id,
                    SizeLimitExceededError(
                        f"function requires more than {self.handle.max_size} "
                        "gates (cached proof)",
                        lower_bound=bound,
                    ),
                ))
                continue
            hard.append((pending, word, canon))
        # Phase 4: hard queries fan out to the worker pool -- unless the
        # breaker is open or a request's deadline cannot fit a scan, in
        # which case the request degrades to an upper-bound answer from
        # the fallback engine (never an error, never a hung connection).
        if not hard:
            return
        if self.stopping:
            # Draining after shutdown: queued requests still get valid
            # answers, but no new multi-second scan starts.
            for pending, word, _ in hard:
                self._resolve_degraded(pending, word, "shutdown")
            return
        estimate = (
            self.metrics.histogram("scan_seconds").percentile(0.9) or 0.0
        )
        scan_items: list[tuple[PendingRequest, int, int]] = []
        for item in hard:
            pending, word, canon = item
            deadline = pending.deadline
            if deadline is not None and (
                deadline.expired() or deadline.remaining() < estimate
            ):
                self.metrics.counter("deadline_misses").inc()
                self.breaker.record_deadline_miss()
                self._resolve_degraded(pending, word, "deadline")
                continue
            if not self.breaker.allow():
                self._resolve_degraded(pending, word, "breaker_open")
                continue
            scan_items.append(item)
        if not scan_items:
            return
        scan_started = time.perf_counter()
        self.metrics.counter("hard_queries").inc(len(scan_items))
        # Each hard query becomes one cancellable WorkItem.  The token
        # carries the request's deadline, so expiry mid-scan preempts
        # the unit (cooperatively inline, process-level in the pool)
        # instead of merely being noticed afterwards; breaker trips,
        # shutdown, and abandoning connection threads reach the same
        # tokens through the registry / PendingRequest.work_item.
        items = []
        for pending, word, _ in scan_items:
            work = self.tasks.create(
                "scan", payload=word, deadline=pending.deadline
            )
            pending.work_item = work
            items.append(work)
        try:
            with trace_span("service.scan", queries=len(scan_items)):
                self.supervisor.solve_items(items)
        except ServiceError as exc:
            # The pool kept failing even across restarts.  The breaker
            # counts it; the requests degrade rather than error -- the
            # fallback engine runs in-process and owes nothing to the pool.
            self.breaker.record_failure()
            log.error("hard-query batch failed after restarts: %s", exc)
            for (pending, word, _), work in zip(scan_items, items):
                if not work.finished:
                    work.cancel("pool_failure", force=True)
                self._resolve_degraded(pending, word, "pool_failure")
            return
        self.metrics.histogram("scan_seconds").observe(
            time.perf_counter() - scan_started
        )
        missed = 0
        for (pending, word, canon), work in zip(scan_items, items):
            request = pending.request
            state = work.state
            if state == CANCELLED:
                reason = work.token.reason or "cancelled"
                if reason == "deadline":
                    missed += 1
                    self.metrics.counter("deadline_misses").inc()
                    self.breaker.record_deadline_miss()
                self._resolve_degraded(pending, word, reason)
                continue
            if state == DEGRADED:
                log.error(
                    "hard scan for %s degraded: %s",
                    protocol.word_to_hex(word), work.error,
                )
                self._resolve_degraded(pending, word, "scan_error")
                continue
            result = work.result
            if pending.deadline is not None and pending.deadline.expired():
                # The scan finished but blew the budget: the exact answer
                # still goes out (discarding computed work helps nobody),
                # but the miss counts toward tripping the breaker.
                missed += 1
                self.metrics.counter("deadline_misses").inc()
                self.breaker.record_deadline_miss()
            if result.lower_bound is not None:
                self.cache.store_bound(
                    n, canon, result.lower_bound, self.handle.max_size
                )
                pending.resolve(self._error_response(
                    request.id,
                    SizeLimitExceededError(
                        result.message, lower_bound=result.lower_bound
                    ),
                ))
                continue
            self.cache.store_circuit(
                n, canon, word, result.size, result.circuit
            )
            pending.resolve(self._ok_synthesis(
                request, word, result.size, result.circuit, "scan",
                lists_scanned=result.lists_scanned,
                candidates_tested=result.candidates_tested,
            ))
        if not missed:
            self.breaker.record_success()

    def _resolve_degraded(
        self, pending: PendingRequest, word: int, reason: str
    ) -> None:
        """Answer a hard request from the fallback engine.

        The result is a *valid* circuit whose size is only an upper bound
        on the optimum, labeled ``"guarantee": "upper_bound"`` with the
        degradation ``reason`` (``deadline``, ``breaker_open``,
        ``pool_failure``).  Degraded answers are never cached: a later
        uncontended query for the same class deserves the exact scan.
        """
        request = pending.request
        name = self.resilience.fallback_engine
        try:
            engine = self._get_engine(name)
            with self._engine_locks[name]:
                result = engine.synthesize(SynthesisRequest(
                    spec=Permutation(word, self.handle.n_wires),
                    n_wires=self.handle.n_wires,
                ))
        except Exception as exc:  # pragma: no cover - fallback engine broke
            pending.resolve(self._error_response(request.id, exc))
            return
        self.metrics.counter("responses_ok").inc()
        self.metrics.counter("responses_degraded").inc()
        self.metrics.counter(f"degraded_{reason}").inc()
        body = {
            "spec": Permutation(word, self.handle.n_wires).spec(),
            "word": protocol.word_to_hex(word),
            "size": result.size,
            "source": "degraded",
            "guarantee": GUARANTEE_UPPER_BOUND,
            "degraded_reason": reason,
            "tier": name,
        }
        if request.op == "synth":
            body["circuit"] = result.circuit
            body["depth"] = result.depth
            body["cost"] = result.cost
        pending.resolve(protocol.encode_response(request.id, result=body))

    def _resolve_db_hit(
        self, pending: PendingRequest, word: int, canon: int, size: int
    ) -> None:
        """Answer a request whose class is in the database (size <= k)."""
        request = pending.request
        n = self.handle.n_wires
        self.cache.store_size(n, canon, size)
        if request.op == "size":
            pending.resolve(self._ok_synthesis(request, word, size, None, "db"))
            return
        peel_started = time.perf_counter()
        try:
            circuit = peel_minimal_circuit(word, self.handle.database, size)
        except ReproError as exc:  # pragma: no cover - inconsistent db
            pending.resolve(self._error_response(request.id, exc))
            return
        self.metrics.histogram("peel_seconds").observe(
            time.perf_counter() - peel_started
        )
        text = str(circuit)
        self.cache.store_circuit(n, canon, word, size, text)
        pending.resolve(self._ok_synthesis(request, word, size, text, "db"))

    # ------------------------------------------------------------------
    # Response shaping
    # ------------------------------------------------------------------
    def _ok_synthesis(
        self,
        request: "protocol.Request",
        word: int,
        size: int,
        circuit_text: "str | None",
        source: str,
        **extra,
    ) -> str:
        self.metrics.counter("responses_ok").inc()
        result = {
            "spec": Permutation(word, self.handle.n_wires).spec(),
            "word": protocol.word_to_hex(word),
            "size": size,
            "source": source,
        }
        if request.op == "synth":
            result["circuit"] = circuit_text
            circuit = Circuit.parse(
                circuit_text if circuit_text != "(identity)" else "",
                self.handle.n_wires,
            )
            result["depth"] = circuit.depth()
            result["cost"] = circuit.cost()
        result.update(extra)
        return protocol.encode_response(request.id, result=result)

    def _error_response(self, request_id, exc: BaseException) -> str:
        self.metrics.counter("responses_error").inc()
        return protocol.encode_response(
            request_id, error=protocol.error_envelope(exc)
        )


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class _TCPHandler(socketserver.StreamRequestHandler):
    """One thread per connection; JSONL in, JSONL out."""

    def handle(self) -> None:  # pragma: no cover - exercised via e2e test
        service: SynthesisService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if not line.strip():
                continue
            response = service.handle_line(line.strip())
            if (
                service.faults is not None
                and service.faults.should_drop_connection()
            ):
                # Injected fault: close the connection without writing the
                # response, as a crashed daemon or broken network would.
                return
            try:
                self.wfile.write(response.encode("utf-8") + b"\n")
                self.wfile.flush()
            except (ConnectionError, OSError):
                return


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TCPDaemon:
    """A TCP front-end bound to one :class:`SynthesisService`.

    Binding to port 0 picks an ephemeral port; read it back from
    :attr:`address` (the end-to-end tests and benchmark do this).
    """

    def __init__(
        self,
        service: SynthesisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = _ThreadingTCPServer((host, port), _TCPHandler)
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None
        service.add_shutdown_hook(self._server.shutdown)

    @property
    def address(self) -> "tuple[str, int]":
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> "TCPDaemon":
        """Start the service and serve connections on a background thread."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-tcp",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for ``repro serve`` (Ctrl-C to stop)."""
        self.service.start()
        try:
            self._server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Gracefully drain the service and close the listener.

        A serving thread that survives its join timeout is an error, not
        a shrug: it means connections are still being handled after the
        caller was told the daemon stopped.  Surface it.
        """
        self.service.shutdown()
        thread, self._thread = self._thread, None
        try:
            if thread is not None:
                thread.join(timeout=5)
                if thread.is_alive():
                    log.error(
                        "TCP serving thread %s failed to stop within 5s; "
                        "listener state is undefined", thread.name,
                    )
                    raise ServiceError(
                        "TCP serving thread failed to stop within 5s "
                        "(a connection handler is wedged)"
                    )
        finally:
            self._server.server_close()

    def __enter__(self) -> "TCPDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_stdio(service: SynthesisService, stdin=None, stdout=None) -> int:
    """Serve the JSONL protocol over stdio (for subprocess embedding).

    Returns the number of lines served.  EOF triggers graceful shutdown,
    as does a ``shutdown`` request (after its acknowledgement is
    written).
    """
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    service.start()
    served = 0
    try:
        for line in stdin:
            if not line.strip():
                continue
            response = service.handle_line(line.strip())
            stdout.write(response + "\n")
            stdout.flush()
            served += 1
            if service.stopping:
                break
    finally:
        service.shutdown()
    return served


__all__ = [
    "ServiceConfig",
    "SynthesisService",
    "TCPDaemon",
    "serve_stdio",
]
