"""The synthesis daemon: load the database once, serve many queries.

Architecture::

    TCP / stdio transports             (one thread per connection)
        -> RequestFront.handle_line    decode, count, answer control ops,
                                       encode the response
        -> RequestFront.validate       every work request and batch
                                       entry, once: wire count + spec
                                       parse; its Deadline
        -> default-engine synth/size   BatchQueue: the dispatcher takes
                                       everything queued as one batch
            -> dispatcher thread       ONE canonical_np + lookup_batch
                                       pass (lookup_with_keys) per batch
                -> ResultCache         keyed by canonical representative
                -> peel fast path      size <= k
                -> A_i-list scan       size > k, one at a time, each
                                       under its request's cancel token
        -> compile, named engines      this connection thread, under the
                                       engine's lock and one tracked
                                       cancel token (no batch-wide fast
                                       path to exploit)

The front (:mod:`repro.service.front`) is shared with the shard router,
so both answer a line through the same validation, error and degradation
code.  A ``batch`` runs its validated entries in order, each through
the path a top-level request takes.  Control ops (``ping``/``stats``/
``health``/``shutdown``) are answered synchronously on the connection
thread.  Graceful shutdown closes the queue (new work gets a
``shutdown`` error envelope), drains everything already accepted,
persists the result cache, and only then stops the transports.

One daemon uses one core for its hard work; ``repro serve --shards N``
is how to use more (see ``docs/SHARDING.md``).

Resilience (see :mod:`repro.service.resilience` and
``docs/RESILIENCE.md``): a :class:`CircuitBreaker` sheds hard queries
after consecutive deadline misses.  Hard work (scans, compiles,
named-engine requests) runs under a :class:`CancelToken` tracked by the
daemon's :class:`TaskRegistry` and bounded by the request's
``deadline_ms``, or by ``hard_timeout`` without one; an answer that
comes in late is still returned exact, and counted as a deadline miss.
Whatever stops the exact answer -- deadline, open breaker, shutdown --
the request degrades in one place, :meth:`SynthesisService._degrade`,
to an upper-bound answer from the fallback engine: a response is always
written, never a hung connection.

Named engines (from :mod:`repro.engines`) are created lazily on first
use (options from ``config.extra["engine_options"]``) and cache their
exact answers in their own keyspace of the shared :class:`ResultCache`.
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
from repro.engines import SynthesisRequest, create_engine
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
from repro.perf.trace import is_enabled as _perf_is_enabled
from repro.perf.trace import remove_sink as _perf_remove_sink
from repro.perf.trace import trace as trace_span
from repro.service import protocol
from repro.service.batching import BatchQueue, PendingRequest
from repro.service.cache import DEFAULT_ENGINE, ResultCache
from repro.service.faults import FaultInjector
from repro.service.front import RequestFront
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import CircuitBreaker, Deadline, ResilienceConfig
from repro.service.tasks import (
    CANCELLED,
    DEGRADED,
    DONE,
    CancelToken,
    TaskRegistry,
)
from repro.synth.search import peel_minimal_circuit
from repro.synth.synthesizer import SynthesisHandle

log = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Everything needed to build and tune a daemon."""

    n_wires: int = 4
    k: int = 6
    max_list_size: "int | None" = None
    result_cache_path: "str | None" = None
    db_cache_dir: object = None  # None = default dir, False = no persistence
    verbose: bool = False
    extra: dict = field(default_factory=dict)


class SynthesisService(RequestFront):
    """Long-lived serving core shared by the TCP and stdio transports."""

    def __init__(
        self,
        handle: SynthesisHandle,
        config: "ServiceConfig | None" = None,
        cache: "ResultCache | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.handle = handle
        self.n_wires = handle.n_wires
        self.config = config or ServiceConfig(
            n_wires=handle.n_wires, k=handle.k,
            max_list_size=handle.max_list_size,
        )
        self.resilience = ResilienceConfig.from_extra(self.config.extra)
        super().__init__(
            metrics=metrics,
            faults=FaultInjector.from_extra(self.config.extra),
        )
        self.cache = cache if cache is not None else ResultCache(
            path=self.config.result_cache_path
        )
        self.queue = BatchQueue()
        # Every hard unit of work (scan, compile, named engine) runs
        # under a cancel token tracked here; a breaker trip preempts all
        # of them instead of letting abandoned work burn on.
        self.tasks = TaskRegistry(metrics=self.metrics)
        self.breaker = CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown=self.resilience.breaker_cooldown,
            on_trip=lambda: self.tasks.cancel_in_flight("breaker_open"),
        )
        self._dispatcher: "threading.Thread | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: ServiceConfig) -> "SynthesisService":
        """Prepare the synthesizer (build/load the database) and wire up
        the service around its warm handle."""
        handle = create_engine(
            "optimal",
            n_wires=config.n_wires,
            k=config.k,
            max_list_size=config.max_list_size,
            cache_dir=config.db_cache_dir,
            verbose=config.verbose,
        ).handle()
        config.max_list_size = handle.max_list_size
        return cls(handle, config=config)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SynthesisService":
        """Start the dispatcher."""
        if self._dispatcher is not None:
            return self
        if self.config.extra.get("trace"):
            # Feed every completed span into the metrics registry so
            # span timings ride the existing stats/snapshot plumbing.
            _perf_enable(sink=self._span_sink)
        self._started_at = time.monotonic()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def _span_sink(self, name: str, seconds: float) -> None:
        """Bridge completed trace spans into per-name histograms."""
        self.metrics.histogram(f"span_{name}").observe(seconds)

    def _drain(self, save_cache: bool) -> None:
        """Close the queue, drain accepted work, persist the cache.

        Must not run on the dispatcher itself.
        """
        self.queue.close()
        # Preempt in-flight hard work: cancelled scans resolve their
        # requests as degraded answers (counted in stats), so the
        # dispatcher drains in bounded time instead of finishing
        # arbitrarily long scans.  Requests still queued drain through
        # the shutdown-aware hard path (degraded, never scanned).
        self.tasks.cancel_in_flight("shutdown")
        if self._dispatcher is not None:
            while self._dispatcher.is_alive():
                self._dispatcher.join(timeout=1.0)
            if self.config.extra.get("trace"):
                _perf_remove_sink(self._span_sink)
        # Anything that raced past close without being dispatched.
        for pending in self.queue.drain_remaining():
            pending.resolve(self.error_response(
                pending.request.id,
                ServiceShutdownError("service stopped before dispatch"),
            ))
        if save_cache and self.cache.path is not None:
            try:
                self.cache.save()
            except ServiceError as exc:
                log.error("result cache save failed during shutdown: %s", exc)
            else:
                if self.faults is not None:
                    self.faults.corrupt_cache_file(self.cache.path)

    # ------------------------------------------------------------------
    # Work requests
    # ------------------------------------------------------------------
    def _cluster_op(self, request: "protocol.Request") -> dict:
        return self.error_response(
            request.id,
            ProtocolError(
                f"op {request.op!r} needs a sharded router "
                "(start one with 'repro serve --shards N')"
            ),
        )

    def _run_batch(self, entries, results) -> None:
        """A single daemon has no shards to scatter over: entries run in
        order, each through :meth:`_run_work` like a top-level request
        (and refused like one once draining), so a class repeated inside
        one batch is served from cache.  A sharded router produces the
        same envelopes for the same entries (the shard-smoke CI job
        compares the two byte for byte -- see ``docs/SHARDING.md``)."""
        for index, sub, target, deadline in entries:
            if self.stopping:
                results[index] = self.error_response(
                    sub.id, ServiceShutdownError("service is draining")
                )
            else:
                results[index] = self._run_work(sub, target, deadline)

    def _run_work(self, request: "protocol.Request", target, deadline) -> dict:
        """Run a validated work request where it belongs.

        Default-engine ``synth``/``size`` park on the batch queue for the
        dispatcher's vectorized lookup.  ``compile`` and named engines
        have no batch-wide fast path: they run here, on the connection
        thread, under the engine's lock.
        """
        name = request.engine or DEFAULT_ENGINE
        if request.op != "compile":
            self.metrics.counter(f"engine_requests_{name}").inc()
            if name == DEFAULT_ENGINE:
                return self._enqueue(request, target.word, deadline)
        try:
            engine, lock = self.engine(name)
        except SynthesisError as exc:
            return self.error_response(
                request.id, ProtocolError(str(exc), kind="protocol")
            )
        if request.op == "compile":
            return self._compile(request, target, name, engine, lock, deadline)
        return self._synthesize(request, target, name, engine, lock, deadline)

    def _engine_options(self, name: str) -> dict:
        options = dict(
            self.config.extra.get("engine_options", {}).get(name, {})
        )
        options.setdefault("n_wires", self.n_wires)
        # Factories that declare it (portfolio) reuse the warm database
        # handle; ``create_engine`` drops it for the rest.
        options.setdefault("handle", self.handle)
        return options

    def _enqueue(self, request: "protocol.Request", word: int, deadline) -> dict:
        """Park a default-engine request on the queue and wait for the
        dispatcher.

        The wait is bounded by ``request_timeout`` -- the server-side
        backstop that guarantees a connection thread can never hang
        forever even if the dispatcher wedges.
        """
        pending = PendingRequest(
            request, word, deadline=deadline,
            token=CancelToken(self._hard_deadline(deadline)),
        )
        try:
            self.queue.put(pending)
        except ServiceShutdownError as exc:
            return self.error_response(request.id, exc)
        response = pending.wait(self.resilience.request_timeout)
        if response is None:
            # The connection thread is abandoning the request: the
            # dispatcher skips it if still queued, or stops its scan at
            # the next checkpoint -- nobody will read the answer.
            pending.token.cancel("abandoned")
            self.metrics.counter("responses_timeout").inc()
            return self.error_response(
                request.id,
                ProtocolError(
                    "request was not resolved within "
                    f"{self.resilience.request_timeout}s",
                    kind="internal",
                ),
            )
        return response

    def _compile(self, request, spec, name, engine, lock, deadline) -> dict:
        """Answer a ``compile`` op: spec form in, circuit + embedding out.

        The completion search runs under one tracked cancel token that
        carries the request deadline, or ``hard_timeout`` without one:
        expiry, breaker trips, and shutdown preempt it at the next
        checkpoint -- before the completions are drawn, around the
        database pass, and before each ``A_i`` list of a full search --
        after which the request degrades
        instead of erroring.  A late answer counts as a deadline miss,
        as a late scan does (:meth:`_count_if_late`).  Compile answers
        are never cached: the result is keyed by the *spec* (not a
        permutation class), and the embedding payload already makes
        re-compilation cheap to reason about.
        """
        from repro.specs import compile_spec

        samples = request.options.get("samples")
        token = self.tasks.begin(CancelToken(self._hard_deadline(deadline)))
        try:
            with lock, trace_span(
                "service.compile", engine=name, kind=spec.kind
            ):
                kwargs: dict = {
                    "n_wires": self.n_wires, "cancel": token.checkpoint,
                }
                if samples is not None:
                    kwargs["samples"] = samples
                result = compile_spec(spec, engine, **kwargs)
        except WorkCancelledError as exc:
            self.tasks.end(token, CANCELLED)
            return self._degrade(request, spec, exc.reason)
        except Exception as exc:
            self.tasks.end(token, DEGRADED)
            return self.error_response(request.id, exc)
        self.tasks.end(token, DONE)
        self._count_if_late(token)
        return self._ok(request.id, result.to_wire(), "engine")

    def _synthesize(self, request, perm, name, engine, lock, deadline) -> dict:
        """Answer one ``synth``/``size`` request with a named engine.

        Engine answers are not class-invariant (relabeling changes the
        MMD heuristic's output), so the keyspace is keyed by exact word
        and the stored "circuit" is the full serialized wire result.

        The engine call runs under one tracked cancel token, as in
        :meth:`_compile`.  The token carries the request deadline, or
        ``hard_timeout`` without one, and its checkpoint goes to the
        engine as ``options["cancel"]``: expiry, breaker trips, and
        shutdown preempt a cancellable engine at its next checkpoint,
        after which the request degrades (and is never cached).  An
        engine that finishes late (or ignores the checkpoint) answers
        exact, and the miss is counted.
        """
        word, n = perm.word, perm.n_wires
        hit = self.cache.lookup(n, word, word, engine=name)
        if hit is not None and hit.circuit is not None:
            self.metrics.counter(f"engine_cache_hits_{name}").inc()
            self.metrics.counter("served_from_cache").inc()
            body, source = json.loads(hit.circuit), "cache"
        else:
            token = self.tasks.begin(
                CancelToken(self._hard_deadline(deadline))
            )
            started = time.perf_counter()
            try:
                with lock, trace_span("service.engine", engine=name):
                    result = engine.synthesize(SynthesisRequest(
                        spec=perm,
                        n_wires=n,
                        options={"cancel": token.checkpoint},
                    ))
            except WorkCancelledError as exc:
                self.tasks.end(token, CANCELLED)
                return self._degrade(request, perm, exc.reason)
            except Exception as exc:
                self.tasks.end(token, DEGRADED)
                return self.error_response(request.id, exc)
            self.tasks.end(token, DONE)
            self._count_if_late(token)
            self.metrics.histogram(f"engine_seconds_{name}").observe(
                time.perf_counter() - started
            )
            body, source = result.to_wire(), "engine"
            self.cache.store_circuit(
                n,
                word,
                word,
                result.size,
                json.dumps(body, sort_keys=True),
                engine=name,
            )
        if request.op == "size":
            body.pop("circuit", None)
        return self._ok(request.id, body, source)

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------
    def _degrade(self, request: "protocol.Request", target, reason: str) -> dict:
        """The daemon's one degradation point: the fallback engine's
        upper-bound answer (``reason`` is ``deadline``, ``breaker_open``,
        ``shutdown``, ``scan_error`` or another cancellation reason)."""
        if reason == "deadline":
            self.breaker.record_deadline_miss()
        return self.degraded(request, target, reason)

    def _hard_deadline(self, deadline: "Deadline | None") -> Deadline:
        """The one bound on a unit of hard work: the request's deadline,
        or ``hard_timeout`` from now when it carries none."""
        if deadline is None:
            return Deadline(self.resilience.hard_timeout)
        return deadline

    def _count_if_late(self, token: CancelToken) -> bool:
        """The one rule for finished hard work: an exact answer past its
        deadline still goes out (discarding computed work helps nobody),
        but the miss counts toward tripping the breaker.  Returns
        whether it was late."""
        late = token.deadline.expired()
        if late:
            self.breaker.record_deadline_miss()
        return late

    def _shed(self, pending: PendingRequest, reason: str) -> None:
        """Degrade a queued request instead of scanning for it."""
        pending.resolve(self._degrade(
            pending.request, Permutation(pending.word, self.n_wires), reason
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Config + metrics + cache state (the ``stats`` op payload)."""
        return {
            "version": __version__,
            "uptime": self.uptime(),
            "config": {
                "n_wires": self.handle.n_wires,
                "k": self.handle.k,
                "max_list_size": self.handle.max_list_size,
                "max_size": self.handle.max_size,
                "max_batch": self.queue.max_batch,
            },
            "queue_depth": self.queue.depth,
            "engines": {
                "default": DEFAULT_ENGINE,
                "loaded": sorted(self._engines),
            },
            "database": self._database_info(),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "trace": {"enabled": _perf_is_enabled()},
            "tasks": self.tasks.snapshot(),
            "resilience": {"breaker": self.breaker.snapshot()},
        }

    def _database_info(self) -> dict:
        """Where the database lives and whether it is a shared mapping.

        ``mapped: True`` means the table is a read-only ``.rdb``
        memory-map -- every shard process mapping it shares one
        page-cache copy (see ``docs/DATABASE.md``).
        """
        mapped = self.handle.database.table.path
        path = mapped or self.handle.store_path
        return {
            "store": str(path) if path is not None else None,
            "format": "rdb" if path is not None else None,
            "mapped": mapped is not None,
        }

    def health(self) -> dict:
        """Resilience status (the ``health`` op payload).

        ``status`` is ``"ok"`` when everything is nominal, ``"degraded"``
        when the breaker is not closed, the dispatcher died, or the
        persisted cache was quarantined, and ``"stopping"`` during
        shutdown.  Cheap enough for tight poll loops: no engine work, no
        queue traffic.
        """
        breaker = self.breaker.snapshot()
        cache = self.cache.health()
        dispatcher_alive = (
            self._dispatcher is not None and self._dispatcher.is_alive()
        )
        if self.stopping:
            status = "stopping"
        elif (
            breaker["state"] != CircuitBreaker.CLOSED
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
            try:
                self._process_batch(batch)
            except Exception as exc:  # pragma: no cover - defensive
                for pending in batch:
                    if pending.response is None:
                        pending.resolve(
                            self.error_response(pending.request.id, exc)
                        )

    def _process_batch(self, batch: "list[PendingRequest]") -> None:
        """Resolve a batch of validated requests.

        One vectorized canonicalization + hash probe covers the whole
        batch (the point of batching); then each request is answered
        from the result cache, the database, or a cached proof, and the
        rest go to the hard path.
        """
        db = self.handle.database
        n = self.n_wires
        with trace_span("service.batch", size=len(batch)):
            with trace_span("service.lookup", words=len(batch)):
                words = np.array([p.word for p in batch], dtype=np.uint64)
                keys, sizes = db.lookup_with_keys(words)
            hard: list[tuple[PendingRequest, int]] = []
            for pending, canon, size in zip(
                batch, keys.tolist(), sizes.tolist()
            ):
                request, word = pending.request, pending.word
                hit = self.cache.lookup(n, canon, word)
                if (
                    hit is not None
                    and hit.size is not None
                    and (request.op == "size" or hit.circuit is not None)
                ):
                    self.metrics.counter("served_from_cache").inc()
                    pending.resolve(self._ok_synthesis(
                        request, word, hit.size, hit.circuit, "cache"
                    ))
                    continue
                if size != db.MISSING:
                    self.metrics.counter("served_from_db").inc()
                    self._resolve_db_hit(pending, canon, size)
                    continue
                bound = self.cache.bound_for(n, canon, self.handle.max_size)
                if bound is not None:
                    self.metrics.counter("served_from_cache").inc()
                    pending.resolve(self.error_response(
                        request.id,
                        SizeLimitExceededError(
                            f"function requires more than "
                            f"{self.handle.max_size} gates (cached proof)",
                            lower_bound=bound,
                        ),
                    ))
                    continue
                hard.append((pending, canon))
            if hard:
                self._scan(hard)

    def _scan(self, hard: "list[tuple[PendingRequest, int]]") -> None:
        """Run the ``A_i``-list scans for hard queries, one at a time on
        this thread -- unless the service is draining, the breaker is
        open, a request was abandoned while queued, or its deadline
        cannot fit a scan; those degrade instead (never an error, never
        a hung connection)."""
        if self.stopping:
            # Draining after shutdown: queued requests still get valid
            # answers, but no new multi-second scan starts.
            for pending, _ in hard:
                self._shed(pending, "shutdown")
            return
        estimate = (
            self.metrics.histogram("scan_seconds").percentile(0.9) or 0.0
        )
        scans: list[tuple[PendingRequest, int]] = []
        for pending, canon in hard:
            deadline = pending.deadline
            if pending.token.cancelled:  # abandoned, or deadline passed
                self._shed(pending, pending.token.reason)
            elif deadline is not None and deadline.remaining() < estimate:
                self._shed(pending, "deadline")
            elif not self.breaker.allow():
                self._shed(pending, "breaker_open")
            else:
                scans.append((pending, canon))
        if not scans:
            return
        self.metrics.counter("hard_queries").inc(len(scans))
        # Track every scan of the batch before running any, so a
        # shutdown or breaker trip during one cancels the rest too.
        for pending, _ in scans:
            self.tasks.begin(pending.token)
        missed = False
        with trace_span("service.scan", queries=len(scans)):
            for pending, canon in scans:
                missed |= self._scan_one(pending, canon)
        if not missed:
            self.breaker.record_success()

    def _scan_one(self, pending: PendingRequest, canon: int) -> bool:
        """Scan for one hard query and answer it; True when the request
        missed its deadline.

        The request's token carries its deadline (or ``hard_timeout``),
        so expiry, breaker trips, shutdown and an abandoning connection
        thread stop the scan at its next ``A_i`` boundary.  A scan that
        returns is answered exact, late or not.
        """
        request, word, token = pending.request, pending.word, pending.token
        started = time.perf_counter()
        try:
            token.checkpoint()  # cancelled while waiting its turn
            outcome = self.handle.engine.search(word, cancel=token.checkpoint)
        except WorkCancelledError as exc:
            self.tasks.end(token, CANCELLED)
            self._shed(pending, exc.reason)
            return exc.reason == "deadline"
        except SizeLimitExceededError as exc:
            # An exhausted scan is an answer too: a proof that size > L.
            outcome = exc
        except Exception as exc:
            self.tasks.end(token, DEGRADED)
            log.error(
                "hard scan for %s degraded: %s",
                protocol.word_to_hex(word), exc,
            )
            self._shed(pending, "scan_error")
            return False
        # Only a scan that ran to its answer samples what a scan costs
        # (the p90 that _scan sheds by).
        self.metrics.histogram("scan_seconds").observe(
            time.perf_counter() - started
        )
        self.tasks.end(token, DONE)
        late = self._count_if_late(token)
        n = self.n_wires
        if isinstance(outcome, SizeLimitExceededError):
            self.cache.store_bound(
                n, canon, outcome.lower_bound, self.handle.max_size
            )
            pending.resolve(self.error_response(request.id, outcome))
            return late
        text = str(outcome.circuit)
        self.cache.store_circuit(n, canon, word, outcome.size, text)
        pending.resolve(self._ok_synthesis(
            request, word, outcome.size, text, "scan",
            circuit=outcome.circuit,
            lists_scanned=outcome.lists_scanned,
            candidates_tested=outcome.candidates_tested,
        ))
        return late

    def _resolve_db_hit(
        self, pending: PendingRequest, canon: int, size: int
    ) -> None:
        """Answer a request whose class is in the database (size <= k)."""
        request, word = pending.request, pending.word
        n = self.n_wires
        self.cache.store_size(n, canon, size)
        if request.op == "size":
            pending.resolve(self._ok_synthesis(request, word, size, None, "db"))
            return
        try:
            circuit = peel_minimal_circuit(word, self.handle.database, size)
        except ReproError as exc:  # pragma: no cover - inconsistent db
            pending.resolve(self.error_response(request.id, exc))
            return
        text = str(circuit)
        self.cache.store_circuit(n, canon, word, size, text)
        pending.resolve(self._ok_synthesis(
            request, word, size, text, "db", circuit=circuit
        ))

    # ------------------------------------------------------------------
    # Response shaping
    # ------------------------------------------------------------------
    def _ok_synthesis(
        self,
        request: "protocol.Request",
        word: int,
        size: int,
        text: "str | None",
        source: str,
        circuit: "Circuit | None" = None,
        **extra,
    ) -> dict:
        """A default-engine answer; a cache hit has no fresh ``circuit``,
        so its ``text`` is parsed for the depth and cost."""
        depth = cost = None
        if request.op == "synth":
            if circuit is None:
                circuit = Circuit.parse(text, self.n_wires)
            depth, cost = circuit.depth(), circuit.cost()
        body = self.synthesis_body(request.op, word, size, text, depth, cost)
        body.update(extra)
        return self._ok(request.id, body, source)

    def _ok(self, request_id, body: dict, source: str) -> dict:
        self.metrics.counter("responses_ok").inc()
        body["source"] = source
        return protocol.response(request_id, result=body)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
def _read_request_line(stream) -> "str | bytes | None":
    """The next non-blank line of ``stream`` (binary or text), stripped,
    or None at the end of input: the one line reader of both transports.

    A line is read no further than ``MAX_LINE_BYTES + 1`` units.  When no
    newline arrives within them, the rest of the line, through the next
    newline, is read and dropped, and the units read are returned for
    :func:`protocol.decode_request` to refuse: an over-long line gets
    exactly one answer.
    """
    limit = protocol.MAX_LINE_BYTES + 1
    while True:
        line = stream.readline(limit)
        if not line:
            return None
        newline = b"\n" if isinstance(line, bytes) else "\n"
        if len(line) == limit and not line.endswith(newline):
            rest = line
            while rest and not rest.endswith(newline):
                rest = stream.readline(limit)
            return line
        line = line.strip()
        if line:
            return line


class _TCPHandler(socketserver.StreamRequestHandler):
    """One thread per connection; JSONL in, JSONL out."""

    def handle(self) -> None:  # pragma: no cover - exercised via e2e test
        service: SynthesisService = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                line = _read_request_line(self.rfile)
            except (ConnectionError, OSError):
                return
            if line is None:
                return
            response = service.handle_line(line)
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
    written), and so does a broken pipe on stdout: the only client has
    gone, so nothing more can be answered.  Any other write error
    propagates.  Lines are read as bytes from a text ``stdin``'s
    buffer, as the TCP transport reads them.
    """
    import os
    import sys

    stdin = stdin if stdin is not None else sys.stdin
    stdin = getattr(stdin, "buffer", stdin)
    stdout = stdout if stdout is not None else sys.stdout
    service.start()
    served = 0
    try:
        while (line := _read_request_line(stdin)) is not None:
            response = service.handle_line(line)
            try:
                stdout.write(response + "\n")
                stdout.flush()
            except BrokenPipeError:
                # A buffered stdout keeps the line it failed to flush and
                # flushes it again at exit; against /dev/null that flush
                # succeeds instead of exiting 120 with "Exception ignored".
                if stdout is sys.__stdout__:
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, stdout.fileno())
                    os.close(devnull)
                break
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
