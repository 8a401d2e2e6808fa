"""The request front shared by the daemon and the shard router.

A JSONL line takes the same steps whether it reaches a
:class:`repro.service.daemon.SynthesisService` or a
:class:`repro.service.sharding.router.ShardRouter`:

1. :meth:`RequestFront.handle_line` decodes it; a malformed line gets a
   ``protocol`` error envelope, with the request's id when the line is
   a JSON object that carries one.
2. :meth:`RequestFront.submit` counts it, starts its
   :class:`~repro.service.resilience.Deadline` (queue time and injected
   delays count against it), and answers the control ops.
3. A work request -- ``synth``/``size``/``compile`` with any engine, at
   top level or as a ``batch`` entry -- is counted, timed and validated
   once, here: :meth:`RequestFront.validate` is the wire-count check
   plus the spec parse, yielding its :class:`Permutation` or
   function-form spec.
4. The subclass runs it (``_run_work`` / ``_run_batch``): the daemon on
   its dispatcher or the connection thread, the router by forwarding it
   to the owning shard.

Below ``handle_line`` a response is an envelope dict, encoded once at
the end.  When the exact path cannot answer (deadline, breaker,
shutdown, no live shard), :meth:`RequestFront.degraded` shapes the one
degraded answer, and :meth:`RequestFront.error_response` every error.
"""

from __future__ import annotations

import threading
import time

from repro import __version__
from repro.core.permutation import Permutation
from repro.engines import (
    GUARANTEE_UPPER_BOUND,
    Engine,
    SynthesisRequest,
    create_engine,
)
from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceShutdownError,
    SynthesisError,
)
from repro.service import protocol
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import Deadline

#: Engine answering degraded (upper-bound) responses: servable, cheap,
#: no database needed, and always terminates (the MMD heuristic).
FALLBACK_ENGINE = "heuristic"


class RequestFront:
    """Protocol handling, lifecycle and degradation common to every server.

    Subclasses set :attr:`n_wires` and provide ``start``, ``stats``,
    ``health``, ``_drain`` (the shutdown work), ``_cluster_op`` (the
    ``shards``/``shard_join``/``shard_leave`` ops), ``_run_work`` and
    ``_run_batch``.
    """

    #: Wire count served; work naming another gets ``invalid_spec``.
    n_wires: int

    def __init__(
        self,
        *,
        metrics: "MetricsRegistry | None" = None,
        faults=None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = faults
        self._engines: "dict[str, tuple[Engine, threading.Lock]]" = {}
        self._engines_lock = threading.Lock()
        self._shutdown_hooks: list = []
        self._shutdown_lock = threading.Lock()
        self._shutdown_requested = False
        self._shutdown_started = False
        self._stopped = threading.Event()
        self._started_at: "float | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self._shutdown_requested or self._shutdown_started

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def uptime(self) -> "float | None":
        if self._started_at is None:
            return None
        return time.monotonic() - self._started_at

    def add_shutdown_hook(self, hook) -> None:
        """Register a callable run at the end of graceful shutdown
        (transports use this to stop accepting)."""
        self._shutdown_hooks.append(hook)

    def shutdown(self, *, save_cache: bool = True) -> None:
        """Drain accepted work, then stop the transports.

        Idempotent: a second caller waits for the first to finish.
        ``save_cache`` persists the daemon's result cache (the router
        keeps none).
        """
        with self._shutdown_lock:
            already_started = self._shutdown_started
            self._shutdown_started = True
        if already_started:
            # Wait outside the lock: blocking here while holding it would
            # deadlock a concurrent first caller that still needs it.
            # Bounded waits in a loop keep a stuck shutdown observable
            # (and interruptible) instead of parking this thread forever.
            while not self._stopped.wait(timeout=1.0):
                pass
            return
        self._drain(save_cache)
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
            envelope = self.error_response(exc.request_id, exc)
        else:
            envelope = self.submit(request)
        return protocol.encode_response(envelope)

    def submit(self, request: "protocol.Request") -> dict:
        """Execute one decoded request and return its response envelope."""
        self._count(request)
        # Deadlines count from accept time, *before* any injected delay
        # or queueing: everything the server spends counts against them.
        accepted = time.monotonic()
        if self.faults is not None:
            self.faults.delay_request(request.op)
        if request.op not in protocol.WORK_OPS and request.op != "batch":
            return self._control(request)
        if self.stopping:
            return self.error_response(
                request.id, ServiceShutdownError("service is draining")
            )
        if request.op == "batch":
            return self._batch(request, accepted)
        try:
            target = self.validate(request)
        except ReproError as exc:
            return self.error_response(request.id, exc)
        deadline = Deadline.from_ms(request.deadline_ms, start=accepted)
        return self._run_work(request, target, deadline)

    def _count(self, request: "protocol.Request") -> None:
        self.metrics.counter("requests_total").inc()
        self.metrics.counter(f"requests_{request.op}").inc()

    def validate(self, request: "protocol.Request"):
        """The work request's :class:`Permutation` (``synth``/``size``)
        or function-form spec (``compile``), for this server's one wire
        count.

        Raises a :class:`ReproError` whose envelope is the answer: a
        wrong ``wires``, a spec that does not parse, and a permutation
        spec of another width are ``invalid_spec``.
        """
        if request.wires is not None and request.wires != self.n_wires:
            raise ProtocolError(
                f"this daemon serves n_wires={self.n_wires}, "
                f"got wires={request.wires}",
                kind="invalid_spec",
            )
        try:
            if request.op == "compile":
                from repro.specs import spec_from_wire

                return spec_from_wire(request.spec)
            perm = Permutation.coerce(request.spec_value(), self.n_wires)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"unparseable spec: {exc}", kind="invalid_spec"
            ) from exc
        if perm.n_wires != self.n_wires:
            raise ProtocolError(
                f"this daemon serves n_wires={self.n_wires}, "
                f"got a {perm.n_wires}-wire spec",
                kind="invalid_spec",
            )
        return perm

    def _control(self, request: "protocol.Request") -> dict:
        """Answer a control op (everything but work and ``batch``)."""
        if request.op == "ping":
            body = self.ping()
        elif request.op == "stats":
            body = self.stats()
        elif request.op == "health":
            body = self.health()
        elif request.op == "shutdown":
            self.request_shutdown()
            body = {"draining": True}
        else:
            return self._cluster_op(request)
        return protocol.response(request.id, result=body)

    def ping(self) -> dict:
        """The ``ping`` op payload."""
        return {"pong": True, "version": __version__}

    def _batch(self, request: "protocol.Request", accepted: float) -> dict:
        """Answer a ``batch`` op: one complete response envelope per
        entry, in order (its own id/ok/error), so one bad entry never
        poisons the batch.  Entries are admitted like top-level requests;
        each one's deadline is the earlier of its own and the line's."""
        entries = request.options.get("requests", [])
        results: "list[dict | None]" = [None] * len(entries)
        work = []
        for index, entry in enumerate(entries):
            try:
                sub = protocol.decode_payload(entry)
            except ProtocolError as exc:
                results[index] = self.error_response(exc.request_id, exc)
                continue
            self._count(sub)
            try:
                target = self.validate(sub)
            except ReproError as exc:
                results[index] = self.error_response(sub.id, exc)
                continue
            budgets = (request.deadline_ms, sub.deadline_ms)
            ms = min((b for b in budgets if b is not None), default=None)
            deadline = Deadline.from_ms(ms, start=accepted)
            work.append((index, sub, target, deadline))
        self._run_batch(work, results)
        return protocol.response(
            request.id, result={"count": len(results), "results": results}
        )

    # ------------------------------------------------------------------
    # Engines and degraded answers
    # ------------------------------------------------------------------
    def engine(self, name: str) -> "tuple[Engine, threading.Lock]":
        """The lazily created engine ``name`` and the lock its calls run
        under; raises :class:`SynthesisError` on unknown or non-servable
        names."""
        with self._engines_lock:
            entry = self._engines.get(name)
            if entry is None:
                engine = create_engine(name, **self._engine_options(name))
                if not engine.capabilities.servable:
                    raise SynthesisError(
                        f"engine {name!r} is not servable over the daemon"
                    )
                entry = self._engines[name] = (engine, threading.Lock())
            return entry

    def _engine_options(self, name: str) -> dict:
        return {"n_wires": self.n_wires}

    def degraded(self, request: "protocol.Request", target, reason: str) -> dict:
        """Answer a validated work request from :data:`FALLBACK_ENGINE`.

        The circuit is valid (for ``compile``: right on every specified
        row) but its size only bounds the optimum from above, so the
        answer is tagged ``"guarantee": "upper_bound"`` with the
        ``degraded_reason``.  Never cached: a later uncontended query
        deserves the exact answer.  The fallback engine needs no
        database scan, so it is cheap enough to run inline even right
        after the exact path blew its budget.
        """
        name = FALLBACK_ENGINE
        try:
            engine, lock = self.engine(name)
            with lock:
                if request.op == "compile":
                    from repro.specs import compile_spec

                    body = compile_spec(
                        target, engine, n_wires=self.n_wires
                    ).to_wire()
                else:
                    result = engine.synthesize(
                        SynthesisRequest(spec=target, n_wires=self.n_wires)
                    )
        except Exception as exc:  # pragma: no cover - fallback engine broke
            return self.error_response(request.id, exc)
        if request.op != "compile":
            body = self.synthesis_body(
                request.op, target.word, result.size,
                result.circuit, result.depth, result.cost,
            )
        self.metrics.counter("responses_ok").inc()
        self.metrics.counter("responses_degraded").inc()
        self.metrics.counter(f"degraded_{reason}").inc()
        body["source"] = "degraded"
        body["guarantee"] = GUARANTEE_UPPER_BOUND
        body["degraded_reason"] = reason
        body["tier"] = name
        return protocol.response(request.id, result=body)

    def synthesis_body(
        self, op: str, word: int, size: int, circuit=None, depth=None,
        cost=None,
    ) -> dict:
        """The one ``synth``/``size`` answer body, exact or degraded;
        ``synth`` adds the circuit text, its depth and its cost."""
        body = {
            "spec": Permutation(word, self.n_wires).spec(),
            "word": protocol.word_to_hex(word),
            "size": size,
        }
        if op == "synth":
            body["circuit"] = circuit
            body["depth"] = depth
            body["cost"] = cost
        return body

    def error_response(self, request_id, exc: BaseException) -> dict:
        """The error response envelope for ``exc``."""
        self.metrics.counter("responses_error").inc()
        return protocol.response(
            request_id, error=protocol.error_envelope(exc)
        )


__all__ = ["FALLBACK_ENGINE", "RequestFront"]
