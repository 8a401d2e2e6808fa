"""The shard router: consistent-hash front-end over N shard daemons.

:class:`ShardRouter` shares the request front of
:class:`SynthesisService` (:class:`repro.service.front.RequestFront`):
line decoding, control ops, the one validation step, the degraded
answer, and error lines are the same code, so a router and a solo daemon
answer the same line with the same bytes, and the existing transports --
:class:`repro.service.daemon.TCPDaemon` and ``serve_stdio`` -- serve a
sharded cluster unchanged.

Routing: each ``synth``/``size`` request is keyed by the canonical
representative of its spec (one equivalence class, one owner, one
result-cache partition) and forwarded to the rendezvous owner.
``compile`` requests route the same way, keyed by the canonical
representative of the spec's deterministic base completion
(:func:`repro.specs.routing_word`) -- a pure function of the spec, so
router and shard agree on the owner before any search runs.  If the
owner is unreachable the router walks the preference list -- every
shard maps the complete ``.rdb`` store, so the re-routed answer is
*exact*.  Only when no live shard remains (or the deadline is burned)
does the router degrade to a local fallback-engine answer tagged
``"guarantee": "upper_bound"`` -- a response is always written.

``batch`` ops scatter by owner and gather with per-shard deadlines; an
entry whose deadline has passed degrades unforwarded, as a top-level
request does.  A failed slice re-routes its members individually
(exact) or degrades (tagged), never poisons the batch, and never blocks
on a dead peer.

Every forward runs under a :class:`repro.service.tasks.CancelToken`
tracked by the router's :class:`repro.service.tasks.TaskRegistry` and,
for each call, by the target shard's, which is what makes live drain
observable: ``shard_leave`` cancels the stragglers' tokens and the
router re-routes at its next checkpoint.  Rollups (``health``,
``stats``, ``shards``) aggregate per-shard state, breaker status, task
accounting, and the routing-table epoch.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

import numpy as np

from repro import __version__
from repro.core.packed_np import canonical_np, canonical_variant
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol
from repro.service.front import RequestFront
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import Deadline
from repro.service.sharding.config import ShardingConfig
from repro.service.sharding.shard import LEFT, UP
from repro.service.sharding.supervisor import ShardSupervisor
from repro.service.tasks import (
    CANCELLED,
    DEGRADED,
    DONE,
    CancelToken,
    TaskRegistry,
)
from repro.specs import routing_word


class ShardRouter(RequestFront):
    """Route requests across a supervised shard cluster.

    Args:
        supervisor: The :class:`ShardSupervisor` owning membership (its
            ring is the routing table).
        n_wires: Wire count the cluster serves (requests naming another
            get an ``invalid_spec`` envelope, like a plain daemon).
        config: :class:`ShardingConfig`; defaults to the supervisor's.
        metrics: Optional shared :class:`MetricsRegistry`.
        faults: Optional :class:`repro.service.faults.FaultInjector`
            (the ``kill_shard``/``partition_shard`` kinds fire here).
        spawner: Optional callable ``spawner(shard_id) -> backend``
            used by the ``shard_join`` op; a cluster launcher provides
            one, unit-test routers may not.

    When no shard can answer, the router degrades in-process to
    :data:`repro.service.front.FALLBACK_ENGINE`.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        *,
        n_wires: int = 4,
        config: "ShardingConfig | None" = None,
        metrics: "MetricsRegistry | None" = None,
        faults=None,
        spawner=None,
    ) -> None:
        super().__init__(metrics=metrics, faults=faults)
        self.supervisor = supervisor
        self.ring = supervisor.ring
        self.n_wires = n_wires
        self.config = config or supervisor.config
        self.tasks = TaskRegistry(metrics=self.metrics)
        self._spawner = spawner
        self._next_shard_index = len(supervisor.shards())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardRouter":
        self.supervisor.start()
        if self._started_at is None:
            self._started_at = time.monotonic()
        return self

    def _drain(self, save_cache: bool) -> None:
        """Stop probing, drain shards gracefully."""
        self.tasks.cancel_in_flight("shutdown")
        self.supervisor.close(stop_shards=True)

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return {
            **super().ping(),
            "router": True,
            "shards": len(self.ring),
            "epoch": self.ring.epoch,
        }

    def _cluster_op(self, request: "protocol.Request") -> dict:
        if request.op == "shards":
            return protocol.response(request.id, result=self.shards_status())
        if request.op == "shard_join":
            return self._shard_join(request)
        return self._shard_leave(request)

    def _routing_word(self, request: "protocol.Request", target) -> int:
        """The word whose canonical representative a validated work
        request routes by.

        ``synth``/``size`` route by their permutation's class; a
        ``compile`` spec has not been completed yet, so its word is the
        deterministic base completion -- the forwarded shard recomputes
        the same plan from the same spec, so the key only needs to be
        stable, not the eventual winner.
        """
        if request.op == "compile":
            return routing_word(target, self.n_wires)
        return target.word

    def _run_work(self, request: "protocol.Request", target, deadline) -> dict:
        try:
            word = self._routing_word(request, target)
        except ReproError as exc:
            return self.error_response(request.id, exc)
        canon, _, _ = canonical_variant(word, self.n_wires)
        return self._route_work(request, target, canon, deadline)

    # ------------------------------------------------------------------
    # Single-request routing
    # ------------------------------------------------------------------
    def _route_work(
        self,
        request: "protocol.Request",
        target,
        canon: int,
        deadline: "Deadline | None",
    ) -> dict:
        """Forward one validated work request to the owner of ``canon``
        (walking the preference list); degrade when no shard answers."""
        payload = self._forward_payload(request, deadline)
        token = self.tasks.begin(CancelToken(deadline))
        envelope, reason = self._forward(canon, payload, token, deadline)
        if envelope is not None:
            self.tasks.end(token, DONE)
            self.metrics.counter("responses_forwarded").inc()
            if envelope.get("ok"):
                return protocol.response(
                    request.id, result=envelope.get("result", {})
                )
            return protocol.response(
                request.id, error=envelope.get("error", {})
            )
        if token.cancelled:
            reason = token.reason or reason
        self.tasks.end(token, _failed(token))
        return self.degraded(request, target, reason)

    def _forward(
        self,
        canon: int,
        payload: dict,
        token: CancelToken,
        deadline: "Deadline | None",
    ) -> "tuple[dict | None, str]":
        """Walk the preference list for ``canon``; first answer wins.

        Returns ``(envelope, reason)`` -- envelope None when every
        attempt failed, with ``reason`` saying why.
        """
        tried: set = set()
        reason = "no_live_shard"
        for _ in range(self.config.forward_attempts):
            if token.cancelled and token.reason == "shutdown":
                return None, "shutdown"
            managed = self._pick(canon, tried)
            if managed is None:
                return None, reason
            tried.add(managed.shard_id)
            if self.faults is not None:
                self.faults.kill_shard(managed.backend)
                if self.faults.partition_shard(managed.shard_id):
                    self.supervisor.note_failure(managed.shard_id)
                    self.metrics.counter("reroutes").inc()
                    reason = "shard_unreachable"
                    continue
            if deadline is not None:
                if deadline.expired():
                    return None, "deadline"
            envelope = self._call(
                managed, payload, token, self._forward_wait(deadline)
            )
            if envelope is not None:
                error = envelope.get("error") or {}
                if envelope.get("ok") or error.get("kind") != "shutdown":
                    self.metrics.counter(
                        f"forwards_{managed.shard_id}"
                    ).inc()
                    return envelope, ""
                # The shard is draining (we raced a leave): treat like
                # an unreachable peer and walk on.
            self.metrics.counter("forward_failures").inc()
            self.supervisor.note_failure(managed.shard_id)
            self.metrics.counter("reroutes").inc()
            reason = "shard_unreachable"
        return None, reason

    def _call(
        self, managed, payload: dict, token: CancelToken, timeout: float
    ) -> "dict | None":
        """One call to one shard, with ``token`` tracked by the shard's
        registry while it runs (what a drain waits for and cancels).
        Returns the envelope, or None when the call failed."""
        managed.tasks.begin(token)
        envelope = None
        try:
            envelope = managed.backend.call(payload, timeout=timeout)
        except ServiceError:
            pass
        finally:
            managed.tasks.end(
                token, DONE if envelope is not None else _failed(token)
            )
        return envelope

    def _pick(self, canon: int, tried: set):
        """The best routable shard for ``canon`` not yet tried."""
        for shard_id in self.ring.preference(canon):
            if shard_id in tried:
                continue
            managed = self.supervisor.get(shard_id)
            if managed is not None and managed.routable:
                return managed
        return None

    def _forward_wait(self, deadline: "Deadline | None") -> float:
        timeout = self.config.forward_timeout
        if deadline is not None:
            # Give the shard its full remaining budget plus slack for
            # its own degraded answer to come back.
            timeout = min(timeout, max(0.1, deadline.remaining()) + 2.0)
        return timeout

    def _forward_payload(
        self, request: "protocol.Request", deadline: "Deadline | None"
    ) -> dict:
        payload: dict = {"id": request.id, "op": request.op}
        if request.spec is not None:
            payload["spec"] = request.spec
        if request.word is not None:
            payload["word"] = request.word
        if request.wires is not None:
            payload["wires"] = request.wires
        if request.engine is not None:
            payload["engine"] = request.engine
        if deadline is not None:
            payload["deadline_ms"] = max(1, int(deadline.remaining() * 1000))
        payload.update(request.options)
        return payload

    # ------------------------------------------------------------------
    # Batch scatter/gather
    # ------------------------------------------------------------------
    def _run_batch(self, entries, results) -> None:
        """Scatter the validated entries by owner, one shard-side
        ``batch`` per slice, and gather the envelopes back in request
        order."""
        routed: list = []  # (index, sub_request, target, deadline)
        words: "list[int]" = []
        for entry in entries:
            index, sub, target, _deadline = entry
            try:
                words.append(self._routing_word(sub, target))
            except ReproError as exc:
                results[index] = self.error_response(sub.id, exc)
            else:
                routed.append(entry)
        # One canonicalization call for every routing key of the line.
        keys = canonical_np(np.array(words, dtype=np.uint64), self.n_wires)
        parsed = [  # (index, sub_request, target, deadline, canon)
            (*entry, canon) for entry, canon in zip(routed, keys.tolist())
        ]
        groups: "dict[str | None, list]" = {}
        for item in parsed:
            groups.setdefault(self.ring.owner(item[4]), []).append(item)

        def run_slice(owner, items) -> None:
            try:
                self._forward_slice(owner, items, results)
            except Exception:  # defensive: never poison the batch
                for index, sub, target, _deadline, _canon in items:
                    if results[index] is None:
                        results[index] = self.degraded(
                            sub, target, "router_error"
                        )

        if len(groups) > 1:
            # Scatter: one thread per slice, gathered with a bound that
            # covers a full failover walk.
            budget = self.config.forward_timeout * (
                self.config.forward_attempts + 1
            )
            executor = ThreadPoolExecutor(
                max_workers=len(groups), thread_name_prefix="repro-scatter"
            )
            try:
                futures = [
                    executor.submit(run_slice, owner, items)
                    for owner, items in groups.items()
                ]
                for future in futures:
                    try:
                        future.result(timeout=budget)
                    except _FutureTimeout:  # pragma: no cover - wedged peer
                        pass
            finally:
                executor.shutdown(wait=False)
        elif groups:
            owner, items = next(iter(groups.items()))
            run_slice(owner, items)
        for index, sub, target, _deadline, _canon in parsed:
            if results[index] is None:  # pragma: no cover - wedged peer
                results[index] = self.degraded(sub, target, "router_timeout")

    def _forward_slice(self, owner, items, results) -> None:
        """Forward one owner's slice as a shard-side ``batch``; on any
        failure, re-route the members individually.  An entry already
        past its deadline degrades here, unforwarded, as in
        :meth:`_forward`; the slice waits for its latest deadline."""
        live = []
        for item in items:
            index, sub, target, deadline, _canon = item
            if deadline is not None and deadline.expired():
                results[index] = self.degraded(sub, target, "deadline")
            else:
                live.append(item)
        if not live:
            return
        deadlines = [item[3] for item in live]
        deadline = None if None in deadlines else max(
            deadlines, key=lambda d: d.expires_at
        )
        managed = (
            self.supervisor.get(owner) if owner is not None else None
        )
        token = self.tasks.begin(CancelToken(deadline))
        if managed is not None and self.faults is not None:
            self.faults.kill_shard(managed.backend)
            if self.faults.partition_shard(managed.shard_id):
                self.supervisor.note_failure(managed.shard_id)
                managed = None
        envelope = None
        if managed is not None and managed.routable:
            payload = {
                "id": None,
                "op": "batch",
                "requests": [
                    self._forward_payload(item[1], item[3]) for item in live
                ],
            }
            envelope = self._call(
                managed, payload, token, self._forward_wait(deadline)
            )
            if envelope is None:
                self.metrics.counter("forward_failures").inc()
                self.supervisor.note_failure(managed.shard_id)
        if envelope is not None and envelope.get("ok"):
            answers = (envelope.get("result") or {}).get("results") or []
            if len(answers) == len(live):
                for item, answer in zip(live, answers):
                    results[item[0]] = answer
                self.tasks.end(token, DONE)
                self.metrics.counter("slices_forwarded").inc()
                return
        # The slice failed: dead/partitioned owner, drain race, or a
        # malformed reply.  Each member re-routes through the normal
        # preference walk -- exact answers from the survivors, degraded
        # only as the last resort.  The batch never loses a request.
        self.tasks.end(token, _failed(token))
        self.metrics.counter("slices_rerouted").inc()
        for index, sub, target, entry_deadline, canon in live:
            results[index] = self._route_work(
                sub, target, canon, entry_deadline
            )

    # ------------------------------------------------------------------
    # Shard membership ops
    # ------------------------------------------------------------------
    def _shard_join(self, request: "protocol.Request") -> dict:
        if self._spawner is None:
            return self.error_response(
                request.id,
                ProtocolError(
                    "this router has no shard spawner; shard_join needs a "
                    "cluster-managed router (repro serve --shards N)"
                ),
            )
        shard_id = request.options.get("shard")
        if shard_id is None:
            shard_id = self._fresh_shard_id()
        elif not isinstance(shard_id, str) or not shard_id:
            return self.error_response(
                request.id,
                ProtocolError("shard_join 'shard' must be a non-empty string"),
            )
        try:
            backend = self._spawner(shard_id)
            managed = self.supervisor.add(backend)
        except ServiceError as exc:
            return self.error_response(request.id, exc)
        self.metrics.counter("shard_joins").inc()
        return protocol.response(
            request.id,
            result={
                "shard": shard_id,
                "state": managed.state,
                "epoch": self.ring.epoch,
                "members": list(self.ring.members),
            },
        )

    def _fresh_shard_id(self) -> str:
        while True:
            candidate = f"shard-{self._next_shard_index}"
            self._next_shard_index += 1
            existing = self.supervisor.get(candidate)
            if existing is None or existing.state == LEFT:
                return candidate

    def _shard_leave(self, request: "protocol.Request") -> dict:
        shard_id = request.options.get("shard")
        try:
            summary = self.supervisor.drain(shard_id)
        except ServiceError as exc:
            return self.error_response(request.id, exc)
        self.metrics.counter("shard_leaves").inc()
        summary["members"] = list(self.ring.members)
        return protocol.response(request.id, result=summary)

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Cluster-wide resilience rollup.

        Probes every shard synchronously first, so a crash that
        happened between probe ticks is already reflected in the answer
        (and the probe itself triggers eviction/restart).  ``status``
        is the worst surviving guarantee: ``ok`` only when every
        non-left shard is up and itself reports ``ok``.
        """
        self.supervisor.probe_all()
        snap = self.supervisor.snapshot()
        active = [s for s in snap["shards"] if s["state"] != LEFT]
        if self.stopping:
            status = "stopping"
        elif not snap["members"]:
            status = "degraded"
        elif any(s["state"] != UP for s in active):
            status = "degraded"
        elif any(s["health"] != "ok" for s in active):
            status = "degraded"
        else:
            status = "ok"
        body = {
            "status": status,
            "version": __version__,
            "router": True,
            "epoch": snap["epoch"],
            "members": snap["members"],
            "restarts": snap["restarts"],
            "shards": snap["shards"],
            "tasks": self.tasks.snapshot(),
        }
        if self.faults is not None:
            body["faults"] = self.faults.snapshot()
        return body

    def stats(self) -> dict:
        """Router config/metrics plus a best-effort per-shard stats pull."""
        per_shard: "dict[str, dict | None]" = {}
        for managed in self.supervisor.shards():
            if not managed.routable:
                per_shard[managed.shard_id] = None
                continue
            try:
                envelope = managed.backend.call(
                    {"id": "stats", "op": "stats"},
                    timeout=self.config.probe_timeout,
                )
                per_shard[managed.shard_id] = (
                    envelope.get("result") if envelope.get("ok") else None
                )
            except ServiceError:
                per_shard[managed.shard_id] = None
        return {
            "version": __version__,
            "uptime": self.uptime(),
            "router": {
                "epoch": self.ring.epoch,
                "members": list(self.ring.members),
                "restarts": self.supervisor.total_restarts,
                "n_wires": self.n_wires,
                "forward_attempts": self.config.forward_attempts,
                "forward_timeout": self.config.forward_timeout,
            },
            "metrics": self.metrics.snapshot(),
            "tasks": self.tasks.snapshot(),
            "shards": per_shard,
        }

    def shards_status(self) -> dict:
        """The ``shards`` op payload: membership without fresh probes."""
        snap = self.supervisor.snapshot()
        snap["stopping"] = self.stopping
        return snap


def _failed(token: CancelToken) -> str:
    """The outcome of a forward that got no answer: preempted when its
    token was cancelled, degraded otherwise."""
    return CANCELLED if token.cancelled else DEGRADED


__all__ = ["ShardRouter"]
