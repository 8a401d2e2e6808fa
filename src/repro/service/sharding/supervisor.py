"""Shard supervision: health probes, failover, restarts, drain/leave.

The :class:`ShardSupervisor` owns the cluster's membership truth.  It
probes every shard over the existing ``health`` op, walks each through
the lifecycle state machine (``joining -> up <-> suspect -> dead``,
plus ``draining -> left`` for live leaves), evicts dead shards from the
hash ring (bumping the routing epoch, which re-routes their keyspace to
the survivors), and restarts crashed backends up to
``ShardingConfig.max_restarts`` times.

Fault isolation is the contract: one dead, wedged, or breaker-open
shard changes *its* slice's latency/affinity, never the cluster's
ability to answer.  Because every shard maps the complete ``.rdb``
store, re-routing during the outage yields exact answers -- the
degraded (upper-bound) path only runs when no live shard remains.

In-flight accounting is one :class:`repro.service.tasks.TaskRegistry`
per :class:`ManagedShard`: the router tracks each forward's
:class:`repro.service.tasks.CancelToken` there for the length of the
call; a drain waits (bounded) for the registry to go idle and cancels
stragglers with reason ``shard_leave``, which the router observes at
its next checkpoint and re-routes.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import ServiceError
from repro.service.sharding.config import ShardingConfig
from repro.service.sharding.ring import HashRing
from repro.service.sharding.shard import (
    DEAD,
    DRAINING,
    JOINING,
    LEFT,
    ROUTABLE_STATES,
    SUSPECT,
    UP,
)
from repro.service.tasks import TaskRegistry


class ManagedShard:
    """Supervisor-side record of one shard: backend + lifecycle state."""

    def __init__(self, backend, clock=time.monotonic) -> None:
        self.backend = backend
        self.shard_id: str = backend.shard_id
        self.state: str = JOINING
        self.misses = 0
        self.probes = 0
        self.restarts = 0
        self.last_health: "dict | None" = None
        self._clock = clock
        self._lock = threading.Lock()
        #: The router's forwards to this shard while their calls run.
        self.tasks = TaskRegistry()
        self._events: deque = deque(maxlen=32)

    @property
    def routable(self) -> bool:
        return self.state in ROUTABLE_STATES

    def record(self, event: str, **info) -> None:
        with self._lock:
            self._events.append(
                {"event": event, "at": round(self._clock(), 3), **info}
            )

    def snapshot(self) -> dict:
        """JSON-ready per-shard rollup for ``health``/``shards``."""
        health = self.last_health or {}
        with self._lock:
            events = list(self._events)
        return {
            "shard": self.shard_id,
            "state": self.state,
            "misses": self.misses,
            "probes": self.probes,
            "restarts": self.restarts,
            "in_flight": self.tasks.in_flight,
            "health": health.get("status"),
            "breaker": (health.get("breaker") or {}).get("state"),
            "tasks": health.get("tasks"),
            "backend": self.backend.describe(),
            "events": events,
        }


class ShardSupervisor:
    """Health-checks shards, evicts and restarts the dead, drains leavers.

    Probing runs on a background thread started by :meth:`start`;
    :meth:`probe_all` is also callable synchronously (the router does
    this when answering ``health``, so a crash that happened between
    ticks is visible to the caller asking right now, and the chaos
    tests drive the state machine deterministically without clocks).
    """

    def __init__(
        self,
        ring: "HashRing | None" = None,
        config: "ShardingConfig | None" = None,
        *,
        clock=time.monotonic,
    ) -> None:
        self.ring = ring if ring is not None else HashRing()
        self.config = config or ShardingConfig()
        self._clock = clock
        self._shards: "dict[str, ManagedShard]" = {}
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._stopped = False
        self.total_restarts = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, backend, *, probe: bool = True) -> ManagedShard:
        """Register a shard (state ``joining``); an immediate successful
        probe promotes it to ``up`` and into the ring."""
        managed = ManagedShard(backend, clock=self._clock)
        with self._lock:
            existing = self._shards.get(managed.shard_id)
            if existing is not None and existing.state != LEFT:
                raise ServiceError(
                    f"shard id {managed.shard_id!r} is already registered"
                )
            self._shards[managed.shard_id] = managed
        managed.record("join")
        if probe:
            self.probe(managed)
        return managed

    def get(self, shard_id: str) -> "ManagedShard | None":
        with self._lock:
            return self._shards.get(shard_id)

    def shards(self) -> "list[ManagedShard]":
        with self._lock:
            return list(self._shards.values())

    # ------------------------------------------------------------------
    # Probing and the state machine
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        with self._lock:
            if self._thread is not None:
                return self
            self._stopped = False
            self._thread = threading.Thread(
                target=self._probe_loop,
                name="repro-shard-supervisor",
                daemon=True,
            )
            self._thread.start()
        return self

    def _probe_loop(self) -> None:
        while True:
            self._wake.wait(timeout=self.config.probe_interval)
            self._wake.clear()
            if self._stopped:
                return
            self.probe_all()

    def probe_all(self) -> None:
        """One synchronous probe cycle over every supervisable shard."""
        for managed in self.shards():
            if managed.state in (DRAINING, LEFT):
                continue
            self.probe(managed)

    def probe(self, managed: ManagedShard) -> bool:
        """One ``health`` probe; True when the shard answered ok."""
        managed.probes += 1
        envelope = None
        if managed.backend.alive():
            try:
                envelope = managed.backend.call(
                    {"id": "probe", "op": "health"},
                    timeout=self.config.probe_timeout,
                )
            except ServiceError:
                envelope = None
        if envelope is not None and envelope.get("ok"):
            managed.last_health = envelope.get("result", {})
            managed.misses = 0
            if managed.state in (JOINING, SUSPECT, DEAD):
                self._mark_up(managed)
            return True
        self._note_miss(managed)
        return False

    def note_failure(self, shard_id: str) -> None:
        """Router-reported transport failure: counts like a missed probe
        and wakes the probe loop for fast confirmation."""
        managed = self.get(shard_id)
        if managed is None or managed.state in (DRAINING, LEFT):
            return
        self._note_miss(managed)
        self._wake.set()

    def _note_miss(self, managed: ManagedShard) -> None:
        managed.misses += 1
        gone = (
            managed.misses >= self.config.dead_after
            or not managed.backend.alive()
        )
        if gone:
            if managed.state != DEAD:
                self._mark_dead(managed)
            elif (
                managed.backend.restartable
                and managed.restarts < self.config.max_restarts
            ):
                # Still dead on a later probe with restart budget left
                # (e.g. the previous restart attempt failed).
                self.restart(managed)
        elif (
            managed.state == UP
            and managed.misses >= self.config.suspect_after
        ):
            managed.state = SUSPECT
            managed.record("suspect", misses=managed.misses)

    def _mark_up(self, managed: ManagedShard) -> None:
        previous = managed.state
        managed.state = UP
        self.ring.add(managed.shard_id)
        managed.record("up", previous=previous, epoch=self.ring.epoch)

    def _mark_dead(self, managed: ManagedShard) -> None:
        managed.state = DEAD
        self.ring.remove(managed.shard_id)
        managed.record("dead", misses=managed.misses, epoch=self.ring.epoch)
        # Its keyspace now re-routes via the ring (exact answers -- every
        # shard maps the full store); forwards still waiting on the dead
        # peer are preempted rather than left to burn their timeout.
        managed.tasks.cancel_in_flight("shard_dead")
        if (
            managed.backend.restartable
            and managed.restarts < self.config.max_restarts
        ):
            self.restart(managed)

    def restart(self, managed: ManagedShard) -> bool:
        """Respawn a dead shard's backend and re-probe it."""
        managed.restarts += 1
        with self._lock:
            self.total_restarts += 1
        try:
            managed.backend.restart()
        except ServiceError as exc:
            managed.record("restart_failed", error=str(exc))
            return False
        managed.state = JOINING
        managed.misses = 0
        managed.record(
            "restarted",
            generation=getattr(managed.backend, "generation", None),
        )
        return self.probe(managed)

    # ------------------------------------------------------------------
    # Live leave
    # ------------------------------------------------------------------
    def drain(self, shard_id: str, *, timeout: "float | None" = None) -> dict:
        """Remove a shard from routing, let in-flight work finish, stop it.

        New requests stop routing to the shard the moment it leaves the
        ring (epoch bump).  In-flight forwards get ``drain_timeout``
        seconds to complete; stragglers are cancelled through their
        :mod:`repro.service.tasks` tokens with reason ``shard_leave``,
        which the router observes and re-routes.  The backend is then
        shut down gracefully and the shard parks in ``left``.
        """
        managed = self.get(shard_id)
        if managed is None:
            raise ServiceError(f"unknown shard {shard_id!r}")
        if managed.state == LEFT:
            return {
                "shard": shard_id,
                "drained": True,
                "cancelled": 0,
                "epoch": self.ring.epoch,
            }
        budget = timeout if timeout is not None else self.config.drain_timeout
        managed.state = DRAINING
        self.ring.remove(shard_id)
        managed.record("draining", epoch=self.ring.epoch)
        completed = managed.tasks.wait_idle(budget)
        cancelled = 0
        if not completed:
            cancelled = managed.tasks.cancel_in_flight("shard_leave")
            # Give the cancelled forwards a moment to unwind before the
            # backend goes away under them.
            managed.tasks.wait_idle(1.0)
        try:
            managed.backend.stop()
        except ServiceError:  # pragma: no cover - peer died mid-drain
            pass
        managed.state = LEFT
        managed.record("left", cancelled=cancelled, epoch=self.ring.epoch)
        return {
            "shard": shard_id,
            "drained": completed,
            "cancelled": cancelled,
            "epoch": self.ring.epoch,
        }

    # ------------------------------------------------------------------
    # Rollup and shutdown
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready cluster membership state."""
        return {
            "epoch": self.ring.epoch,
            "members": list(self.ring.members),
            "restarts": self.total_restarts,
            "shards": [managed.snapshot() for managed in self.shards()],
        }

    def close(self, *, stop_shards: bool = True) -> None:
        """Stop the probe thread and (by default) every shard backend."""
        with self._lock:
            self._stopped = True
            thread, self._thread = self._thread, None
        self._wake.set()
        if thread is not None:
            thread.join(timeout=5.0)
        if not stop_shards:
            return
        for managed in self.shards():
            if managed.state == LEFT:
                continue
            try:
                managed.backend.stop()
            except ServiceError:  # pragma: no cover - already gone
                pass
            managed.state = LEFT
            managed.record("left", cancelled=0, epoch=self.ring.epoch)


__all__ = ["ManagedShard", "ShardSupervisor"]
