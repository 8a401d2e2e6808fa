"""Tunables for the sharded daemon (router + shard cluster).

A frozen dataclass that validates its values at construction -- a bad
knob must fail loudly at startup, not silently misroute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceError


@dataclass(frozen=True)
class ShardingConfig:
    """Knobs for routing, health probing, failover, and draining.

    Attributes:
        probe_interval: Seconds between supervisor health-probe cycles.
        probe_timeout: Wire timeout for one ``health`` probe.
        suspect_after: Consecutive missed probes before ``up`` ->
            ``suspect`` (the shard stays routable but is watched).
        dead_after: Consecutive missed probes before the shard is
            declared ``dead``, evicted from the ring, and (budget
            permitting) restarted.
        max_restarts: Per-shard restart budget; beyond it the shard
            stays dead and its keyspace is served by the survivors.
        drain_timeout: Seconds a ``drain`` waits for in-flight forwards
            to finish before cancelling them (reason ``shard_leave``).
        forward_timeout: Read timeout for one forwarded request.
        forward_attempts: How many preference-ranked shards the router
            tries before degrading to a local upper-bound answer.
    """

    probe_interval: float = 1.0
    probe_timeout: float = 5.0
    suspect_after: int = 1
    dead_after: int = 3
    max_restarts: int = 2
    drain_timeout: float = 30.0
    forward_timeout: float = 120.0
    forward_attempts: int = 3

    def __post_init__(self) -> None:
        for name in ("probe_interval", "probe_timeout", "drain_timeout",
                     "forward_timeout"):
            if getattr(self, name) <= 0:
                raise ServiceError(f"sharding {name} must be positive")
        for name in ("suspect_after", "dead_after", "forward_attempts"):
            if getattr(self, name) < 1:
                raise ServiceError(f"sharding {name} must be >= 1")
        if self.max_restarts < 0:
            raise ServiceError("sharding max_restarts must be >= 0")


__all__ = ["ShardingConfig"]
