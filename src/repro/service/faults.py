"""Deterministic fault injection for the synthesis service.

Chaos testing only earns its keep when every recovery path can be
driven on purpose.  A :class:`FaultPlan` is a finite list of
:class:`FaultSpec` entries -- no randomness, no clocks -- wired in via
``ServiceConfig.extra["fault_plan"]``; the daemon consults its
:class:`FaultInjector` at fixed injection points ("stages") and each
armed spec fires a bounded number of ``times`` before disarming.

Supported fault kinds and the stage each fires at:

===================  ============  =============================================
kind                 stage         effect
===================  ============  =============================================
``delay``            request       sleep ``delay`` seconds on the connection
                                   thread before enqueueing (burns the
                                   request's ``deadline_ms`` budget)
``drop_connection``  response      the TCP handler closes the connection
                                   instead of writing the response
``corrupt_cache``    cache_save    garble the persisted result-cache file
                                   after a successful save (simulates a torn
                                   write for the next load)
``kill_shard``       shard_kill    the shard router SIGKILLs the target
                                   shard's backend immediately before
                                   forwarding to it (a crash mid-request)
``partition_shard``  shard_partition  the router treats the target shard as
                                   unreachable for one forward (the process
                                   stays healthy -- a network partition)
===================  ============  =============================================

``delay`` specs may carry an ``op`` filter (fire only for that protocol
op); ``kill_shard``/``partition_shard`` may carry a ``shard`` filter
(fire only when routing to that shard id); the other kinds fire at
stages where neither is in scope.  Everything the injector did is
visible in ``health`` via :meth:`FaultInjector.snapshot`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError

#: Known fault kinds and the injection stage each fires at.
FAULT_STAGES = {
    "delay": "request",
    "drop_connection": "response",
    "corrupt_cache": "cache_save",
    "kill_shard": "shard_kill",
    "partition_shard": "shard_partition",
}

#: Kinds that may carry a ``shard`` filter (fire only for that shard id).
_SHARD_KINDS = ("kill_shard", "partition_shard")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what to do, where, and how many times."""

    kind: str
    times: int = 1
    delay: float = 0.0
    op: "str | None" = None
    shard: "str | None" = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_STAGES:
            raise ServiceError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(sorted(FAULT_STAGES))})"
            )
        if self.times < 1:
            raise ServiceError(f"fault times must be >= 1, got {self.times}")
        if self.kind == "delay" and self.delay <= 0:
            raise ServiceError("delay faults need a positive 'delay' seconds")
        if self.op is not None and self.kind != "delay":
            raise ServiceError(
                f"'op' filter is only supported for delay faults, "
                f"not {self.kind!r}"
            )
        if self.shard is not None and self.kind not in _SHARD_KINDS:
            raise ServiceError(
                f"'shard' filter is only supported for "
                f"{' / '.join(_SHARD_KINDS)} faults, not {self.kind!r}"
            )

    @property
    def stage(self) -> str:
        return FAULT_STAGES[self.kind]


class FaultPlan:
    """An ordered, finite list of faults to inject."""

    def __init__(self, specs: "list[FaultSpec]") -> None:
        self.specs = list(specs)

    @classmethod
    def from_dicts(cls, raw) -> "FaultPlan":
        """Validate ``extra["fault_plan"]`` (a list of plain dicts)."""
        if not isinstance(raw, (list, tuple)):
            raise ServiceError(
                "fault_plan must be a list of fault dicts, "
                f"got {type(raw).__name__}"
            )
        specs = []
        allowed = {"kind", "times", "delay", "op", "shard"}
        for entry in raw:
            if not isinstance(entry, dict):
                raise ServiceError(
                    f"fault_plan entries must be dicts, got {entry!r}"
                )
            unknown = sorted(set(entry) - allowed)
            if unknown:
                raise ServiceError(
                    f"unknown fault field(s): {', '.join(unknown)} "
                    f"(valid: {', '.join(sorted(allowed))})"
                )
            specs.append(FaultSpec(**entry))
        return cls(specs)


class FaultInjector:
    """Arms a :class:`FaultPlan` and fires matching specs at each stage.

    Thread-safe: specs are taken (and their remaining count decremented)
    under a lock, so a fault planned ``times: 1`` fires exactly once even
    under concurrent connections.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._lock = threading.Lock()
        self._armed = [[spec, spec.times] for spec in plan.specs]
        self._fired: dict[str, int] = {}

    @classmethod
    def from_extra(cls, extra: "dict | None") -> "FaultInjector | None":
        """The injector for ``ServiceConfig.extra`` (None when no plan)."""
        raw = (extra or {}).get("fault_plan")
        if not raw:
            return None
        return cls(FaultPlan.from_dicts(raw))

    def _take(
        self,
        stage: str,
        op: "str | None" = None,
        shard: "str | None" = None,
    ) -> "FaultSpec | None":
        """First armed spec matching ``stage`` (and filters), consumed."""
        with self._lock:
            for slot in self._armed:
                spec, remaining = slot
                if remaining < 1 or spec.stage != stage:
                    continue
                if spec.op is not None and spec.op != op:
                    continue
                if spec.shard is not None and spec.shard != shard:
                    continue
                slot[1] = remaining - 1
                self._fired[spec.kind] = self._fired.get(spec.kind, 0) + 1
                return spec
        return None

    # ------------------------------------------------------------------
    # Injection points (called by the daemon / router / transports)
    # ------------------------------------------------------------------
    def delay_request(self, op: str) -> float:
        """Stage ``request``: sleep on the connection thread; returns the
        seconds slept (0.0 when no delay fault is armed)."""
        spec = self._take("request", op=op)
        if spec is None:
            return 0.0
        time.sleep(spec.delay)
        return spec.delay

    def should_drop_connection(self) -> bool:
        """Stage ``response``: should the transport drop instead of
        writing the response?"""
        return self._take("response") is not None

    def corrupt_cache_file(self, path) -> bool:
        """Stage ``cache_save``: garble the saved cache file (truncate to
        half and append garbage -- both the JSON parse and the checksum
        will reject it on the next load)."""
        if self._take("cache_save") is None or path is None:
            return False
        try:
            data = path.read_bytes()
        except OSError:
            return False
        path.write_bytes(data[: max(1, len(data) // 2)] + b"\x00garbled")
        return True

    def kill_shard(self, backend) -> None:
        """Stage ``shard_kill``: SIGKILL the shard backend the router is
        about to forward to (crash-mid-request chaos primitive)."""
        if self._take("shard_kill", shard=backend.shard_id) is not None:
            backend.kill()

    def partition_shard(self, shard_id: str) -> bool:
        """Stage ``shard_partition``: should the router treat this shard
        as unreachable for the current forward?"""
        return self._take("shard_partition", shard=shard_id) is not None

    def snapshot(self) -> dict:
        """JSON-ready injector state for ``health``."""
        with self._lock:
            armed = sum(1 for _, remaining in self._armed if remaining > 0)
            return {"armed": armed, "fired": dict(self._fired)}


__all__ = ["FAULT_STAGES", "FaultInjector", "FaultPlan", "FaultSpec"]
