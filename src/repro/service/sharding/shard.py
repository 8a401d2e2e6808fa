"""Shard backends and the shard lifecycle states.

A *shard* is one complete synthesis daemon -- its own dispatcher,
result-cache partition, and breaker -- mapping the shared read-only
``.rdb`` store.  The router talks to shards through a small backend
duck type:

* ``shard_id``                   -- stable identity (the ring member).
* ``call(payload, timeout)``     -- one request dict in, one decoded
                                    response envelope out; raises the
                                    :class:`repro.errors.ServiceError`
                                    family on transport failure.
* ``alive()``                    -- process-level liveness.
* ``kill()`` / ``restart()`` / ``stop()`` -- crash, respawn, drain.
* ``describe()``                 -- JSON-ready identity for rollups.

Two implementations: :class:`ProcessShard` (a real ``repro serve``
subprocess reached over TCP -- SIGKILL-able, restartable; what
``repro serve --shards N`` runs) and :class:`InProcessShard` (wraps a
:class:`repro.service.daemon.SynthesisService` in this process -- what
the unit tests and in-process bench ops use, with ``kill`` simulating a
crash by making every call fail like a dead TCP peer).

Lifecycle states (driven by the
:class:`repro.service.sharding.supervisor.ShardSupervisor`)::

    joining --> up <--> suspect --> dead --> joining   (restart)
                 \\
                  +--> draining --> left               (live leave)
"""

from __future__ import annotations

import json
import queue
import re
import subprocess
import threading
import time

from repro.errors import ServiceConnectError, ServiceError
from repro.service.client import ServiceClient

#: Shard lifecycle states.
JOINING = "joining"
UP = "up"
SUSPECT = "suspect"
DEAD = "dead"
DRAINING = "draining"
LEFT = "left"

SHARD_STATES = (JOINING, UP, SUSPECT, DEAD, DRAINING, LEFT)

#: States in which the router may send new work to a shard.  A suspect
#: shard (one missed probe) stays routable -- a transient blip should
#: not re-route its slice -- but transport failures walk the preference
#: list anyway, so nothing waits on it if it is really gone.
ROUTABLE_STATES = frozenset({UP, SUSPECT})

#: The ready line ``repro serve`` prints once its listener is bound.
_READY_RE = re.compile(r"listening on ([0-9.]+):(\d+)")


class InProcessShard:
    """A shard backed by an in-process :class:`SynthesisService`.

    ``call`` round-trips JSON through ``handle_line`` -- the identical
    code path a TCP peer exercises, minus the socket.  ``kill`` marks
    the backend broken so calls raise :class:`ServiceConnectError`
    exactly like a connection to a SIGKILLed process would; ``restart``
    clears the flag (the warm service stands in for a respawn).
    """

    restartable = True

    def __init__(self, shard_id: str, service) -> None:
        self.shard_id = shard_id
        self.service = service
        self.generation = 1
        self._broken = False

    def start(self) -> "InProcessShard":
        self.service.start()
        return self

    def alive(self) -> bool:
        return not self._broken and not self.service.stopped

    def call(self, payload: dict, timeout: "float | None" = None) -> dict:
        if not self.alive():
            raise ServiceConnectError(
                f"shard {self.shard_id} is down (simulated crash)"
            )
        return json.loads(self.service.handle_line(json.dumps(payload)))

    def kill(self) -> None:
        self._broken = True

    def restart(self) -> None:
        self._broken = False
        self.generation += 1

    def stop(self, timeout: float = 10.0) -> None:
        self._broken = True
        self.service.shutdown()

    def describe(self) -> dict:
        return {
            "kind": "in-process",
            "generation": self.generation,
            "alive": self.alive(),
        }


class ProcessShard:
    """A shard backed by a ``repro serve`` subprocess reached over TCP.

    The command must print the daemon's ready line (``... listening on
    HOST:PORT ...``) on stdout; binding ``--port 0`` makes every
    (re)start pick a fresh ephemeral port, so a restarted shard never
    races a half-dead predecessor for its listener.

    Connections are pooled per thread and per *generation*: a restart
    bumps the generation, so every pooled connection to the dead
    process is discarded instead of feeding requests to a ghost.
    """

    restartable = True

    def __init__(
        self,
        shard_id: str,
        command: "list[str]",
        *,
        env: "dict | None" = None,
        ready_timeout: float = 120.0,
        connect_timeout: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self.command = list(command)
        self.env = dict(env) if env is not None else None
        self.ready_timeout = ready_timeout
        self.connect_timeout = connect_timeout
        self.host: "str | None" = None
        self.port: "int | None" = None
        self.generation = 0
        self._proc: "subprocess.Popen | None" = None
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessShard":
        if self.alive():
            return self
        self._proc = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self.env,
            text=True,
        )
        lines: "queue.Queue[str]" = queue.Queue()
        threading.Thread(
            target=self._pump_stdout,
            args=(self._proc.stdout, lines),
            name=f"repro-shard-{self.shard_id}-stdout",
            daemon=True,
        ).start()
        self.host, self.port = self._await_ready(lines)
        self.generation += 1
        return self

    @staticmethod
    def _pump_stdout(stream, lines: "queue.Queue[str]") -> None:
        # Runs for the life of the child: after the ready line is
        # consumed it keeps draining so a chatty daemon can never fill
        # the pipe and wedge itself.
        for line in stream:
            lines.put(line)

    def _await_ready(self, lines: "queue.Queue[str]") -> "tuple[str, int]":
        deadline = time.monotonic() + self.ready_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise ServiceError(
                    f"shard {self.shard_id} did not report ready within "
                    f"{self.ready_timeout}s"
                )
            try:
                line = lines.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                if self._proc.poll() is not None:
                    raise ServiceError(
                        f"shard {self.shard_id} exited with code "
                        f"{self._proc.returncode} before reporting ready"
                    ) from None
                continue
            match = _READY_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def kill(self) -> None:
        """SIGKILL the shard process (the chaos primitive)."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.kill()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass

    def restart(self) -> None:
        """Hard-replace the process: kill what is left, spawn fresh."""
        self.kill()
        self.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful: ask the daemon to drain, then wait; kill stragglers."""
        if self._proc is None:
            return
        if self._proc.poll() is None:
            try:
                client = ServiceClient(
                    self.host, self.port, timeout=self.connect_timeout
                )
                try:
                    client.request_raw({"id": 0, "op": "shutdown"})
                finally:
                    client.close()
            except ServiceError:
                pass
            try:
                self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _client(self) -> ServiceClient:
        entry = getattr(self._local, "entry", None)
        if entry is not None and entry[0] == self.generation:
            return entry[1]
        if entry is not None:
            entry[1].close()
        client = ServiceClient(
            self.host, self.port, connect_timeout=self.connect_timeout
        )
        self._local.entry = (self.generation, client)
        return client

    def call(self, payload: dict, timeout: "float | None" = None) -> dict:
        if self.port is None:
            raise ServiceConnectError(
                f"shard {self.shard_id} was never started"
            )
        client = self._client()
        if timeout is not None:
            client.set_read_timeout(timeout)
        return client.request_raw(payload)

    def describe(self) -> dict:
        alive = self.alive()
        return {
            "kind": "process",
            "pid": self._proc.pid if alive else None,
            "address": (
                f"{self.host}:{self.port}" if self.port is not None else None
            ),
            "generation": self.generation,
            "alive": alive,
        }


__all__ = [
    "DEAD",
    "DRAINING",
    "JOINING",
    "LEFT",
    "ROUTABLE_STATES",
    "SHARD_STATES",
    "SUSPECT",
    "UP",
    "InProcessShard",
    "ProcessShard",
]
