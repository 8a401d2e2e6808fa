"""Blocking JSONL client for the synthesis daemon.

One socket, one request per call; thread-unsafe by design (each client
thread opens its own connection, which is also what exercises the
daemon's batch coalescing).  Errors come back as the library exceptions
they encode -- a ``size_limit`` envelope raises
:class:`SizeLimitExceededError` with the proven bound, exactly like the
in-process API.

Failure handling is typed and retry-aware:

* Connect failures raise :class:`ServiceConnectError` (refused /
  unreachable) or :class:`ServiceTimeoutError` with ``phase="connect"``
  -- the request never reached the daemon, so retrying is always safe.
* Read failures raise :class:`ServiceTimeoutError` with ``phase="read"``
  or :class:`ServiceError` -- the daemon may have executed the request,
  so only *idempotent* ops are retried (see :data:`SAFE_RETRY_OPS`;
  ``synth``/``size`` answers are pure functions of the canonical
  representative, so re-asking is harmless; ``shutdown`` is not re-sent).
* Pass a :class:`repro.service.resilience.RetryPolicy` to enable
  automatic reconnect-and-retry with exponential backoff and
  deterministic (seeded) jitter.
"""

from __future__ import annotations

import json
import random
import socket
import time

from repro.errors import (
    ProtocolError,
    ServiceConnectError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service import protocol
from repro.service.resilience import RetryPolicy

#: Ops whose effects are idempotent, hence safe to retry after a *read*
#: failure (the daemon may have already executed the first attempt).
#: ``batch`` qualifies because its sub-requests are restricted to the
#: idempotent work ops; ``shards`` is a read-only rollup.  Membership
#: ops (``shard_join``/``shard_leave``) and ``shutdown`` are not here:
#: re-sending them is not provably safe.
SAFE_RETRY_OPS = (
    "synth",
    "size",
    "compile",
    "ping",
    "stats",
    "health",
    "batch",
    "shards",
)


class ServiceClient:
    """Talk to a running daemon over TCP.

    Usage::

        with ServiceClient("127.0.0.1", 7878) as client:
            result = client.synth("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
            print(result["size"], result["circuit"])

    ``connect_timeout`` bounds the TCP handshake (fail-fast default:
    5 s), ``read_timeout`` bounds each response wait (default: 60 s, the
    worst-case hard scan is long).  The legacy single ``timeout``
    argument sets both.  ``retry`` enables automatic retries with
    backoff; ``retry_seed`` makes the jitter schedule reproducible.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7878,
        timeout: "float | None" = None,
        *,
        connect_timeout: "float | None" = None,
        read_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        retry_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = (
            connect_timeout
            if connect_timeout is not None
            else (timeout if timeout is not None else 5.0)
        )
        self.read_timeout = (
            read_timeout
            if read_timeout is not None
            else (timeout if timeout is not None else 60.0)
        )
        self.retry = retry
        self._rng = random.Random(retry_seed)
        self._sock: "socket.socket | None" = None
        self._file = None
        self._next_id = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            except socket.timeout as exc:
                raise ServiceTimeoutError(
                    f"connect to daemon at {self.host}:{self.port} timed "
                    f"out after {self.connect_timeout}s",
                    phase="connect",
                ) from exc
            except OSError as exc:
                raise ServiceConnectError(
                    f"cannot connect to daemon at {self.host}:{self.port}: {exc}"
                ) from exc
            # Past the handshake every wait is a *read* wait.
            self._sock.settimeout(self.read_timeout)
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def set_read_timeout(self, seconds: float) -> None:
        """Change the per-response wait, applying it to a live socket
        too (the shard router adjusts this per forwarded request)."""
        self.read_timeout = seconds
        if self._sock is not None:
            self._sock.settimeout(seconds)

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Raw request plumbing
    # ------------------------------------------------------------------
    def request_raw(self, payload: dict) -> dict:
        """Send one already-shaped request dict, return the envelope."""
        self.connect()
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        try:
            self._file.write(line.encode("utf-8"))
            self._file.flush()
            response = self._file.readline()
        except socket.timeout as exc:
            self.close()
            raise ServiceTimeoutError(
                f"daemon did not respond within {self.read_timeout}s",
                phase="read",
            ) from exc
        except OSError as exc:
            self.close()
            raise ServiceError(f"connection to daemon lost: {exc}") from exc
        if not response:
            self.close()
            raise ServiceError("daemon closed the connection")
        if not response.endswith(b"\n"):
            # The peer died mid-write: a partial line would raise
            # ProtocolError from the decoder, which is *not* retriable.
            # Surface it as the transport failure it really is, so the
            # retry policy can re-ask for idempotent ops.
            self.close()
            raise ServiceError(
                "connection dropped mid-response (truncated line)"
            )
        return protocol.decode_response(response)

    def request(self, op: str, **fields) -> dict:
        """Send a request, raise on error envelope, return the result.

        With a :class:`RetryPolicy` configured, failed attempts are
        retried (after a backoff sleep) when retrying is provably safe:
        connect-phase failures always are -- the daemon never saw the
        request -- read-phase failures only for :data:`SAFE_RETRY_OPS`.
        The request keeps its ``id`` across attempts.
        """
        self._next_id += 1
        payload = {"id": self._next_id, "op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        attempts = self.retry.retries if self.retry is not None else 0
        attempt = 0
        while True:
            try:
                envelope = self.request_raw(payload)
                break
            except (ServiceConnectError, ServiceTimeoutError, ServiceError) as exc:
                if attempt >= attempts or not self._retriable(op, exc):
                    raise
                time.sleep(self.retry.delay(attempt, self._rng))
                attempt += 1
        if envelope.get("id") != self._next_id:
            raise ProtocolError(
                f"response id {envelope.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        if not envelope.get("ok"):
            protocol.raise_for_error(envelope.get("error", {}))
        return envelope.get("result", {})

    @staticmethod
    def _retriable(op: str, exc: ServiceError) -> bool:
        """Is retrying this failure safe for this op?"""
        if isinstance(exc, ServiceConnectError):
            return True
        if isinstance(exc, ServiceTimeoutError) and exc.phase == "connect":
            return True
        # Read-phase failure: the daemon may have executed the request.
        return op in SAFE_RETRY_OPS

    # ------------------------------------------------------------------
    # Typed helpers
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def synth(
        self,
        spec,
        wires: "int | None" = None,
        engine: "str | None" = None,
        deadline_ms: "int | None" = None,
    ) -> dict:
        """Circuit for a spec; raises SizeLimitExceededError when the
        function is out of the serving engine's reach.  ``engine`` picks
        which daemon-side engine answers (default: the optimal one);
        ``deadline_ms`` caps server-side latency -- a hard query that
        cannot fit the budget comes back with ``"guarantee":
        "upper_bound"`` instead of blocking."""
        return self.request(
            "synth",
            engine=engine,
            deadline_ms=deadline_ms,
            **self._spec_fields(spec, wires),
        )

    def size(
        self,
        spec,
        wires: "int | None" = None,
        engine: "str | None" = None,
        deadline_ms: "int | None" = None,
    ) -> int:
        """Gate count for a spec (optimal unless ``engine`` says else)."""
        return int(
            self.request(
                "size",
                engine=engine,
                deadline_ms=deadline_ms,
                **self._spec_fields(spec, wires),
            )["size"]
        )

    def compile(
        self,
        spec,
        wires: "int | None" = None,
        engine: "str | None" = None,
        deadline_ms: "int | None" = None,
        samples: "int | None" = None,
    ) -> dict:
        """Compile a Boolean function form to a circuit.

        ``spec`` is either a :mod:`repro.specs` form (anything with a
        ``to_wire`` method) or its wire dict (``{"kind": ..., ...}``).
        The result carries the circuit, the ``guarantee``
        (``optimal``/``upper_bound``), and the ``embedding`` map in the
        caller's terms -- see ``docs/COMPILE.md``.  ``samples`` bounds
        the sampled completion search; idempotent, hence retry-safe.
        """
        if hasattr(spec, "to_wire"):
            spec = spec.to_wire()
        return self.request(
            "compile",
            spec=spec,
            wires=wires,
            engine=engine,
            deadline_ms=deadline_ms,
            samples=samples,
        )

    def stats(self) -> dict:
        return self.request("stats")

    def health(self) -> dict:
        """The daemon's resilience status (breaker, tasks, cache)."""
        return self.request("health")

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit."""
        return self.request("shutdown")

    def batch(
        self, requests, deadline_ms: "int | None" = None
    ) -> "list[dict]":
        """Submit many ``synth``/``size``/``compile`` sub-requests in
        one round trip.

        ``requests`` is a list of request dicts (each needs at least
        ``op`` plus a spec field).  Returns the per-request envelopes in
        order -- each is ``{"id", "ok", "result"|"error"}``; a failed
        sub-request never poisons its siblings.
        """
        result = self.request(
            "batch", requests=list(requests), deadline_ms=deadline_ms
        )
        return result.get("results", [])

    def shards(self) -> dict:
        """Cluster membership rollup (routers only)."""
        return self.request("shards")

    def shard_join(self, shard: "str | None" = None) -> dict:
        """Ask a router to spawn and join a new shard."""
        return self.request("shard_join", shard=shard)

    def shard_leave(self, shard: str) -> dict:
        """Ask a router to drain a shard out of the cluster."""
        return self.request("shard_leave", shard=shard)

    @staticmethod
    def _spec_fields(spec, wires: "int | None") -> dict:
        if isinstance(spec, int):
            return {"word": protocol.word_to_hex(spec), "wires": wires}
        if hasattr(spec, "word") and hasattr(spec, "n_wires"):  # Permutation
            return {
                "word": protocol.word_to_hex(spec.word),
                "wires": spec.n_wires,
            }
        if not isinstance(spec, str):
            spec = list(spec)
        return {"spec": spec, "wires": wires}


__all__ = ["SAFE_RETRY_OPS", "ServiceClient"]
