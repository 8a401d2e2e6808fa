"""Newline-delimited-JSON wire protocol for the synthesis daemon.

One request per line, one response per line, in order of completion
(responses carry the request ``id`` so clients may pipeline).  The same
framing is used over TCP and over stdio.

Request::

    {"id": 7, "op": "synth", "spec": "[1,2,3,...,0]", "wires": 4}

``op`` is one of:

* ``synth``     -- circuit for ``spec`` (string spec, value list, or hex
                   packed word in ``word``).
* ``size``      -- gate count only (no circuit in the response).
* ``compile``   -- compile a Boolean function form (``spec`` is a JSON
                   object with a ``kind`` from
                   :data:`repro.specs.SPEC_KINDS`) to a circuit,
                   embedding map included -- see ``docs/COMPILE.md``.
* ``stats``     -- metrics snapshot and service configuration.
* ``health``    -- resilience status: circuit breaker, hard work,
                   cache persistence state.
* ``ping``      -- liveness check.
* ``shutdown``  -- ask the daemon to drain pending requests and exit.
* ``batch``     -- a list of ``synth``/``size``/``compile``
                   sub-requests under
                   ``requests``; the result is ``{"results": [...]}``
                   holding one complete response envelope per
                   sub-request, in order.  A plain daemon answers them
                   sequentially; a sharded router scatter/gathers the
                   slices (see :mod:`repro.service.sharding`).
* ``shards``       -- routing-table + per-shard rollup (router only).
* ``shard_join``   -- add a shard to the ring (router only).
* ``shard_leave``  -- drain a shard and remove it (router only;
                      ``shard`` names which one).

``synth``/``size``/``compile`` requests may carry an ``engine`` field
naming which
synthesis engine answers (see :mod:`repro.engines`); omitted or
``"optimal"`` routes through the daemon's batched optimal pipeline,
other servable engines (``heuristic``, ``depth``, ``linear``,
``portfolio`` and its alias ``race``) are served under one tracked
cancel token each, with their own cache keyspace and metrics.  Unknown or
non-servable engine names get a ``protocol`` error envelope.

Work requests may also carry ``deadline_ms``, a positive
integer budget in milliseconds starting when the daemon accepts the
request (queue time counts).  A request whose hard ``A_i``-scan cannot
fit the remaining budget is answered from the fallback engine with
``"guarantee": "upper_bound"`` instead of blocking -- degraded, never
hung.  See ``docs/RESILIENCE.md``.

``compile`` requests may carry ``samples``, the sampled-regime budget
of the completion search: a positive integer of at most
:data:`MAX_COMPILE_SAMPLES`, so no request sizes more completions than
the exhaustive regime enumerates.

Success response::

    {"id": 7, "ok": true, "result": {"size": 4, "circuit": "...", ...}}

Error envelope (never a raw traceback)::

    {"id": 7, "ok": false,
     "error": {"kind": "size_limit", "message": "...", "lower_bound": 10}}

``kind`` is machine-readable: ``protocol`` (malformed request),
``invalid_spec``, ``size_limit`` (carries ``lower_bound``), ``shutdown``
(daemon is draining), or ``internal``.

Packed words travel as hex strings (``"0xfa..."``): 4-wire words use all
64 bits and JSON numbers above 2**53 would silently lose precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceShutdownError,
    SizeLimitExceededError,
)

#: Ops understood by the daemon.
OPS = (
    "synth",
    "size",
    "compile",
    "stats",
    "health",
    "ping",
    "shutdown",
    "batch",
    "shards",
    "shard_join",
    "shard_leave",
)

#: Ops that carry synthesis work (batchable, routable by canonical rep).
WORK_OPS = ("synth", "size", "compile")

#: Maximum accepted line length (guards the reader against garbage input).
MAX_LINE_BYTES = 1 << 20

#: Maximum sub-requests accepted in one ``batch`` op.
MAX_BATCH_REQUESTS = 1024

#: Largest ``samples`` a ``compile`` request may ask for: the default
#: exhaustive limit (``repro.synth.embedding.EXHAUSTIVE_LIMIT``, not
#: imported here so that a daemon serving no compile never loads the
#: completion search).  A cancel checkpoint runs before the completion
#: draw, but the draw itself runs between two checkpoints, so the
#: budget must be bounded up front.
MAX_COMPILE_SAMPLES = 5040


@dataclass(frozen=True)
class Request:
    """A decoded protocol request."""

    op: str
    id: object = None
    spec: object = None
    word: "str | None" = None
    wires: "int | None" = None
    engine: "str | None" = None
    deadline_ms: "int | None" = None
    options: dict = field(default_factory=dict)

    def spec_value(self):
        """The specification payload: ``spec`` or the hex ``word``."""
        if self.word is not None:
            return int(self.word, 16)
        return self.spec


def word_to_hex(word: int) -> str:
    """Render a packed word for the wire."""
    return f"{word:#x}"


def decode_request(line: "str | bytes") -> Request:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds 1 MiB")
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # Deep nesting fits well under the line cap but exhausts the
        # parser's stack; it must cost the client a line, not the server.
        raise ProtocolError("request is nested too deeply to decode") from exc
    return decode_payload(payload)


def decode_payload(payload) -> Request:
    """Validate an already-parsed request object (used directly for the
    sub-requests of a ``batch`` op).

    A :class:`ProtocolError` raised for an object carries the object's
    ``id`` as its ``request_id``, so the refusal answers with the id of
    the request it refuses.
    """
    try:
        return _validated(payload)
    except ProtocolError as exc:
        if isinstance(payload, dict):
            exc.request_id = payload.get("id")
        raise


def _validated(payload) -> Request:
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    wires = payload.get("wires")
    if wires is not None and (
        not isinstance(wires, int) or not 1 <= wires <= 4
    ):
        raise ProtocolError(f"wires must be an integer in 1..4, got {wires!r}")
    word = payload.get("word")
    if word is not None:
        if not isinstance(word, str):
            raise ProtocolError("word must be a hex string like '0x1234'")
        try:
            int(word, 16)
        except ValueError as exc:
            raise ProtocolError(f"word is not valid hex: {word!r}") from exc
    if op in ("synth", "size") and payload.get("spec") is None and word is None:
        raise ProtocolError(f"op {op!r} requires a 'spec' or 'word' field")
    if op == "compile" and not isinstance(payload.get("spec"), dict):
        raise ProtocolError(
            "op 'compile' requires 'spec' to be a JSON object with a "
            "'kind' field (see repro.specs)"
        )
    engine = payload.get("engine")
    if engine is not None and not isinstance(engine, str):
        raise ProtocolError(f"engine must be a string, got {engine!r}")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, int)
        or deadline_ms < 1
    ):
        raise ProtocolError(
            f"deadline_ms must be a positive integer, got {deadline_ms!r}"
        )
    samples = payload.get("samples")
    if op == "compile" and samples is not None and (
        isinstance(samples, bool)
        or not isinstance(samples, int)
        or not 1 <= samples <= MAX_COMPILE_SAMPLES
    ):
        raise ProtocolError(
            "samples must be a positive integer of at most "
            f"{MAX_COMPILE_SAMPLES}, got {samples!r}"
        )
    if op == "batch":
        requests = payload.get("requests")
        if not isinstance(requests, list) or not requests:
            raise ProtocolError(
                "op 'batch' requires a non-empty 'requests' list"
            )
        if len(requests) > MAX_BATCH_REQUESTS:
            raise ProtocolError(
                f"batch carries {len(requests)} sub-requests; "
                f"the limit is {MAX_BATCH_REQUESTS}"
            )
        for entry in requests:
            if not isinstance(entry, dict):
                raise ProtocolError("batch sub-requests must be JSON objects")
            if entry.get("op") not in WORK_OPS:
                raise ProtocolError(
                    "batch sub-requests must set 'op' to one of "
                    f"{', '.join(WORK_OPS)}, got {entry.get('op')!r}"
                )
    if op == "shard_leave":
        shard = payload.get("shard")
        if not isinstance(shard, str) or not shard:
            raise ProtocolError(
                "op 'shard_leave' requires a 'shard' string naming the "
                "shard to drain"
            )
    known = {"id", "op", "spec", "word", "wires", "engine", "deadline_ms"}
    options = {k: v for k, v in payload.items() if k not in known}
    return Request(
        op=op,
        id=payload.get("id"),
        spec=payload.get("spec"),
        word=word,
        wires=wires,
        engine=engine,
        deadline_ms=deadline_ms,
        options=options,
    )


def response(
    request_id, result: "dict | None" = None, error: "dict | None" = None
) -> dict:
    """One response envelope: ``result`` on success, else ``error``."""
    if (result is None) == (error is None):
        raise ValueError("exactly one of result/error must be given")
    if error is not None:
        return {"id": request_id, "ok": False, "error": error}
    return {"id": request_id, "ok": True, "result": result}


def encode_response(envelope: dict) -> str:
    """Render one response envelope as a line (without the trailing
    newline)."""
    return json.dumps(envelope, separators=(",", ":"), sort_keys=True)


def decode_response(line: "str | bytes") -> dict:
    """Parse one response line into its dict form (client side)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("response must be a JSON object with 'ok'")
    return payload


def error_envelope(exc: BaseException) -> dict:
    """Map an exception to the wire error envelope."""
    if isinstance(exc, SizeLimitExceededError):
        return {
            "kind": "size_limit",
            "message": str(exc),
            "lower_bound": exc.lower_bound,
        }
    if isinstance(exc, ProtocolError):
        return {"kind": exc.kind, "message": str(exc)}
    if isinstance(exc, ServiceShutdownError):
        return {"kind": "shutdown", "message": str(exc)}
    if isinstance(exc, ReproError):
        return {"kind": "invalid_spec", "message": str(exc)}
    return {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}


def raise_for_error(envelope: dict) -> None:
    """Client-side: re-raise the library exception an envelope encodes."""
    kind = envelope.get("kind", "internal")
    message = envelope.get("message", "service error")
    if kind == "size_limit":
        raise SizeLimitExceededError(
            message, lower_bound=int(envelope.get("lower_bound", 0))
        )
    if kind == "shutdown":
        raise ServiceShutdownError(message)
    raise ProtocolError(message, kind=kind)


__all__ = [
    "OPS",
    "WORK_OPS",
    "MAX_LINE_BYTES",
    "MAX_BATCH_REQUESTS",
    "MAX_COMPILE_SAMPLES",
    "Request",
    "decode_payload",
    "decode_request",
    "decode_response",
    "encode_response",
    "error_envelope",
    "raise_for_error",
    "response",
    "word_to_hex",
]
