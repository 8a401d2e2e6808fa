"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidPermutationError(ReproError, ValueError):
    """Raised when a value sequence or packed word is not a permutation."""


class InvalidGateError(ReproError, ValueError):
    """Raised when a gate specification is malformed (bad target/controls)."""


class InvalidCircuitError(ReproError, ValueError):
    """Raised when a circuit description cannot be parsed or validated."""

class SynthesisError(ReproError):
    """Base class for synthesis failures."""


class SpecError(ReproError, ValueError):
    """Raised when a function-form spec (truth table, multi-output,
    affine/XOR, LUT -- see :mod:`repro.specs.ir`) is malformed, or when
    a valid spec cannot be embedded into the requested wire count.  The
    service protocol maps it to an ``invalid_spec`` envelope."""


class SizeLimitExceededError(SynthesisError):
    """Raised when a function provably requires more gates than the
    configured search bound ``L`` can reach.

    The search in Algorithm 1 of the paper is exhaustive up to ``L``; when
    it fails, the failure itself is a proof that ``size(f) > L``.  The
    proven lower bound is available as :attr:`lower_bound`.
    """

    def __init__(self, message: str, lower_bound: int) -> None:
        super().__init__(message)
        self.lower_bound = lower_bound


class DatabaseError(ReproError):
    """Raised on database construction, persistence, or lookup problems."""


class ServiceError(ReproError):
    """Base class for errors raised by the synthesis service layer."""


class ProtocolError(ServiceError):
    """Raised when a service request or response line is malformed.

    Carries the machine-readable error ``kind`` used in the wire-format
    error envelope (see :mod:`repro.service.protocol`), and the
    ``request_id`` of the request object that failed validation (None
    when there is none), which its error envelope answers with.
    """

    def __init__(self, message: str, kind: str = "protocol") -> None:
        super().__init__(message)
        self.kind = kind
        self.request_id: object = None


class ServiceShutdownError(ServiceError):
    """Raised when a request is submitted to a service that is draining
    or has already stopped."""


class ServiceConnectError(ServiceError):
    """Raised when a client cannot establish a connection to the daemon
    (refused, unreachable, DNS failure).  Always safe to retry: the
    request never reached the daemon."""


class ServiceTimeoutError(ServiceError):
    """Raised when a client-side socket deadline elapses.

    :attr:`phase` distinguishes the two failure modes: ``"connect"``
    (the TCP handshake never completed -- safe to retry) and ``"read"``
    (the request may have been delivered and even executed -- retry only
    idempotent operations).
    """

    def __init__(self, message: str, phase: str = "read") -> None:
        super().__init__(message)
        self.phase = phase


class WorkCancelledError(ServiceError):
    """Raised at a cooperative cancellation checkpoint when the
    :class:`repro.service.tasks.CancelToken` the work runs under has
    been cancelled (deadline expiry, breaker trip, shutdown, or an
    abandoned request).

    Carries the cancellation ``reason`` so the layer that unwinds can
    tell a blown deadline from a breaker trip.  Lives in the foundation
    layer so the synth/analysis scan loops and the engines can raise or
    catch it without importing the service layer.
    """

    def __init__(self, message: str, reason: str = "cancelled") -> None:
        super().__init__(message)
        self.reason = reason


class UnsatisfiableError(ReproError):
    """Raised by the SAT subsystem when a formula is proven unsatisfiable
    and the caller asked for a model."""


class BenchDataError(ReproError):
    """Raised when a ``BENCH_*.json`` benchmark record is malformed:
    wrong schema tag, missing fields, or statistics of the wrong
    type/sign.  The perf regression gate treats a malformed record as a
    hard failure rather than silently passing."""
