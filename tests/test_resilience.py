"""Unit tests for the service resilience layer: deadlines, the circuit
breaker, retry policy, fault plans, crash-safe cache persistence, and
the typed client timeout errors.

Everything here runs with fake clocks and throwaway sockets -- no synthesis database is needed.  End-to-end recovery against
a real daemon lives in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import (
    ServiceConnectError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    ResultCache,
    RetryPolicy,
    ServiceClient,
)
from repro.service.client import SAFE_RETRY_OPS


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_defaults_from_empty_extra(self):
        config = ResilienceConfig.from_extra(None)
        assert config.breaker_failure_threshold == 5

    def test_overrides(self):
        config = ResilienceConfig.from_extra(
            {"resilience": {"hard_timeout": 1.5, "breaker_cooldown": 0.5}}
        )
        assert config.hard_timeout == 1.5
        assert config.breaker_cooldown == 0.5

    def test_unknown_key_rejected(self):
        # The fallback engine is a constant, not a knob.
        for key in ("hard_timeot", "fallback_engine"):
            with pytest.raises(ServiceError, match="unknown resilience option"):
                ResilienceConfig.from_extra({"resilience": {key: 1}})


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_counts_down_with_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.expired()

    def test_from_ms_none_means_no_deadline(self):
        assert Deadline.from_ms(None) is None

    def test_from_ms_converts(self):
        clock = FakeClock()
        deadline = Deadline.from_ms(250, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0,
                                 clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0,
                                 clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0,
                                 clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: open immediately
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_deadline_misses_count_toward_tripping(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0,
                                 clock=FakeClock())
        breaker.record_deadline_miss()
        breaker.record_deadline_miss()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["deadline_misses"] == 2

    def test_snapshot_shape(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0,
                                 clock=clock)
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["trips"] == 0 and snap["open_for"] is None
        breaker.record_failure()
        clock.advance(2.0)
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["trips"] == 1
        assert snap["open_for"] == pytest.approx(2.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.35, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.35)  # capped
        assert policy.delay(9) == pytest.approx(0.35)

    def test_jitter_bounded_and_deterministic(self):
        import random

        policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                             backoff_max=1.0, jitter=0.25)
        rng = random.Random(42)
        delays = [policy.delay(0, rng) for _ in range(50)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert len(set(delays)) > 1  # jitter actually varies
        # Same seed, same schedule.
        rng2 = random.Random(42)
        assert delays == [policy.delay(0, rng2) for _ in range(50)]

    def test_no_jitter_without_rng(self):
        policy = RetryPolicy(backoff_base=0.5, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_from_dicts_roundtrip(self):
        plan = FaultPlan.from_dicts(
            [{"kind": "drop_connection"}, {"kind": "delay", "delay": 0.1}]
        )
        assert [s.kind for s in plan.specs] == ["drop_connection", "delay"]

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"kind": "explode"}, "unknown fault kind"),
            ({"kind": "delay"}, "positive 'delay'"),
            ({"kind": "delay", "delay": 0.1, "times": 0}, "times"),
            ({"kind": "drop_connection", "op": "synth"}, "only supported"),
            ({"kind": "delay", "delay": 0.1, "zap": 1}, "unknown fault field"),
        ],
    )
    def test_validation(self, raw, match):
        with pytest.raises(ServiceError, match=match):
            FaultPlan.from_dicts([raw])

    def test_not_a_list(self):
        with pytest.raises(ServiceError, match="must be a list"):
            FaultPlan.from_dicts({"kind": "delay"})


class TestFaultInjector:
    def test_from_extra_none_without_plan(self):
        assert FaultInjector.from_extra(None) is None
        assert FaultInjector.from_extra({}) is None

    def test_fires_bounded_times(self):
        injector = FaultInjector(
            FaultPlan([FaultSpec(kind="drop_connection", times=2)])
        )
        assert injector.should_drop_connection()
        assert injector.should_drop_connection()
        assert not injector.should_drop_connection()
        snap = injector.snapshot()
        assert snap == {"armed": 0, "fired": {"drop_connection": 2}}

    def test_delay_respects_op_filter(self):
        injector = FaultInjector(
            FaultPlan([FaultSpec(kind="delay", delay=0.01, op="synth")])
        )
        assert injector.delay_request("ping") == 0.0
        assert injector.delay_request("synth") == pytest.approx(0.01)
        assert injector.delay_request("synth") == 0.0  # disarmed

    def test_corrupt_cache_file(self, tmp_path):
        target = tmp_path / "cache.json"
        target.write_text(json.dumps({"version": 1, "entries": []}))
        injector = FaultInjector(FaultPlan([FaultSpec(kind="corrupt_cache")]))
        assert injector.corrupt_cache_file(target)
        assert b"\x00garbled" in target.read_bytes()
        # Disarmed: a second save survives untouched.
        target.write_text("{}")
        assert not injector.corrupt_cache_file(target)
        assert target.read_text() == "{}"


# ----------------------------------------------------------------------
# Crash-safe cache persistence
# ----------------------------------------------------------------------
class TestCachePersistence:
    def test_save_writes_checksum(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.store_size(4, 0x1234, 3)
        cache.save()
        assert cache.last_save_ok is True
        payload = json.loads(path.read_text())
        assert len(payload["checksum"]) == 64
        assert not path.with_suffix(".json.tmp").exists()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.store_circuit(4, 0x1234, 0x1234, 5, "t1 t2")
        cache.save()
        warm = ResultCache(path=path)
        hit = warm.lookup(4, 0x1234, 0x1234)
        assert hit.size == 5 and hit.circuit == "t1 t2"
        assert warm.quarantined is None

    def test_corrupt_file_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.store_size(4, 0x1234, 3)
        cache.save()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00garbled")
        survivor = ResultCache(path=path)
        assert len(survivor) == 0
        assert survivor.quarantined is not None
        assert survivor.quarantined.exists()
        assert not path.exists()  # moved aside, next save recreates it
        assert "unreadable" in survivor.load_error
        health = survivor.health()
        assert health["quarantined"] is not None

    def test_checksum_mismatch_detected(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.store_size(4, 0x1234, 3)
        cache.save()
        payload = json.loads(path.read_text())
        # Valid JSON, valid version, silently altered entries: only the
        # checksum catches this.
        payload["entries"][0]["size"] = 2
        path.write_text(json.dumps(payload, separators=(",", ":")))
        with pytest.raises(ServiceError, match="checksum"):
            ResultCache().load(path)

    def test_legacy_file_without_checksum_loads(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"n": 4, "canon": "0x12", "size": 3,
                         "lower_bound": None, "max_size": None,
                         "circuits": {}}],
        }))
        cache = ResultCache()
        assert cache.load(path) == 1

    def test_explicit_load_still_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("garbage")
        with pytest.raises(ServiceError, match="unreadable"):
            ResultCache().load(path)


# ----------------------------------------------------------------------
# Client: typed timeouts and retries
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestClientTypedErrors:
    def test_refused_connection_raises_connect_error(self):
        client = ServiceClient("127.0.0.1", _free_port(), connect_timeout=0.5)
        with pytest.raises(ServiceConnectError, match="cannot connect"):
            client.ping()

    def test_silent_server_raises_read_timeout(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        _, port = server.getsockname()
        try:
            client = ServiceClient(
                "127.0.0.1", port, connect_timeout=1.0, read_timeout=0.2
            )
            with pytest.raises(ServiceTimeoutError) as info:
                client.ping()
            assert info.value.phase == "read"
            client.close()
        finally:
            server.close()

    def test_legacy_single_timeout_sets_both(self):
        client = ServiceClient("127.0.0.1", 1, timeout=7.0)
        assert client.connect_timeout == 7.0
        assert client.read_timeout == 7.0

    def test_split_timeouts_override(self):
        client = ServiceClient(
            "127.0.0.1", 1, connect_timeout=1.0, read_timeout=30.0
        )
        assert client.connect_timeout == 1.0
        assert client.read_timeout == 30.0

    def test_shutdown_not_in_safe_retry_ops(self):
        assert "shutdown" not in SAFE_RETRY_OPS
        assert "synth" in SAFE_RETRY_OPS


class _FlakyServer(threading.Thread):
    """Accepts connections; drops the first ``drops`` of them after the
    request arrives, answers the rest."""

    def __init__(self, drops: int = 1) -> None:
        super().__init__(daemon=True)
        self.drops = drops
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.served = 0

    def run(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                data = conn.makefile("rb").readline()
                if not data:
                    continue
                if self.drops > 0:
                    self.drops -= 1
                    continue  # close without answering
                request = json.loads(data)
                response = json.dumps({
                    "id": request["id"], "ok": True,
                    "result": {"pong": True},
                })
                conn.sendall(response.encode() + b"\n")
                self.served += 1

    def stop(self) -> None:
        self.sock.close()


class TestClientRetry:
    def test_retries_through_dropped_connection(self):
        server = _FlakyServer(drops=1)
        server.start()
        try:
            client = ServiceClient(
                "127.0.0.1", server.port,
                connect_timeout=1.0, read_timeout=1.0,
                retry=RetryPolicy(retries=2, backoff_base=0.01, jitter=0.0),
            )
            assert client.ping() == {"pong": True}
            client.close()
        finally:
            server.stop()

    def test_no_retry_without_policy(self):
        server = _FlakyServer(drops=1)
        server.start()
        try:
            client = ServiceClient(
                "127.0.0.1", server.port,
                connect_timeout=1.0, read_timeout=1.0,
            )
            with pytest.raises(ServiceError):
                client.ping()
            client.close()
        finally:
            server.stop()


# ----------------------------------------------------------------------
# TCPDaemon.stop surfacing a wedged serving thread
# ----------------------------------------------------------------------
class TestTCPDaemonStop:
    def test_hung_serving_thread_raises(self, handle4):
        from repro.service import ServiceConfig, SynthesisService, TCPDaemon

        service = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        daemon = TCPDaemon(service, port=0)
        daemon.start()

        class WedgedThread:
            name = "repro-tcp-wedged"

            def join(self, timeout=None):
                pass  # pretends the join timed out

            def is_alive(self):
                return True

        daemon._thread = WedgedThread()
        with pytest.raises(ServiceError, match="failed to stop within"):
            daemon.stop()
        # The listener socket was still closed (finally block).
        with pytest.raises(OSError):
            daemon._server.socket.getsockname()
