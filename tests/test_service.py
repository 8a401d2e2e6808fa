"""Tests for the synthesis service layer: protocol, cache, batching,
metrics, the hard scan, and the daemon end to end over TCP and stdio."""

from __future__ import annotations

import dataclasses
import errno
import io
import json
import socket
import threading
import time

import pytest

from repro.core.permutation import Permutation
from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceShutdownError,
    SizeLimitExceededError,
)
from repro.service import (
    BatchQueue,
    MetricsRegistry,
    PendingRequest,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    SynthesisService,
    TCPDaemon,
    serve_stdio,
)
from repro.service import protocol
from repro.service.cache import CacheEntry

# Specs with optimal size 5 and 6: above the k=4 database depth of the
# shared fixtures, so they exercise the hard (A_i-list scan) path.
HARD_SPECS = [
    "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]",  # size 5
    "[6,7,13,5,0,1,10,3,15,14,4,12,8,9,2,11]",  # size 5
    "[13,8,10,2,9,12,14,6,3,15,0,1,7,11,4,5]",  # size 6
    "[0,1,2,3,7,14,15,13,8,9,10,11,12,4,5,6]",  # size 6
]

#: hwb4, size 11 -- far beyond L = 7 of the shared engine.
OUT_OF_REACH = "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]"

IDENTITY = "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]"
#: A truth table with two don't-care rows (tests/test_service_compile.py).
COMPILE_SPEC = {
    "kind": "truth_table",
    "n_inputs": 4,
    "rows": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1],
}
#: 400,018 bytes of nested brackets: under the line cap, too deep to parse.
DEEP_LINE = "[" * 200_009 + "]" * 200_009
SHIFT = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"
#: Database hits at k = 4: the shift (size 4), NOT(a) and the identity.
EASY_SPECS = [SHIFT, "[1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14]", IDENTITY]


@pytest.fixture()
def service(handle4):
    """A started service over the shared warm handle (no TCP)."""
    svc = SynthesisService(
        handle4,
        config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
    )
    svc.start()
    yield svc
    svc.shutdown()


def submit(svc, op, **fields) -> dict:
    line = json.dumps({"id": fields.pop("id", 1), "op": op, **fields})
    return json.loads(svc.handle_line(line))


class LookupSpy:
    """Database stand-in that counts the dispatcher's batch lookups and
    passes everything else through."""

    def __init__(self, database):
        self.database = database
        self.calls = 0

    def lookup_with_keys(self, words):
        self.calls += 1
        return self.database.lookup_with_keys(words)

    def __getattr__(self, name):
        return getattr(self.database, name)


class GatedSearch:
    """Stub scan engine: each scan waits for ``gate`` to open, so a test
    can hold the dispatcher busy for as long as it needs."""

    def __init__(self, engine):
        self.engine = engine
        self.entered = threading.Event()
        self.gate = threading.Event()

    def search(self, word, cancel=None):
        self.entered.set()
        assert self.gate.wait(30.0)
        return self.engine.search(word, cancel=cancel)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_decode_minimal_synth(self):
        req = protocol.decode_request(
            '{"id": 3, "op": "synth", "spec": "[0,1,2,3]"}'
        )
        assert req.op == "synth" and req.id == 3
        assert req.spec_value() == "[0,1,2,3]"

    def test_decode_word_hex(self):
        req = protocol.decode_request(
            '{"op": "size", "word": "0x3210", "wires": 2}'
        )
        assert req.spec_value() == 0x3210
        assert req.wires == 2

    def test_decode_bytes_input(self):
        req = protocol.decode_request(b'{"op": "ping"}')
        assert req.op == "ping"

    def test_extra_fields_become_options(self):
        req = protocol.decode_request(
            '{"op": "ping", "trace": true, "client": "t"}'
        )
        assert req.options == {"trace": True, "client": "t"}

    @pytest.mark.parametrize(
        "line, match",
        [
            ("not json", "not valid JSON"),
            ('["op"]', "JSON object"),
            ('{"op": "destroy"}', "unknown op"),
            ('{"op": "synth"}', "requires a 'spec'"),
            ('{"op": "size", "word": "zz"}', "not valid hex"),
            ('{"op": "size", "word": 17}', "hex string"),
            ('{"op": "synth", "spec": "x", "wires": 9}', "wires"),
            ('{"op": "synth", "spec": "x", "deadline_ms": 0}', "deadline_ms"),
            ('{"op": "synth", "spec": "x", "deadline_ms": -5}', "deadline_ms"),
            ('{"op": "synth", "spec": "x", "deadline_ms": "1s"}', "deadline_ms"),
            ('{"op": "synth", "spec": "x", "deadline_ms": true}', "deadline_ms"),
        ],
    )
    def test_decode_rejects(self, line, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.decode_request(line)

    def test_decode_deadline_ms(self):
        req = protocol.decode_request(
            '{"op": "synth", "spec": "[0,1,2,3]", "deadline_ms": 250}'
        )
        assert req.deadline_ms == 250
        assert "deadline_ms" not in req.options

    def test_decode_health_op(self):
        req = protocol.decode_request('{"op": "health"}')
        assert req.op == "health"

    def test_response_roundtrip(self):
        envelope = protocol.response(7, result={"size": 3})
        line = protocol.encode_response(envelope)
        body = protocol.decode_response(line)
        assert body == {"id": 7, "ok": True, "result": {"size": 3}}

    def test_encode_requires_exactly_one(self):
        with pytest.raises(ValueError):
            protocol.response(1)
        with pytest.raises(ValueError):
            protocol.response(1, result={}, error={})

    def test_error_envelope_size_limit(self):
        env = protocol.error_envelope(
            SizeLimitExceededError("too big", lower_bound=9)
        )
        assert env["kind"] == "size_limit" and env["lower_bound"] == 9
        with pytest.raises(SizeLimitExceededError) as excinfo:
            protocol.raise_for_error(env)
        assert excinfo.value.lower_bound == 9

    def test_error_envelope_shutdown(self):
        env = protocol.error_envelope(ServiceShutdownError("draining"))
        assert env["kind"] == "shutdown"
        with pytest.raises(ServiceShutdownError):
            protocol.raise_for_error(env)

    def test_error_envelope_internal(self):
        env = protocol.error_envelope(RuntimeError("boom"))
        assert env["kind"] == "internal" and "boom" in env["message"]

    def test_word_to_hex_roundtrip(self):
        word = Permutation.from_spec(SHIFT).word
        assert int(protocol.word_to_hex(word), 16) == word


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        assert registry.snapshot()["requests"] == 5

    def test_histogram_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["mean"] == pytest.approx(2.5)
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["p50"] in (2.0, 3.0)

    def test_histogram_reservoir_bounded(self):
        from repro.service.metrics import Histogram

        hist = Histogram(reservoir_size=8)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.max == 99.0
        # percentiles come from the most recent window
        assert hist.percentile(0.0) >= 92.0

    def test_empty_histogram(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.snapshot() == {"count": 0}
        assert hist.percentile(0.5) is None

    def test_name_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_size_shared_across_class(self, db4_k4):
        cache = ResultCache(capacity=16)
        word = int(db4_k4.reps_by_size[3][5])
        canon = db4_k4.canonical_key(word)
        cache.store_size(4, canon, 3)
        from repro.core import equivalence

        for member in equivalence.equivalence_class(word, 4):
            hit = cache.lookup(4, db4_k4.canonical_key(member), member)
            assert hit is not None and hit.size == 3

    def test_circuit_is_per_word(self):
        cache = ResultCache(capacity=16)
        cache.store_circuit(4, 100, 200, 2, "CNOT(a,b) NOT(a)")
        hit = cache.lookup(4, 100, 200)
        assert hit.circuit == "CNOT(a,b) NOT(a)"
        other = cache.lookup(4, 100, 201)
        assert other is not None and other.size == 2 and other.circuit is None

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.store_size(4, 1, 1)
        cache.store_size(4, 2, 2)
        cache.lookup(4, 1)          # touch 1 -> 2 becomes LRU
        cache.store_size(4, 3, 3)   # evicts 2
        assert cache.lookup(4, 2) is None
        assert cache.lookup(4, 1).size == 1
        assert len(cache) == 2

    def test_bound_gated_by_engine_depth(self):
        cache = ResultCache(capacity=4)
        cache.store_bound(4, 5, lower_bound=8, max_size=7)
        assert cache.bound_for(4, 5, engine_max_size=7) == 8
        # a deeper engine must not trust the stale proof
        assert cache.bound_for(4, 5, engine_max_size=9) is None

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(capacity=8, path=path)
        cache.store_circuit(4, 10, 20, 2, "NOT(a) NOT(b)")
        cache.store_bound(4, 11, lower_bound=8, max_size=7)
        cache.save()
        warm = ResultCache(capacity=8, path=path)
        assert len(warm) == 2
        hit = warm.lookup(4, 10, 20)
        assert hit.size == 2 and hit.circuit == "NOT(a) NOT(b)"
        assert warm.bound_for(4, 11, 7) == 8

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ServiceError, match="unreadable"):
            ResultCache(capacity=8).load(path)

    def test_load_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        with pytest.raises(ServiceError, match="version"):
            ResultCache(capacity=8).load(path)

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.store_size(4, 1, 1)
        cache.lookup(4, 1)
        cache.lookup(4, 2)
        assert cache.hit_rate() == pytest.approx(0.5)
        assert cache.stats()["entries"] == 1

    def test_entry_is_slotted(self):
        # One entry per cached class: no per-instance __dict__.
        assert not hasattr(CacheEntry(size=3), "__dict__")


# ----------------------------------------------------------------------
# Batch queue
# ----------------------------------------------------------------------
class TestBatchQueue:
    def test_coalesces_pending_items(self):
        queue = BatchQueue(max_batch=10)
        for i in range(5):
            queue.put(PendingRequest(i))
        batch = queue.next_batch()
        assert [p.request for p in batch] == [0, 1, 2, 3, 4]

    def test_respects_max_batch(self):
        queue = BatchQueue(max_batch=3)
        for i in range(5):
            queue.put(PendingRequest(i))
        assert len(queue.next_batch()) == 3
        assert len(queue.next_batch()) == 2

    def test_put_after_close_raises(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(ServiceShutdownError):
            queue.put(PendingRequest(0))

    def test_queue_full_raises(self):
        queue = BatchQueue(max_depth=1)
        queue.put(PendingRequest(0))
        with pytest.raises(ServiceShutdownError, match="full"):
            queue.put(PendingRequest(1))

    def test_drains_after_close_then_none(self):
        queue = BatchQueue(max_batch=2)
        for i in range(3):
            queue.put(PendingRequest(i))
        queue.close()
        assert len(queue.next_batch()) == 2
        assert len(queue.next_batch()) == 1
        assert queue.next_batch() is None

    def test_requests_queued_behind_a_busy_dispatcher_are_one_batch(self, handle4):
        # A gated scan holds the dispatcher; three size requests queue
        # behind it and must come out together, in one lookup pass.
        gated = GatedSearch(handle4.engine)
        lookups = LookupSpy(handle4.database)
        svc = SynthesisService(
            dataclasses.replace(handle4, engine=gated, database=lookups),
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        ).start()
        answers = {}

        def ask(op, spec):
            answers[spec] = submit(svc, op, spec=spec)

        clients = [threading.Thread(target=ask, args=("synth", HARD_SPECS[0]))]
        try:
            clients[0].start()
            assert gated.entered.wait(10.0)
            for spec in EASY_SPECS:
                clients.append(threading.Thread(target=ask, args=("size", spec)))
                clients[-1].start()
            deadline = time.monotonic() + 10.0
            while svc.queue.depth < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert svc.queue.depth == 3
            gated.gate.set()
            for client in clients:
                client.join(timeout=30.0)
            assert not any(client.is_alive() for client in clients)
            assert answers[HARD_SPECS[0]]["result"]["source"] == "scan"
            assert {answers[s]["result"]["source"] for s in EASY_SPECS} == {"db"}
            batches = svc.metrics.histogram("batch_size")
            assert (batches.count, batches.min, batches.max) == (2, 1, 3)
            assert lookups.calls == 2
        finally:
            gated.gate.set()
            svc.shutdown()


# ----------------------------------------------------------------------
# Service core (in-process, no sockets)
# ----------------------------------------------------------------------
class TestServiceCore:
    def test_ping(self, service):
        body = submit(service, "ping")
        assert body["ok"] and body["result"]["pong"] is True

    def test_synth_fast_path(self, service):
        body = submit(service, "synth", spec=SHIFT)
        assert body["ok"]
        result = body["result"]
        assert result["size"] == 4
        assert result["circuit"] == "TOF4(a,b,c,d) TOF(a,b,c) CNOT(a,b) NOT(a)"
        assert result["source"] in ("db", "cache")
        assert result["depth"] == 4

    def test_identity(self, service):
        body = submit(service, "synth", spec=IDENTITY)
        assert body["result"]["size"] == 0
        assert body["result"]["circuit"] == "(identity)"
        assert body["result"]["cost"] == 0

    def test_size_op_has_no_circuit(self, service):
        body = submit(service, "size", spec=SHIFT)
        assert body["ok"] and body["result"]["size"] == 4
        assert "circuit" not in body["result"]

    def test_word_query(self, service):
        word = Permutation.from_spec(SHIFT).word
        body = submit(service, "size", word=f"{word:#x}", wires=4)
        assert body["result"]["size"] == 4

    def test_value_list_spec(self, service):
        body = submit(service, "size", spec=list(range(1, 16)) + [0])
        assert body["result"]["size"] == 4

    def test_invalid_spec_envelope(self, service):
        body = submit(service, "synth", spec="[0,0,1,2]")
        assert not body["ok"]
        assert body["error"]["kind"] == "invalid_spec"

    def test_wires_mismatch_envelope(self, service):
        body = submit(service, "synth", spec="[1,0,2,3]", wires=2)
        assert not body["ok"]
        assert "n_wires=4" in body["error"]["message"]

    def test_malformed_line_envelope(self, service):
        body = json.loads(service.handle_line("this is not json"))
        assert not body["ok"] and body["error"]["kind"] == "protocol"
        assert body["id"] is None

    def test_hard_path_inline(self, service):
        body = submit(service, "synth", spec=HARD_SPECS[0])
        assert body["ok"]
        assert body["result"]["size"] == 5
        assert body["result"]["source"] == "scan"
        assert body["result"]["lists_scanned"] >= 1

    def test_each_scan_in_a_batch_is_one_scan_seconds_sample(self, handle4):
        # The dispatcher sheds a request whose remaining deadline is below
        # the p90 of scan_seconds, so a sample must be one scan's cost.
        # Both requests queue before the dispatcher starts: one batch.
        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        answers = []
        clients = [
            threading.Thread(target=lambda s=spec: answers.append(
                submit(svc, "synth", spec=s)
            ))
            for spec in HARD_SPECS[:2]
        ]
        try:
            for client in clients:
                client.start()
            deadline = time.monotonic() + 10.0
            while svc.queue.depth < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            svc.start()
            for client in clients:
                client.join(timeout=30.0)
            assert not any(client.is_alive() for client in clients)
            assert [a["result"]["source"] for a in answers] == ["scan"] * 2
            assert svc.metrics.histogram("batch_size").count == 1
            assert svc.metrics.counter("hard_queries").value == 2
            assert svc.metrics.histogram("scan_seconds").count == 2
        finally:
            svc.shutdown()

    def test_metrics_hold_each_event_once(self, service):
        # Stages with a span (batch, lookup, peel, compile) are timed by
        # it alone; task outcomes, deadline misses and the queue depth
        # are reported by their owners, not repeated as metrics.
        submit(service, "synth", spec=SHIFT, id=1)
        submit(service, "synth", spec=HARD_SPECS[0], id=2)
        submit(service, "size", spec=EASY_SPECS[1], id=3)
        submit(service, "compile", spec=COMPILE_SPEC, id=4)
        submit(service, "synth", spec=HARD_SPECS[1], engine="heuristic", id=5)
        assert set(service.stats()["metrics"]) == {
            "requests_total", "requests_synth", "requests_size",
            "requests_compile", "engine_requests_optimal",
            "engine_requests_heuristic", "engine_seconds_heuristic",
            "queue_wait_seconds", "batch_size", "served_from_db",
            "hard_queries", "scan_seconds", "responses_ok",
        }

    def test_stats_registers_no_instrument(self, service):
        # A daemon that has dispatched nothing has no batch sizes to
        # report, and asking for stats must not create the histogram.
        for _ in range(2):
            assert "batch_size" not in service.stats()["metrics"]

    def test_a_batch_line_is_encoded_once(self, service, monkeypatch):
        encode = protocol.encode_response
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(protocol, "encode_response", spy)
        entries = [
            {"id": i, "op": "synth" if i % 2 else "size", "spec": spec}
            for i, spec in enumerate((EASY_SPECS * 3)[:8])
        ]
        line = json.dumps({"id": 9, "op": "batch", "requests": entries})
        body = json.loads(service.handle_line(line))
        assert body["ok"] and body["result"]["count"] == 8
        assert all(entry["ok"] for entry in body["result"]["results"])
        assert len(calls) == 1

    def test_out_of_reach_envelope_and_cached_proof(self, service):
        body = submit(service, "synth", spec=OUT_OF_REACH)
        assert not body["ok"]
        assert body["error"]["kind"] == "size_limit"
        assert body["error"]["lower_bound"] == 8  # L = 7 exhausted
        # Second query serves the proof from the bound cache.
        again = submit(service, "size", spec=OUT_OF_REACH)
        assert not again["ok"]
        assert again["error"]["lower_bound"] == 8
        assert "cached" in again["error"]["message"]

    def test_cache_promotion_and_class_sharing(self, service):
        first = submit(service, "synth", spec=HARD_SPECS[1])
        assert first["result"]["source"] == "scan"
        second = submit(service, "synth", spec=HARD_SPECS[1])
        assert second["result"]["source"] == "cache"
        assert second["result"]["circuit"] == first["result"]["circuit"]
        # An equivalent function (the inverse) shares the class entry:
        # its *size* is served without a new scan.
        inverse = Permutation.from_spec(HARD_SPECS[1]).inverse()
        hard_before = service.metrics.counter("hard_queries").value
        inv = submit(service, "size", spec=inverse.spec())
        assert inv["result"]["size"] == 5
        assert service.metrics.counter("hard_queries").value == hard_before

    def test_stats_op(self, service):
        submit(service, "synth", spec=SHIFT)
        body = submit(service, "stats")
        stats = body["result"]
        assert stats["config"]["k"] == 4
        assert stats["config"]["max_size"] == 7
        assert stats["metrics"]["requests_total"] >= 2
        assert "cache" in stats and "uptime" in stats

    def test_byte_identical_to_direct_search(self, service, engine4_l7):
        specs = [IDENTITY, SHIFT, *HARD_SPECS]
        for spec in specs:
            direct = engine4_l7.search(Permutation.from_spec(spec).word)
            body = submit(service, "synth", spec=spec)
            assert body["ok"], body
            assert body["result"]["size"] == direct.size
            assert body["result"]["circuit"] == str(direct.circuit)
        # and again, now served from the cache: still identical
        for spec in specs:
            direct = engine4_l7.search(Permutation.from_spec(spec).word)
            body = submit(service, "synth", spec=spec)
            assert body["result"]["circuit"] == str(direct.circuit)

    def test_submit_after_shutdown_envelope(self, handle4):
        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        svc.start()
        svc.shutdown()
        body = json.loads(
            svc.handle_line(json.dumps({"id": 9, "op": "size", "spec": SHIFT}))
        )
        assert not body["ok"]
        assert body["error"]["kind"] == "shutdown"

    def test_shutdown_idempotent(self, handle4):
        svc = SynthesisService(handle4)
        svc.start()
        svc.shutdown()
        svc.shutdown()
        assert svc.stopped


# ----------------------------------------------------------------------
# The A_i scan behind the dispatcher
# ----------------------------------------------------------------------
class TestHardScan:
    def test_matches_engine(self, service, handle4):
        for index, spec in enumerate(HARD_SPECS[:2]):
            result = submit(service, "synth", spec=spec, id=index)["result"]
            assert result["source"] == "scan" and result["size"] == 5
            direct = handle4.engine.search(Permutation.from_spec(spec).word)
            assert result["circuit"] == str(direct.circuit)

    def test_reports_bound(self, service):
        body = submit(service, "synth", spec=OUT_OF_REACH)
        # The exhausted search is a proof, answered as a size_limit
        # envelope with its bound.
        assert not body["ok"]
        assert body["error"]["kind"] == "size_limit"
        assert body["error"]["lower_bound"] == 8
        assert "requires more than 7 gates" in body["error"]["message"]


# ----------------------------------------------------------------------
# TCP end to end
# ----------------------------------------------------------------------
class TestTCPEndToEnd:
    def test_concurrent_clients_batch_and_drain(self, handle4):
        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        daemon = TCPDaemon(svc, port=0)
        with daemon:
            host, port = daemon.address
            specs = [SHIFT, IDENTITY, *HARD_SPECS]
            expected = {}
            for spec in specs:
                outcome = handle4.engine.search(
                    Permutation.from_spec(spec).word
                )
                expected[spec] = (outcome.size, str(outcome.circuit))
            errors: list = []
            start = threading.Barrier(6)

            def client_thread(seed: int) -> None:
                try:
                    with ServiceClient(host, port) as client:
                        start.wait()
                        for i in range(4 * len(specs)):
                            spec = specs[(seed + i) % len(specs)]
                            result = client.synth(spec)
                            size, circuit = expected[spec]
                            assert result["size"] == size
                            assert result["circuit"] == circuit
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(i,))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            with ServiceClient(host, port) as client:
                stats = client.stats()
                assert stats["metrics"]["requests_synth"] >= 6 * 4 * len(specs)
                # concurrency must actually have been coalesced
                assert stats["metrics"]["batch_size"]["mean"] > 1.0
                ack = client.shutdown()
                assert ack == {"draining": True}
            deadline = time.monotonic() + 10
            while not svc.stopped and time.monotonic() < deadline:
                time.sleep(0.02)
            assert svc.stopped

    def test_requests_during_drain_get_shutdown_envelope(self, handle4):
        svc = SynthesisService(handle4)
        daemon = TCPDaemon(svc, port=0)
        with daemon:
            host, port = daemon.address
            with ServiceClient(host, port) as client:
                client.shutdown()
                deadline = time.monotonic() + 10
                while not svc.stopped and time.monotonic() < deadline:
                    time.sleep(0.02)
                with pytest.raises((ServiceShutdownError, ServiceError)):
                    client.size(SHIFT)

    def test_client_connect_refused(self):
        client = ServiceClient("127.0.0.1", 1)  # nothing listens there
        with pytest.raises(ServiceError, match="cannot connect"):
            client.ping()


# ----------------------------------------------------------------------
# stdio transport
# ----------------------------------------------------------------------
class TestStdioTransport:
    def test_serve_stdio_roundtrip(self, handle4):
        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        lines = [
            json.dumps({"id": 1, "op": "ping"}),
            json.dumps({"id": 2, "op": "synth", "spec": SHIFT}),
            json.dumps({"id": 3, "op": "shutdown"}),
        ]
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        served = serve_stdio(svc, stdin=stdin, stdout=stdout)
        assert served == 3
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert responses[0]["result"]["pong"] is True
        assert responses[1]["result"]["size"] == 4
        assert responses[2]["result"]["draining"] is True
        assert svc.stopped

    def test_serve_stdio_eof_shuts_down(self, handle4):
        svc = SynthesisService(handle4)
        stdout = io.StringIO()
        served = serve_stdio(svc, stdin=io.StringIO(""), stdout=stdout)
        assert served == 0
        assert svc.stopped

    def test_serve_stdio_stops_when_the_reader_goes_away(
        self, handle4, tmp_path
    ):
        # A failed write means the only client has gone: stop reading
        # and shut down as at EOF, saving the result cache.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        path = tmp_path / "results.json"
        svc = SynthesisService(handle4, config=ServiceConfig(
            n_wires=4, k=4, max_list_size=3, result_cache_path=str(path),
        ))
        unread = json.dumps({"id": 2, "op": "ping"}) + "\n"
        stdin = io.StringIO(
            json.dumps({"id": 1, "op": "synth", "spec": SHIFT}) + "\n" + unread
        )
        assert serve_stdio(svc, stdin=stdin, stdout=ClosedPipe()) == 0
        assert svc.stopped
        assert stdin.read() == unread
        assert ResultCache().load(path) == 1

    def test_serve_stdio_raises_other_write_errors(self, handle4):
        # Only a broken pipe means the reader has gone; a full disk
        # behind a redirected stdout is an error, not an EOF.
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        svc = SynthesisService(handle4)
        stdin = io.StringIO(json.dumps({"id": 1, "op": "ping"}) + "\n")
        with pytest.raises(OSError) as info:
            serve_stdio(svc, stdin=stdin, stdout=FullDisk())
        assert info.value.errno == errno.ENOSPC
        assert svc.stopped

    def test_deeply_nested_line_is_a_protocol_error(self, handle4):
        # Under the 1 MiB line cap, but nested far past the JSON
        # parser's recursion limit: the line gets an error envelope and
        # the daemon keeps serving.
        svc = SynthesisService(handle4)
        stdin = io.StringIO(
            DEEP_LINE + "\n" + json.dumps({"id": 2, "op": "ping"}) + "\n"
        )
        stdout = io.StringIO()
        assert serve_stdio(svc, stdin=stdin, stdout=stdout) == 2
        nested, ping = (
            json.loads(line) for line in stdout.getvalue().splitlines()
        )
        assert nested == {
            "id": None,
            "ok": False,
            "error": {
                "kind": "protocol",
                "message": "request is nested too deeply to decode",
            },
        }
        assert ping["id"] == 2 and ping["result"]["pong"] is True


class TestOverlongLine:
    """A line past ``MAX_LINE_BYTES`` gets exactly one answer, and the
    same bytes over TCP and over stdio."""

    #: A 3 MiB ping line, then an ordinary one.
    STREAM = (
        json.dumps({"op": "ping", "id": 1, "pad": "x" * (3 << 20)}) + "\n"
        + json.dumps({"op": "ping", "id": 2}) + "\n"
    ).encode()

    @staticmethod
    def _service(handle4):
        return SynthesisService(
            handle4, config=ServiceConfig(n_wires=4, k=4, max_list_size=3)
        )

    def test_one_answer_on_both_transports(self, handle4):
        with TCPDaemon(self._service(handle4), port=0) as daemon:
            with socket.create_connection(daemon.address, timeout=30) as sock:
                reader = sock.makefile("rb")
                sock.sendall(self.STREAM)
                tcp = [reader.readline().decode() for _ in range(2)]
                # The next line answered is the next line sent: no
                # answer to a piece of the long line is left queued.
                sock.sendall(b'{"op":"ping","id":3}\n')
                assert json.loads(reader.readline())["id"] == 3
        stdout = io.StringIO()
        # Text stdin as the process has it: read through its buffer.
        stdin = io.TextIOWrapper(io.BytesIO(self.STREAM))
        assert serve_stdio(self._service(handle4), stdin, stdout) == 2
        assert stdout.getvalue() == "".join(tcp)
        refused, pong = (json.loads(line) for line in tcp)
        assert refused == {
            "id": None,
            "ok": False,
            "error": {
                "kind": "protocol",
                "message": "request line exceeds 1 MiB",
            },
        }
        assert pong["id"] == 2 and pong["result"]["pong"] is True


# ----------------------------------------------------------------------
# Persistent result cache through the service
# ----------------------------------------------------------------------
class TestServicePersistence:
    def test_cache_survives_restart(self, handle4, tmp_path):
        path = tmp_path / "results.json"
        config = ServiceConfig(
            n_wires=4, k=4, max_list_size=3, result_cache_path=str(path)
        )
        svc = SynthesisService(handle4, config=config)
        svc.start()
        first = submit(svc, "synth", spec=HARD_SPECS[2])
        assert first["result"]["source"] == "scan"
        svc.shutdown()
        assert path.exists()

        warm = SynthesisService(handle4, config=config)
        warm.start()
        second = submit(warm, "synth", spec=HARD_SPECS[2])
        warm.shutdown()
        assert second["result"]["source"] == "cache"
        assert second["result"]["circuit"] == first["result"]["circuit"]
