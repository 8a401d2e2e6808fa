"""Tests for the service-layer compile op: daemon wiring, deadline
degradation, shard routing byte-identity, and the TCP client helper."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    ServiceClient,
    ServiceConfig,
    SynthesisService,
    TCPDaemon,
)
from repro.service.protocol import MAX_COMPILE_SAMPLES
from repro.service.sharding import (
    InProcessShard,
    ShardingConfig,
    ShardRouter,
    ShardSupervisor,
)
from repro.specs import TruthTableSpec
from repro.synth.embedding import EXHAUSTIVE_LIMIT

# The designated don't-care table: f(x) = x3 with rows 10 and 13 free
# (2 completions, exhaustive, optimal size 3 at k=4 reach).
DC_SPEC = {
    "kind": "truth_table",
    "n_inputs": 4,
    "rows": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1],
}
AFFINE_SPEC = {
    "kind": "affine_xor",
    "matrix": [[1, 0], [1, 1]],
    "constant": [0, 1],
}
SHIFT = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"
# AND onto wire d: 12 free rows, so `samples` sizes the random draw.
AND_SPEC = {"kind": "truth_table", "n_inputs": 2, "rows": [0, 0, 0, 1]}


@pytest.fixture()
def service(handle4):
    svc = SynthesisService(
        handle4,
        config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
    )
    svc.start()
    yield svc
    svc.shutdown()


def submit(target, op, **fields) -> dict:
    line = json.dumps({"id": fields.pop("id", 1), "op": op, **fields})
    return json.loads(target.handle_line(line))


def make_cluster(handle4, count=3):
    supervisor = ShardSupervisor(config=ShardingConfig(probe_interval=30.0))
    shards = []
    for index in range(count):
        svc = SynthesisService(
            handle4,
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        ).start()
        shard = InProcessShard(f"shard-{index}", svc).start()
        shards.append(shard)
        supervisor.add(shard)
    return ShardRouter(supervisor, n_wires=4), supervisor, shards


# ----------------------------------------------------------------------
# Single daemon
# ----------------------------------------------------------------------
class TestDaemonCompile:
    def test_compile_dc_table(self, service):
        body = submit(service, "compile", spec=DC_SPEC)
        assert body["ok"], body
        result = body["result"]
        assert result["source"] == "engine"
        assert result["guarantee"] == "optimal"
        assert result["size"] == 3
        emb = result["embedding"]
        assert emb["exhaustive"] is True and emb["completions_tried"] == 2
        assert emb["dont_care_rows"] == 2
        assert emb["output_wires"] == [3]
        # Re-simulate the chosen completion on every specified row.
        values = json.loads(emb["spec"])
        for x, want in enumerate(DC_SPEC["rows"]):
            if want is not None:
                assert (values[x] >> 3) & 1 == want

    def test_repeat_is_byte_identical(self, service):
        line = json.dumps({"id": 1, "op": "compile", "spec": DC_SPEC})
        assert service.handle_line(line) == service.handle_line(line)

    def test_affine_compiles_optimal(self, service):
        body = submit(service, "compile", spec=AFFINE_SPEC)
        assert body["ok"], body
        assert body["result"]["guarantee"] == "optimal"
        assert body["result"]["embedding"]["garbage_wires"] == []

    def test_batch_matches_singles(self, service):
        singles = [
            submit(service, "compile", spec=DC_SPEC)["result"],
            submit(service, "compile", spec=AFFINE_SPEC)["result"],
        ]
        body = submit(
            service,
            "batch",
            requests=[
                {"op": "compile", "spec": DC_SPEC},
                {"op": "compile", "spec": AFFINE_SPEC},
            ],
        )
        assert body["ok"], body
        batched = [item["result"] for item in body["result"]["results"]]
        assert batched == singles

    def test_named_engine(self, service):
        body = submit(service, "compile", spec=DC_SPEC, engine="heuristic")
        assert body["ok"], body
        result = body["result"]
        assert result["engine"] == "heuristic"
        assert result["source"] == "engine"
        values = json.loads(result["embedding"]["spec"])
        for x, want in enumerate(DC_SPEC["rows"]):
            if want is not None:
                assert (values[x] >> 3) & 1 == want

    def test_samples_option_is_honoured(self, service):
        # AND has a huge completion space: `samples` caps the tries.
        and_spec = {"kind": "truth_table", "n_inputs": 2,
                    "rows": [0, 0, 0, 1]}
        body = submit(service, "compile", spec=and_spec, samples=5)
        assert body["ok"], body
        emb = body["result"]["embedding"]
        # natural-extension seed + at most 5 sampled completions
        assert emb["completions_tried"] <= 6
        assert body["result"]["guarantee"] == "upper_bound"

    @pytest.mark.parametrize(
        "fields, kind",
        [
            ({"spec": {"kind": "nope"}}, "invalid_spec"),
            ({"spec": {"kind": "truth_table", "n_inputs": 4,
                       "rows": [None] * 16}}, "invalid_spec"),
            ({"spec": DC_SPEC, "wires": 3}, "invalid_spec"),
            ({"spec": DC_SPEC, "samples": 0}, "protocol"),
            ({"spec": DC_SPEC, "samples": "many"}, "protocol"),
            ({"spec": DC_SPEC, "samples": True}, "protocol"),
            ({"spec": DC_SPEC, "samples": MAX_COMPILE_SAMPLES + 1},
             "protocol"),
            ({"spec": DC_SPEC, "engine": "made-up"}, "protocol"),
        ],
    )
    def test_error_envelopes(self, service, fields, kind):
        body = submit(service, "compile", **fields)
        assert not body["ok"], body
        assert body["error"]["kind"] == kind

    def test_samples_bound_is_the_exhaustive_limit(self):
        assert MAX_COMPILE_SAMPLES == EXHAUSTIVE_LIMIT

    def test_spec_must_be_an_object(self, service):
        body = submit(service, "compile", spec="[0,1,2,3]")
        assert not body["ok"]
        assert "JSON object" in body["error"]["message"]

    def test_metrics_count_compiles(self, service):
        before = submit(service, "stats")["result"]["metrics"].get(
            "requests_compile", 0
        )
        submit(service, "compile", spec=DC_SPEC)
        stats = submit(service, "stats")["result"]
        assert stats["metrics"]["requests_compile"] == before + 1
        assert "compile" not in stats.get("cache", {})  # never cached

    def test_expired_deadline_degrades(self, handle4):
        # The delay fault sleeps past the request's budget before the
        # compile starts, so the deadline has expired at its first
        # checkpoint.
        service = SynthesisService(
            handle4,
            config=ServiceConfig(
                n_wires=4, k=4, max_list_size=3,
                extra={"fault_plan": [
                    {"kind": "delay", "op": "compile", "delay": 0.05},
                ]},
            ),
        ).start()
        try:
            body = submit(
                service, "compile", id=9, spec=DC_SPEC, deadline_ms=10
            )
            assert body["ok"], body
            result = body["result"]
            assert result["source"] == "degraded"
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] == "deadline"
            # Degraded answers still honour every specified row.
            values = json.loads(result["embedding"]["spec"])
            for x, want in enumerate(DC_SPEC["rows"]):
                if want is not None:
                    assert (values[x] >> 3) & 1 == want
            metrics = submit(service, "stats")["result"]["metrics"]
            assert metrics["degraded_deadline"] >= 1
        finally:
            service.shutdown()


    def test_expired_deadline_stops_before_the_draw(self, handle4):
        # One input on four wires leaves 14 free rows, so the search
        # would draw `samples` orders: a deadline spent before the
        # compile starts degrades at the checkpoint ahead of that draw.
        from repro.synth.embedding import _drawn_orders

        service = SynthesisService(
            handle4,
            config=ServiceConfig(
                n_wires=4, k=4, max_list_size=3,
                extra={"fault_plan": [
                    {"kind": "delay", "op": "compile", "delay": 0.05},
                ]},
            ),
        ).start()
        try:
            before = _drawn_orders.cache_info()
            body = submit(
                service, "compile", id=5,
                spec={"kind": "truth_table", "n_inputs": 1, "rows": [1, 0]},
                samples=4999, deadline_ms=10,
            )
            after = _drawn_orders.cache_info()
        finally:
            service.shutdown()
        assert body["ok"], body
        assert body["result"]["source"] == "degraded"
        assert body["result"]["degraded_reason"] == "deadline"
        assert (after.hits, after.misses) == (before.hits, before.misses)


# ----------------------------------------------------------------------
# Sharded router
# ----------------------------------------------------------------------
class TestRouterCompile:
    def test_sharded_matches_solo_byte_for_byte(self, service, handle4):
        router, _sup, _shards = make_cluster(handle4)
        try:
            for spec in (DC_SPEC, AFFINE_SPEC):
                line = json.dumps({"id": 1, "op": "compile", "spec": spec})
                assert router.handle_line(line) == service.handle_line(line)
        finally:
            router.shutdown()

    def test_mixed_batch_matches_solo(self, service, handle4):
        router, _sup, _shards = make_cluster(handle4)
        try:
            line = json.dumps({
                "id": 2,
                "op": "batch",
                "requests": [
                    {"op": "compile", "spec": DC_SPEC},
                    {"op": "synth", "spec": SHIFT},
                    {"op": "compile", "spec": AFFINE_SPEC},
                ],
            })
            assert router.handle_line(line) == service.handle_line(line)
        finally:
            router.shutdown()

    def test_samples_bound_refused_before_forwarding(self, service, handle4):
        router, _sup, shards = make_cluster(handle4)
        try:
            over = json.dumps({"id": 3, "op": "compile", "spec": AND_SPEC,
                               "samples": MAX_COMPILE_SAMPLES + 1})
            refused = router.handle_line(over)
            assert refused == service.handle_line(over)
            error = json.loads(refused)["error"]
            assert error["kind"] == "protocol"
            assert str(MAX_COMPILE_SAMPLES) in error["message"]
            for shard in shards:
                metrics = shard.service.stats()["metrics"]
                assert metrics.get("requests_compile", 0) == 0
            at = json.dumps({"id": 4, "op": "compile", "spec": AND_SPEC,
                             "samples": MAX_COMPILE_SAMPLES})
            answered = router.handle_line(at)
            assert answered == service.handle_line(at)
            embedding = json.loads(answered)["result"]["embedding"]
            # The natural extension plus the whole sampled budget.
            assert embedding["completions_tried"] == MAX_COMPILE_SAMPLES + 1
            for target in (router, service):
                assert submit(target, "ping")["result"]["pong"] is True
        finally:
            router.shutdown()

    def test_degrades_when_no_live_shard(self, handle4):
        router, _sup, shards = make_cluster(handle4, count=2)
        try:
            for shard in shards:
                shard.restartable = False
                shard.kill()
            body = submit(router, "compile", spec=DC_SPEC)
            assert body["ok"], body
            result = body["result"]
            assert result["source"] == "degraded"
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] in (
                "no_live_shard", "shard_unreachable"
            )
            values = json.loads(result["embedding"]["spec"])
            for x, want in enumerate(DC_SPEC["rows"]):
                if want is not None:
                    assert (values[x] >> 3) & 1 == want
        finally:
            for shard in shards:
                shard.restartable = True
            router.shutdown()


# ----------------------------------------------------------------------
# TCP client helper
# ----------------------------------------------------------------------
class TestClientCompile:
    def test_compile_over_tcp(self, service):
        daemon = TCPDaemon(service, port=0)
        with daemon:
            host, port = daemon.address
            with ServiceClient(host, port) as client:
                result = client.compile(DC_SPEC)
                assert result["guarantee"] == "optimal"
                assert result["size"] == 3
                # The form object (not just its wire dict) works too.
                spec = TruthTableSpec(
                    rows=tuple(DC_SPEC["rows"]), n_inputs=4
                )
                again = client.compile(spec, samples=50)
                assert again["embedding"] == result["embedding"]
