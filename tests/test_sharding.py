"""Tests for the sharded service: ring, router, supervisor, drain,
protocol batch ops, and the client-side transport fixes that ride along.

Cluster tests run over :class:`InProcessShard` backends -- each shard is
a complete in-process :class:`SynthesisService` over the shared warm
handle, exercising the identical code path a TCP peer would, minus the
socket.  (The real-subprocess path is covered by ``scripts/shard_smoke``
in CI.)
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.service import (
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    SynthesisService,
)
from repro.service import protocol
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.sharding import (
    DEAD,
    LEFT,
    SUSPECT,
    UP,
    HashRing,
    InProcessShard,
    ShardingConfig,
    ShardRouter,
    ShardSupervisor,
    member_seed,
    rendezvous_score,
)
from repro.core.equivalence import canonical
from repro.core.permutation import Permutation

IDENTITY = "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]"
SHIFT = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"
HARD_SPEC = "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]"  # size 5
HARD_SPEC_2 = "[6,7,13,5,0,1,10,3,15,14,4,12,8,9,2,11]"  # size 5
SPECS = [IDENTITY, SHIFT, HARD_SPEC, HARD_SPEC_2]


def make_service(handle4, extra=None, **config_kwargs) -> SynthesisService:
    config = ServiceConfig(
        n_wires=4, k=4, max_list_size=3, extra=extra or {}, **config_kwargs,
    )
    return SynthesisService(handle4, config=config).start()


def make_cluster(handle4, count=3, config=None, faults=None, shard_extra=None):
    """Router over ``count`` in-process shards (probe loop not started)."""
    supervisor = ShardSupervisor(
        config=config or ShardingConfig(probe_interval=30.0)
    )
    shards = []
    for index in range(count):
        shard = InProcessShard(
            f"shard-{index}", make_service(handle4, extra=shard_extra)
        ).start()
        shards.append(shard)
        supervisor.add(shard)
    router = ShardRouter(supervisor, n_wires=4, faults=faults)
    return router, supervisor, shards


def submit(target, op, **fields) -> dict:
    line = json.dumps({"id": fields.pop("id", 1), "op": op, **fields})
    return json.loads(target.handle_line(line))


def owner_of(router, spec: str) -> str:
    word = Permutation.coerce(spec, 4).word
    return router.ring.owner(canonical(word, 4))


# ----------------------------------------------------------------------
# Rendezvous ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # insertion order is irrelevant
        keys = range(0, 2_000, 7)
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
        assert member_seed("s0") == member_seed("s0")
        assert member_seed("s0") != member_seed("s1")
        assert rendezvous_score(123, member_seed("s0")) == rendezvous_score(
            123, member_seed("s0")
        )

    def test_balance(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        counts = ring.spread(range(4_000))
        assert sum(counts.values()) == 4_000
        for owned in counts.values():  # each ~1000; allow wide slack
            assert 700 <= owned <= 1300, counts

    def test_minimal_disruption_on_remove(self):
        ring = HashRing(["s0", "s1", "s2"])
        keys = list(range(1_500))
        before = {k: ring.owner(k) for k in keys}
        ring.remove("s1")
        for k in keys:
            after = ring.owner(k)
            if before[k] != "s1":
                # Keys the removed member did not own never move.
                assert after == before[k]
            else:
                assert after in ("s0", "s2")

    def test_minimal_disruption_on_add(self):
        ring = HashRing(["s0", "s1", "s2"])
        keys = list(range(1_500))
        before = {k: ring.owner(k) for k in keys}
        ring.add("s3")
        moved = sum(1 for k in keys if ring.owner(k) != before[k])
        # The newcomer steals ~1/4 of the keyspace; everything that
        # moved must have moved *to* it.
        assert 0 < moved < len(keys) // 2
        for k in keys:
            if ring.owner(k) != before[k]:
                assert ring.owner(k) == "s3"

    def test_epoch_bumps_only_on_change(self):
        ring = HashRing()
        assert ring.epoch == 0
        assert ring.add("s0") and ring.epoch == 1
        assert not ring.add("s0") and ring.epoch == 1
        assert ring.add("s1") and ring.epoch == 2
        assert ring.remove("s0") and ring.epoch == 3
        assert not ring.remove("s0") and ring.epoch == 3

    def test_preference_starts_with_owner_and_covers_all(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        for key in range(200):
            pref = ring.preference(key)
            assert pref[0] == ring.owner(key)
            assert sorted(pref) == ["s0", "s1", "s2", "s3"]

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.owner(42) is None
        assert ring.preference(42) == []
        assert len(ring) == 0


# ----------------------------------------------------------------------
# Protocol: batch / shards ops
# ----------------------------------------------------------------------
class TestBatchProtocol:
    def test_batch_requires_requests_list(self):
        with pytest.raises(ProtocolError, match="non-empty 'requests'"):
            protocol.decode_request(json.dumps({"id": 1, "op": "batch"}))
        with pytest.raises(ProtocolError, match="non-empty 'requests'"):
            protocol.decode_request(
                json.dumps({"id": 1, "op": "batch", "requests": []})
            )

    def test_batch_sub_requests_must_be_work_ops(self):
        for bad_op in ("shutdown", "batch", "health", None):
            with pytest.raises(ProtocolError, match="must set 'op'"):
                protocol.decode_request(json.dumps({
                    "id": 1,
                    "op": "batch",
                    "requests": [{"id": 2, "op": bad_op, "spec": SHIFT}],
                }))

    def test_batch_size_cap(self):
        entries = [
            {"id": i, "op": "size", "spec": SHIFT}
            for i in range(protocol.MAX_BATCH_REQUESTS + 1)
        ]
        with pytest.raises(ProtocolError, match="the limit is 1024"):
            protocol.decode_request(
                json.dumps({"id": 1, "op": "batch", "requests": entries})
            )

    def test_shard_leave_requires_shard(self):
        with pytest.raises(ProtocolError, match="shard"):
            protocol.decode_request(
                json.dumps({"id": 1, "op": "shard_leave"})
            )

    def test_plain_daemon_answers_batch_sequentially(self, handle4):
        svc = make_service(handle4)
        try:
            body = submit(svc, "batch", requests=[
                {"id": 10, "op": "size", "spec": SHIFT},
                {"id": 11, "op": "size", "spec": "[broken"},
                {"id": 12, "op": "synth", "spec": IDENTITY},
            ])
            assert body["ok"], body
            results = body["result"]["results"]
            assert body["result"]["count"] == 3
            assert results[0]["ok"] and results[0]["result"]["size"] == 4
            assert not results[1]["ok"]  # one bad entry never poisons
            assert results[1]["error"]["kind"] == "invalid_spec"
            assert results[2]["ok"] and results[2]["result"]["size"] == 0
        finally:
            svc.shutdown()

    def test_plain_daemon_rejects_cluster_ops(self, handle4):
        svc = make_service(handle4)
        try:
            for op in ("shards", "shard_join"):
                body = submit(svc, op)
                assert not body["ok"]
                assert "sharded router" in body["error"]["message"]
            body = submit(svc, "shard_leave", shard="shard-0")
            assert not body["ok"]
        finally:
            svc.shutdown()


# ----------------------------------------------------------------------
# Router: routing, failover, rollups
# ----------------------------------------------------------------------
class TestRouter:
    def test_routes_by_equivalence_class(self, handle4):
        router, _sup, _shards = make_cluster(handle4)
        try:
            # All members of one equivalence class share an owner: the
            # inverse of a permutation is always in its class.
            perm = Permutation.coerce(HARD_SPEC, 4)
            inverse = perm.inverse() if hasattr(perm, "inverse") else None
            canon = canonical(perm.word, 4)
            assert router.ring.owner(canon) == owner_of(router, HARD_SPEC)
            if inverse is not None:
                assert canonical(inverse.word, 4) == canon
            body = submit(router, "size", spec=SHIFT)
            assert body["ok"] and body["result"]["size"] == 4
        finally:
            router.shutdown()

    def test_answers_match_single_daemon_byte_for_byte(self, handle4):
        router, _sup, _shards = make_cluster(handle4)
        single = make_service(handle4)
        try:
            for index, spec in enumerate(SPECS):
                sharded = router.handle_line(json.dumps(
                    {"id": index, "op": "synth", "spec": spec}
                ))
                alone = single.handle_line(json.dumps(
                    {"id": index, "op": "synth", "spec": spec}
                ))
                assert sharded == alone
        finally:
            single.shutdown()
            router.shutdown()

    def test_batch_scatter_gather_preserves_order(self, handle4):
        router, _sup, _shards = make_cluster(handle4)
        single = make_service(handle4)
        try:
            entries = [
                {"id": i, "op": "size", "spec": spec}
                for i, spec in enumerate(SPECS)
            ]
            line = json.dumps({"id": 99, "op": "batch", "requests": entries})
            sharded = json.loads(router.handle_line(line))
            alone = json.loads(single.handle_line(line))
            assert sharded["ok"] and alone["ok"]
            # Scattered across owners, gathered back in request order,
            # byte-identical to the sequential single-daemon answer.
            assert json.dumps(sharded, sort_keys=True) == json.dumps(
                alone, sort_keys=True
            )
            owners = {owner_of(router, spec) for spec in SPECS}
            assert len(owners) > 1  # the batch really did scatter
        finally:
            single.shutdown()
            router.shutdown()

    def test_routing_keys_match_per_entry_canonical(
        self, handle4, monkeypatch
    ):
        """A batch line's routing keys come from one canonicalization
        call; every slice holds exactly the entries whose
        ``ring.owner(canonical(...))`` names its owner, and a single
        request routes by that same key."""
        from repro.specs import routing_word, spec_from_wire

        dc_spec = {
            "kind": "truth_table",
            "n_inputs": 4,
            "rows": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1],
        }
        affine_spec = {
            "kind": "affine_xor", "matrix": [[1, 0], [1, 1]], "constant": [0, 1],
        }
        entries = [
            {"id": 0, "op": "synth", "spec": HARD_SPEC},
            {"id": 1, "op": "size", "spec": SHIFT},
            {"id": 2, "op": "compile", "spec": dc_spec},
            {"id": 3, "op": "synth", "spec": "[1,1]"},  # invalid
            {"id": 4, "op": "size", "spec": HARD_SPEC_2},
            {"id": 5, "op": "synth", "spec": IDENTITY},
            {"id": 6, "op": "compile", "spec": affine_spec},
            {"id": 7, "op": "size", "spec": HARD_SPEC},
        ]
        router, _sup, _shards = make_cluster(handle4)
        keys: dict = {}
        expected: dict = {}
        for index, entry in enumerate(entries):
            if index == 3:
                continue
            if entry["op"] == "compile":
                word = routing_word(spec_from_wire(entry["spec"]), 4)
            else:
                word = Permutation.coerce(entry["spec"], 4).word
            keys[index] = canonical(word, 4)
            owner = router.ring.owner(keys[index])
            expected.setdefault(owner, []).append(index)
        slices: dict = {}
        routed: list = []
        forward = router._forward_slice
        route = router._route_work

        def record_slice(owner, items, results):
            slices[owner] = [item[0] for item in items]
            return forward(owner, items, results)

        def record_route(request, target, canon, deadline):
            routed.append(canon)
            return route(request, target, canon, deadline)

        monkeypatch.setattr(router, "_forward_slice", record_slice)
        monkeypatch.setattr(router, "_route_work", record_route)
        try:
            body = submit(router, "batch", requests=entries)
            assert len(expected) > 1  # the batch really did scatter
            assert slices == expected
            results = body["result"]["results"]
            assert results[3]["error"]["kind"] == "invalid_spec"
            assert all(r["ok"] for i, r in enumerate(results) if i != 3)
            assert routed == []  # no slice fell back to single routing
            for index in keys:
                assert submit(router, **entries[index])["ok"]
            assert routed == list(keys.values())
        finally:
            router.shutdown()

    def test_failover_is_exact_when_owner_dies(self, handle4):
        router, sup, shards = make_cluster(handle4)
        try:
            owner = owner_of(router, SHIFT)
            next((s for s in shards if s.shard_id == owner)).kill()
            body = submit(router, "size", spec=SHIFT)
            # Re-routed to a survivor: still exact, never degraded.
            assert body["ok"] and body["result"]["size"] == 4
            assert body["result"].get("source") != "degraded"
            managed = sup.get(owner)
            # The miss was reported; the in-process backend restarts
            # instantly, so the shard is either already back or dead.
            assert managed.misses == 0 or managed.state in (DEAD, SUSPECT)
        finally:
            router.shutdown()

    def test_degrades_when_no_live_shard(self, handle4):
        router, _sup, shards = make_cluster(
            handle4,
            count=2,
            config=ShardingConfig(probe_interval=30.0, max_restarts=1),
        )
        try:
            for shard in shards:
                shard.restartable = False
                shard.kill()
            body = submit(router, "synth", spec=HARD_SPEC)
            assert body["ok"], body
            result = body["result"]
            assert result["source"] == "degraded"
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] in (
                "no_live_shard", "shard_unreachable"
            )
            assert result["size"] >= 5
        finally:
            for shard in shards:
                shard.restartable = True
            router.shutdown()

    def test_named_engine_wires_mismatch_matches_single_daemon(
        self, handle4
    ):
        # A named engine answers the daemon's one wire count like the
        # default engine does, at top level and as a batch entry.
        self.assert_rejected_alike(
            handle4,
            {
                "id": 7, "op": "synth", "engine": "heuristic",
                "spec": "[1,0,2,3]", "wires": 2,
            },
            "this daemon serves n_wires=4, got wires=2",
        )

    @pytest.mark.parametrize("engine", [None, "heuristic"])
    def test_narrow_spec_matches_single_daemon(self, handle4, engine):
        # A 2-wire spec without ``wires`` is rejected, not read as a
        # 4-wire word (default engine) or answered on 2 wires (named).
        entry = {"id": 7, "op": "synth", "spec": "[1,0,2,3]"}
        if engine is not None:
            entry["engine"] = engine
        self.assert_rejected_alike(
            handle4, entry, "this daemon serves n_wires=4, got a 2-wire spec"
        )

    @pytest.mark.parametrize("field_on", ["line", "entry"])
    def test_batch_deadline_matches_single_daemon(self, handle4, field_on):
        """A batch entry's deadline is the earlier of its own and the
        line's, both counted from accept.  A delay on the ``batch`` op
        burns it, so a solo daemon and a 2-shard router both degrade the
        hard entry, with the same bytes."""
        plan = [{"kind": "delay", "delay": 0.05, "op": "batch"}]
        router, _sup, _shards = make_cluster(
            handle4, count=2, faults=FaultInjector(FaultPlan.from_dicts(plan))
        )
        single = make_service(handle4, extra={"fault_plan": plan})
        entry = {"id": 7, "op": "synth", "spec": HARD_SPEC}
        line = {"id": 8, "op": "batch", "requests": [entry]}
        (line if field_on == "line" else entry)["deadline_ms"] = 10
        try:
            alone = single.handle_line(json.dumps(line))
            assert router.handle_line(json.dumps(line)) == alone
            result = json.loads(alone)["result"]["results"][0]["result"]
            assert result["source"] == "degraded"
            assert result["degraded_reason"] == "deadline"
        finally:
            single.shutdown()
            router.shutdown()

    def test_batch_entries_count_alike(self, handle4):
        router, _sup, _shards = make_cluster(handle4, count=2)
        single = make_service(handle4)
        line = json.dumps({"id": 8, "op": "batch", "requests": [
            {"id": 1, "op": "synth", "spec": SHIFT},
            {"id": 2, "op": "size", "spec": HARD_SPEC},
        ]})
        names = (
            "requests_total", "requests_batch", "requests_synth",
            "requests_size",
        )
        try:
            assert router.handle_line(line) == single.handle_line(line)
            counts = [
                {name: target.metrics.snapshot().get(name) for name in names}
                for target in (router, single)
            ]
            assert counts[0] == counts[1] == dict(zip(names, (3, 1, 1, 1)))
        finally:
            single.shutdown()
            router.shutdown()

    @staticmethod
    def assert_rejected_alike(handle4, entry, message):
        """A solo daemon and a 2-shard router answer ``entry`` with the
        same ``invalid_spec`` line, at top level and as a batch entry."""
        router, _sup, _shards = make_cluster(handle4, count=2)
        single = make_service(handle4)
        wanted = {
            "id": entry["id"],
            "ok": False,
            "error": {"kind": "invalid_spec", "message": message},
        }
        try:
            top = json.dumps(entry)
            alone = single.handle_line(top)
            assert router.handle_line(top) == alone
            assert json.loads(alone) == wanted
            batch = json.dumps({"id": 8, "op": "batch", "requests": [entry]})
            alone = single.handle_line(batch)
            assert router.handle_line(batch) == alone
            assert json.loads(alone)["result"]["results"] == [wanted]
        finally:
            single.shutdown()
            router.shutdown()

    def test_deeply_nested_line_is_a_protocol_error(self, handle4):
        router, _sup, _shards = make_cluster(handle4, count=1)
        try:
            body = json.loads(
                router.handle_line("[" * 200_009 + "]" * 200_009)
            )
            assert body["id"] is None and not body["ok"]
            assert body["error"]["kind"] == "protocol"
            assert submit(router, "ping")["result"]["pong"] is True
        finally:
            router.shutdown()

    def test_validation_errors_keep_the_request_id(self, handle4):
        """A top-level line that fails validation answers with its own
        id, byte for byte alike from a daemon and a router; a line that
        is not a JSON object still answers with a null id."""
        and_spec = {"kind": "truth_table", "n_inputs": 2, "rows": [0, 0, 0, 1]}
        lines = {
            1: json.dumps({
                "op": "compile", "id": 1, "spec": and_spec,
                "samples": protocol.MAX_COMPILE_SAMPLES + 1,
            }),
            7: json.dumps(
                {"op": "synth", "id": 7, "spec": SHIFT, "deadline_ms": 0}
            ),
            None: json.dumps([{"op": "synth", "id": 9, "spec": SHIFT}]),
        }
        single = make_service(handle4)
        router, _sup, _shards = make_cluster(handle4)
        try:
            for request_id, line in lines.items():
                answer = single.handle_line(line)
                assert router.handle_line(line) == answer
                body = json.loads(answer)
                assert body["id"] == request_id and not body["ok"]
                assert body["error"]["kind"] == "protocol"
        finally:
            single.shutdown()
            router.shutdown()

    def test_wires_mismatch_and_bad_spec_envelopes(self, handle4):
        router, _sup, _shards = make_cluster(handle4)
        try:
            body = submit(router, "size", spec=SHIFT, wires=3)
            assert not body["ok"]
            assert body["error"]["kind"] == "invalid_spec"
            body = submit(router, "size", spec="[nope")
            assert not body["ok"]
            assert body["error"]["kind"] == "invalid_spec"
        finally:
            router.shutdown()

    def test_health_and_stats_rollups(self, handle4):
        router, _sup, _shards = make_cluster(handle4)
        try:
            health = router.health()
            assert health["status"] == "ok"
            assert health["router"] is True
            assert len(health["shards"]) == 3
            for shard in health["shards"]:
                assert shard["state"] == UP
                assert shard["health"] == "ok"
                assert shard["breaker"] == "closed"
            stats = router.stats()
            assert stats["router"]["epoch"] == router.ring.epoch
            assert set(stats["shards"]) == {
                "shard-0", "shard-1", "shard-2"
            }
            assert all(s is not None for s in stats["shards"].values())
            body = submit(router, "ping")
            assert body["result"]["router"] and body["result"]["shards"] == 3
        finally:
            router.shutdown()

    def test_draining_router_rejects_work_with_shutdown_envelope(
        self, handle4
    ):
        router, _sup, _shards = make_cluster(handle4)
        router.shutdown()
        body = submit(router, "size", spec=SHIFT)
        assert not body["ok"]
        assert body["error"]["kind"] == "shutdown"


# ----------------------------------------------------------------------
# Supervisor state machine
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_suspect_then_dead_then_restart(self, handle4):
        config = ShardingConfig(
            probe_interval=30.0, suspect_after=1, dead_after=2, max_restarts=2
        )
        router, sup, shards = make_cluster(handle4, config=config)
        try:
            target = shards[0]
            managed = sup.get(target.shard_id)
            assert managed.state == UP
            target.restartable = False  # hold the corpse down
            target.kill()
            # In-process kill makes alive() false, so the first missed
            # probe already evicts (a dead process outranks counters).
            sup.probe(managed)
            assert managed.state == DEAD
            assert target.shard_id not in router.ring
            # Give back the restart budget: next probe respawns it.
            target.restartable = True
            sup.probe(managed)
            assert managed.state == UP
            assert target.shard_id in router.ring
            assert managed.restarts == 1
        finally:
            router.shutdown()

    def test_suspect_on_slow_probe_keeps_routable(self, handle4):
        config = ShardingConfig(
            probe_interval=30.0, suspect_after=1, dead_after=3
        )
        router, sup, shards = make_cluster(handle4, config=config)
        try:
            managed = sup.get(shards[1].shard_id)

            class Flaky:
                """alive() but failing calls: a wedged, not dead, peer."""

                def __getattr__(self, name):
                    return getattr(shards[1], name)

                def alive(self):
                    return True

                def call(self, payload, timeout=None):
                    raise ServiceError("wedged")

            managed.backend = Flaky()
            sup.probe(managed)
            assert managed.state == SUSPECT
            assert managed.routable  # one blip does not re-route the slice
            managed.backend = shards[1]
            sup.probe(managed)
            assert managed.state == UP and managed.misses == 0
        finally:
            router.shutdown()

    def test_restart_budget_exhausted_stays_dead(self, handle4):
        config = ShardingConfig(probe_interval=30.0, max_restarts=0)
        router, sup, shards = make_cluster(handle4, config=config)
        try:
            target = shards[2]
            target.restartable = False
            target.kill()
            managed = sup.get(target.shard_id)
            sup.probe(managed)
            sup.probe(managed)
            assert managed.state == DEAD
            assert managed.restarts == 0
            assert target.shard_id not in router.ring
            # The cluster still answers from the survivors.
            body = submit(router, "size", spec=SHIFT)
            assert body["ok"] and body["result"]["size"] == 4
            assert router.health()["status"] == "degraded"
        finally:
            target.restartable = True
            router.shutdown()

    def test_duplicate_shard_id_rejected(self, handle4):
        router, sup, shards = make_cluster(handle4, count=1)
        try:
            with pytest.raises(ServiceError, match="already registered"):
                sup.add(InProcessShard("shard-0", shards[0].service))
        finally:
            router.shutdown()


# ----------------------------------------------------------------------
# Live drain / leave
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_removes_reroutes_and_stops(self, handle4):
        router, sup, shards = make_cluster(handle4)
        try:
            victim = owner_of(router, SHIFT)
            epoch_before = router.ring.epoch
            body = submit(router, "shard_leave", shard=victim)
            assert body["ok"], body
            assert body["result"]["drained"] is True
            assert body["result"]["cancelled"] == 0
            assert body["result"]["epoch"] == epoch_before + 1
            assert victim not in router.ring
            assert sup.get(victim).state == LEFT
            # Its keyspace re-routes; answers stay exact.
            answer = submit(router, "size", spec=SHIFT, id=2)
            assert answer["ok"] and answer["result"]["size"] == 4
            # Idempotent: a second leave is a no-op success.
            again = submit(router, "shard_leave", shard=victim, id=3)
            assert again["ok"] and again["result"]["drained"] is True
        finally:
            router.shutdown()

    def test_drain_unknown_shard_is_an_error_envelope(self, handle4):
        router, _sup, _shards = make_cluster(handle4, count=1)
        try:
            body = submit(router, "shard_leave", shard="nope")
            assert not body["ok"]
            assert "unknown shard" in body["error"]["message"]
        finally:
            router.shutdown()

    def test_join_without_spawner_is_an_error_envelope(self, handle4):
        router, _sup, _shards = make_cluster(handle4, count=1)
        try:
            body = submit(router, "shard_join")
            assert not body["ok"]
            assert "spawner" in body["error"]["message"]
        finally:
            router.shutdown()

    def test_join_with_spawner_adds_member(self, handle4):
        supervisor = ShardSupervisor(
            config=ShardingConfig(probe_interval=30.0)
        )
        supervisor.add(
            InProcessShard("shard-0", make_service(handle4)).start()
        )
        router = ShardRouter(
            supervisor,
            n_wires=4,
            spawner=lambda shard_id: InProcessShard(
                shard_id, make_service(handle4)
            ).start(),
        )
        try:
            body = submit(router, "shard_join")
            assert body["ok"], body
            assert body["result"]["state"] == UP
            assert len(router.ring) == 2
            joined = body["result"]["shard"]
            assert joined in router.ring
            body = submit(router, "size", spec=SHIFT, id=2)
            assert body["ok"] and body["result"]["size"] == 4
        finally:
            router.shutdown()


# ----------------------------------------------------------------------
# Fault-plan validation for the shard kinds
# ----------------------------------------------------------------------
class TestShardFaultSpecs:
    def test_shard_filter_only_for_shard_kinds(self):
        with pytest.raises(ServiceError, match="'shard' filter"):
            FaultPlan.from_dicts([{"kind": "delay", "delay": 1, "shard": "x"}])
        plan = FaultPlan.from_dicts([
            {"kind": "kill_shard", "shard": "shard-1"},
            {"kind": "partition_shard", "times": 2},
        ])
        assert plan.specs[0].stage == "shard_kill"
        assert plan.specs[1].stage == "shard_partition"

    def test_partition_fires_only_for_matching_shard(self):
        injector = FaultInjector(FaultPlan.from_dicts([
            {"kind": "partition_shard", "shard": "shard-1"},
        ]))
        assert not injector.partition_shard("shard-0")
        assert injector.partition_shard("shard-1")
        assert not injector.partition_shard("shard-1")  # consumed
        assert injector.snapshot()["fired"] == {"partition_shard": 1}


# ----------------------------------------------------------------------
# Client: truncated responses are retriable transport failures
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A fake daemon whose per-connection behaviour is scripted.

    Each entry is either raw bytes to write after reading one request
    line (then close), or ``None`` meaning close without writing.
    """

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for payload in self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                conn.makefile("rb").readline()
                if payload is not None:
                    conn.sendall(payload)
        self._sock.close()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class TestClientTruncatedResponse:
    def test_retry_recovers_from_mid_response_drop(self):
        server = _ScriptedServer([
            b'{"id":1,"ok":true,"resu',  # dies mid-write: no newline
            b'{"id":1,"ok":true,"result":{"size":4}}\n',
        ])
        try:
            client = ServiceClient(
                *server.address,
                connect_timeout=2.0,
                read_timeout=5.0,
                retry=RetryPolicy(retries=2, backoff_base=0.01, jitter=0.0),
            )
            assert client.size(SHIFT) == 4
            assert server.connections == 2
            client.close()
        finally:
            server.close()

    def test_without_retry_truncation_raises_service_error(self):
        server = _ScriptedServer([b'{"id":1,"ok":tru'])
        try:
            client = ServiceClient(
                *server.address, connect_timeout=2.0, read_timeout=5.0
            )
            # A ServiceError (retriable transport class), not the
            # ProtocolError json decoding would raise.
            with pytest.raises(ServiceError, match="mid-response") as info:
                client.size(SHIFT)
            assert not isinstance(info.value, ProtocolError)
            client.close()
        finally:
            server.close()

    def test_shutdown_is_never_retried(self):
        server = _ScriptedServer([
            b'{"id":1,"ok":tru',
            b'{"id":1,"ok":true,"result":{"draining":true}}\n',
        ])
        try:
            client = ServiceClient(
                *server.address,
                connect_timeout=2.0,
                read_timeout=5.0,
                retry=RetryPolicy(retries=3, backoff_base=0.01, jitter=0.0),
            )
            with pytest.raises(ServiceError, match="mid-response"):
                client.shutdown()
            # Only the first scripted connection was ever used: the
            # drop was not retried for a non-idempotent op.
            assert server.connections == 1
            client.close()
        finally:
            server.close()
