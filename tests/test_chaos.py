"""Chaos suite: deterministic fault injection against a live service.

Every test arms a :class:`FaultPlan` via ``ServiceConfig.extra``, drives
the daemon into the planned failure, and then proves the *recovery*:
subsequent queries answer correctly, degraded answers are valid circuits
labeled ``upper_bound``, and the breaker and shard state is visible in
``stats``/``health``.  No randomness, no sleeps-and-hope: each fault
fires a counted number of times at a fixed injection stage.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import pytest

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.service import (
    ResultCache,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    SynthesisService,
    TCPDaemon,
)

#: Size-5 specs: above the k=4 database depth of the shared fixtures,
#: so they always take the hard (A_i-list scan) path on first sight.
HARD_SPEC = "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]"
HARD_SPEC_2 = "[6,7,13,5,0,1,10,3,15,14,4,12,8,9,2,11]"

IDENTITY = "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]"
SHIFT = "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"
#: A truth table with two don't-care rows (tests/test_service_compile.py).
DC_SPEC = {
    "kind": "truth_table",
    "n_inputs": 4,
    "rows": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1],
}


def make_service(handle4, extra=None, **config_kwargs) -> SynthesisService:
    config = ServiceConfig(
        n_wires=4, k=4, max_list_size=3, extra=extra or {}, **config_kwargs,
    )
    return SynthesisService(handle4, config=config).start()


def submit(svc, op, **fields) -> dict:
    line = json.dumps({"id": fields.pop("id", 1), "op": op, **fields})
    return json.loads(svc.handle_line(line))


class SlowSearch:
    """Stub scan engine: sleeps ``before`` and ``after`` the real
    ``A_i`` scan, and records every word it is asked to scan."""

    def __init__(self, engine, before: float = 0.0, after: float = 0.0):
        self.engine = engine
        self.before = before
        self.after = after
        self.words: "list[int]" = []

    def search(self, word, cancel=None):
        self.words.append(word)
        time.sleep(self.before)
        outcome = self.engine.search(word, cancel=cancel)
        time.sleep(self.after)
        return outcome


def with_engine(handle4, engine):
    """The shared warm handle with its scan engine swapped for ``engine``."""
    return dataclasses.replace(handle4, engine=engine)


# ----------------------------------------------------------------------
# Deadline pressure -> graceful degradation
# ----------------------------------------------------------------------
class TestDeadlineDegradation:
    def test_blown_deadline_returns_upper_bound_not_hang(self, handle4):
        # The injected delay burns the 50 ms budget before dispatch, so
        # the hard query MUST degrade: a valid circuit, upper_bound
        # guarantee, and an explanation -- never a blocked connection.
        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "delay", "delay": 0.3, "op": "synth"}],
        })
        try:
            started = time.perf_counter()
            body = submit(svc, "synth", spec=HARD_SPEC, deadline_ms=50)
            elapsed = time.perf_counter() - started
            assert body["ok"]
            result = body["result"]
            assert result["source"] == "degraded"
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] == "deadline"
            assert result["tier"] == "heuristic"
            assert result["size"] >= 5  # true optimum is 5
            circuit = Circuit.parse(result["circuit"], 4)
            assert circuit.implements(Permutation.coerce(HARD_SPEC, 4))
            # Degradation is fast: no scan happened after the deadline.
            assert elapsed < 5.0
            assert svc.metrics.counter("responses_degraded").value == 1
            assert svc.breaker.snapshot()["deadline_misses"] >= 1
        finally:
            svc.shutdown()

    def test_degraded_answer_is_not_cached(self, handle4):
        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "delay", "delay": 0.3, "op": "synth"}],
        })
        try:
            degraded = submit(svc, "synth", spec=HARD_SPEC, deadline_ms=50)
            assert degraded["result"]["guarantee"] == "upper_bound"
            # Same spec, no deadline: the exact scan runs (a cached
            # degraded answer would come back as source "cache").
            exact = submit(svc, "synth", spec=HARD_SPEC, id=2)
            assert exact["result"]["size"] == 5
            assert exact["result"]["source"] == "scan"
            assert "guarantee" not in exact["result"]
        finally:
            svc.shutdown()

    def test_generous_deadline_still_exact(self, handle4):
        svc = make_service(handle4)
        try:
            body = submit(svc, "synth", spec=HARD_SPEC, deadline_ms=600_000)
            assert body["result"]["size"] == 5
            assert body["result"]["source"] == "scan"
        finally:
            svc.shutdown()

    def test_late_named_engine_answer_counts_as_deadline_miss(self, handle4):
        # The delay burns the 10 ms budget before the engine starts.  The
        # heuristic engine has no checkpoint, so its answer comes back
        # exact -- and late, which counts like a late scan answer.
        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "delay", "delay": 0.05, "op": "synth"}],
        })
        try:
            body = submit(
                svc, "synth", spec=HARD_SPEC, engine="heuristic",
                deadline_ms=10,
            )
            assert body["ok"], body
            assert body["result"]["source"] == "engine"
            assert svc.breaker.snapshot()["deadline_misses"] == 1
        finally:
            svc.shutdown()

    def test_compile_without_deadline_is_bounded_by_hard_timeout(
        self, handle4
    ):
        svc = make_service(
            handle4, extra={"resilience": {"hard_timeout": 1e-6}}
        )
        try:
            body = submit(svc, "compile", spec=DC_SPEC)
            assert body["ok"], body
            assert body["result"]["source"] == "degraded"
            assert body["result"]["degraded_reason"] == "deadline"
        finally:
            svc.shutdown()

    def test_scan_without_deadline_is_bounded_by_hard_timeout(self, handle4):
        svc = make_service(
            handle4, extra={"resilience": {"hard_timeout": 1e-6}}
        )
        try:
            body = submit(svc, "synth", spec=HARD_SPEC)
            assert body["ok"], body
            assert body["result"]["source"] == "degraded"
            assert body["result"]["degraded_reason"] == "deadline"
            circuit = Circuit.parse(body["result"]["circuit"], 4)
            assert circuit.implements(Permutation.coerce(HARD_SPEC, 4))
        finally:
            svc.shutdown()

    def test_scan_returning_after_its_deadline_answers_exact(self, handle4):
        # The scan finds its answer well inside 150 ms, then returns after
        # the deadline, past its last A_i checkpoint.  Like a late compile
        # or engine answer it goes out exact, and the miss is counted.
        slow = SlowSearch(handle4.engine, after=0.3)
        svc = make_service(with_engine(handle4, slow))
        try:
            body = submit(svc, "synth", spec=HARD_SPEC, deadline_ms=150)
            assert body["ok"], body
            assert body["result"]["source"] == "scan"
            assert body["result"]["size"] == 5
            assert svc.breaker.snapshot()["deadline_misses"] == 1
            tasks = svc.stats()["tasks"]
            assert tasks["done"] == 1
            assert tasks["in_flight"] == 0
        finally:
            svc.shutdown()


# ----------------------------------------------------------------------
# A connection thread that gives up
# ----------------------------------------------------------------------
class TestAbandonedRequest:
    def test_request_abandoned_while_queued_is_never_scanned(self, handle4):
        # The first hard request holds the dispatcher in a 0.5 s scan; the
        # second waits in the queue until its connection thread gives up
        # after request_timeout.  The dispatcher then skips it.
        slow = SlowSearch(handle4.engine, before=0.5)
        svc = make_service(
            with_engine(handle4, slow),
            extra={"resilience": {"request_timeout": 0.2}},
        )
        answers = []
        first = threading.Thread(target=lambda: answers.append(
            submit(svc, "synth", spec=HARD_SPEC)
        ))
        try:
            first.start()
            deadline = time.monotonic() + 10.0
            while svc.tasks.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert svc.tasks.in_flight == 1  # the dispatcher is scanning
            second = submit(svc, "synth", spec=HARD_SPEC_2, id=2)
            first.join(timeout=30.0)
            assert not first.is_alive()
            # Both requests were abandoned: the first mid-scan, the
            # second in the queue.  The second's degraded answer, which
            # nobody reads, means the dispatcher reached it.
            abandoned = svc.metrics.counter("degraded_abandoned")
            while abandoned.value < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert abandoned.value == 2
            assert slow.words == [Permutation.coerce(HARD_SPEC, 4).word]
            assert not second["ok"], second
            assert second["error"]["kind"] == "internal"
            assert answers[0]["error"]["kind"] == "internal"
        finally:
            svc.shutdown()


# ----------------------------------------------------------------------
# Circuit breaker transitions, visible end to end
# ----------------------------------------------------------------------
class TestBreakerTransitions:
    def test_trip_shed_probe_close(self, handle4):
        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "delay", "delay": 0.3, "op": "synth"}],
            "resilience": {
                "breaker_failure_threshold": 1,
                "breaker_cooldown": 0.2,
            },
        })
        try:
            # One deadline miss trips the threshold-1 breaker open.
            first = submit(svc, "synth", spec=HARD_SPEC, deadline_ms=50)
            assert first["result"]["degraded_reason"] == "deadline"
            snap = svc.stats()["resilience"]["breaker"]
            assert snap["state"] == "open" and snap["trips"] == 1
            assert svc.health()["status"] == "degraded"
            # While open, hard queries shed to the fallback without a scan.
            shed = submit(svc, "synth", spec=HARD_SPEC_2, id=2)
            assert shed["result"]["degraded_reason"] == "breaker_open"
            assert shed["result"]["guarantee"] == "upper_bound"
            # Fast-path queries are unaffected by an open breaker.
            easy = submit(svc, "size", spec=SHIFT, id=3)
            assert easy["ok"] and easy["result"]["source"] in ("db", "cache")
            # After the cooldown the probe scan runs and closes it.
            time.sleep(0.25)
            probe = submit(svc, "synth", spec=HARD_SPEC_2, id=4)
            assert probe["result"]["size"] == 5
            assert probe["result"]["source"] == "scan"
            snap = svc.stats()["resilience"]["breaker"]
            assert snap["state"] == "closed"
            assert svc.health()["status"] == "ok"
        finally:
            svc.shutdown()


# ----------------------------------------------------------------------
# Dropped connection mid-response -> client retry recovers
# ----------------------------------------------------------------------
class TestDropConnection:
    def test_client_retries_through_drop(self, handle4):
        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "drop_connection"}],
        })
        daemon = TCPDaemon(svc, port=0)
        daemon.start()
        host, port = daemon.address
        try:
            client = ServiceClient(
                host, port, connect_timeout=2.0, read_timeout=10.0,
                retry=RetryPolicy(retries=2, backoff_base=0.01, jitter=0.0),
            )
            # First response is swallowed by the fault; the retry
            # reconnects and gets the answer.
            assert client.size(IDENTITY) == 0
            health = client.health()
            assert health["faults"]["fired"] == {"drop_connection": 1}
            client.close()
        finally:
            daemon.stop()

    def test_without_retry_the_drop_surfaces(self, handle4):
        from repro.errors import ServiceError

        svc = make_service(handle4, extra={
            "fault_plan": [{"kind": "drop_connection"}],
        })
        daemon = TCPDaemon(svc, port=0)
        daemon.start()
        host, port = daemon.address
        try:
            client = ServiceClient(host, port, connect_timeout=2.0,
                                   read_timeout=10.0)
            with pytest.raises(ServiceError, match="closed the connection"):
                client.size(IDENTITY)
            # The daemon itself is fine: a fresh request answers.
            assert client.size(IDENTITY) == 0
            client.close()
        finally:
            daemon.stop()


# ----------------------------------------------------------------------
# Corrupt persisted cache -> quarantine and keep serving
# ----------------------------------------------------------------------
class TestCorruptCache:
    def test_quarantine_and_recover(self, handle4, tmp_path):
        cache_path = tmp_path / "results.json"
        first = make_service(
            handle4,
            result_cache_path=str(cache_path),
            extra={"fault_plan": [{"kind": "corrupt_cache"}]},
        )
        warm = submit(first, "size", spec=SHIFT)
        assert warm["ok"]
        # Shutdown saves the cache, then the fault garbles the file --
        # the simulated torn write.
        first.shutdown()
        assert cache_path.exists()

        second = make_service(handle4, result_cache_path=str(cache_path))
        try:
            # The corrupt file was quarantined, not fatal.
            assert second.cache.quarantined is not None
            assert second.cache.quarantined.exists()
            health = second.health()
            assert health["status"] == "degraded"
            assert health["cache"]["quarantined"] is not None
            # And the daemon still answers correctly from scratch.
            body = submit(second, "size", spec=SHIFT)
            assert body["ok"]
            assert body["result"]["size"] == warm["result"]["size"]
        finally:
            second.shutdown()
        # The post-quarantine shutdown save produced a clean file again.
        third = ResultCache(path=cache_path)
        assert third.quarantined is None
        assert len(third) > 0


# ----------------------------------------------------------------------
# Named escalation engine: preempted before any proof
# ----------------------------------------------------------------------
class TestRaceAllLanesBlowDeadline:
    def test_race_degrades_to_tagged_upper_bound_never_cached(self, handle4):
        # The delay fault sleeps past the 1 ms budget before the engine
        # starts, so the deadline has expired at the scan's first
        # checkpoint.
        svc = make_service(handle4, extra={"fault_plan": [
            {"kind": "delay", "op": "synth", "delay": 0.01},
        ]})
        try:
            # 1 ms cannot fit the scan for a size-5 function: the request
            # must come back as a *tagged* upper bound, not an error, not
            # an exact answer, not a hang.
            body = submit(
                svc, "synth", spec=HARD_SPEC, engine="race", deadline_ms=1
            )
            assert body["ok"], body
            result = body["result"]
            assert result["guarantee"] == "upper_bound"
            assert result["source"] == "degraded"
            assert result["degraded_reason"] == "deadline"
            circuit = Circuit.parse(result["circuit"], 4)
            assert circuit.implements(Permutation.coerce(HARD_SPEC, 4))
            # The preempted work is observable, by reason, in stats.
            stats = svc.stats()
            assert stats["tasks"]["cancelled_by_reason"].get("deadline", 0) >= 1
            # Degraded answers are never cached: the uncontended retry
            # gets the provably-optimal answer from the engine.
            again = submit(svc, "synth", spec=HARD_SPEC, engine="race", id=2)
            assert again["ok"], again
            assert again["result"]["source"] == "engine"
            assert again["result"]["guarantee"] == "optimal"
            assert again["result"]["size"] == 5
            assert again["result"]["extra"]["tier"] == "optimal"
        finally:
            svc.shutdown()

    def test_served_race_without_deadline_is_bounded(self, handle4):
        # hwb4 is out of reach at L=7: the optimal tier can only prove a
        # bound, and with SAT allowed up to 20 gates the SAT tier would
        # grind for a very long time.  A *served* request must inherit
        # the daemon's hard_timeout as its deadline and degrade, not
        # park the engine lock.
        out_of_reach = "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]"
        svc = make_service(
            handle4,
            extra={
                "resilience": {"hard_timeout": 0.2},
                "engine_options": {"race": {"sat_gate_limit": 20}},
            },
        )
        try:
            started = time.monotonic()
            body = submit(svc, "synth", spec=out_of_reach, engine="race")
            elapsed = time.monotonic() - started
            assert body["ok"], body
            result = body["result"]
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] == "deadline"
            assert elapsed < 30.0
            circuit = Circuit.parse(result["circuit"], 4)
            assert circuit.implements(Permutation.coerce(out_of_reach, 4))
        finally:
            svc.shutdown()


class TestNamedEnginePreemption:
    @pytest.mark.parametrize("reason", ["breaker_open", "shutdown"])
    def test_preempted_request_degrades_and_is_never_cached(
        self, handle4, tmp_path, reason
    ):
        # hwb4 is out of reach at L=7; with SAT allowed up to 20 gates
        # the SAT tier outlasts the preemption by far.  A breaker trip or
        # a shutdown mid-request must answer the tagged upper bound with
        # that reason -- and never leave it in the cache, not even in
        # the file saved at shutdown.
        out_of_reach = "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]"
        extra = {
            "resilience": {"breaker_failure_threshold": 1},
            "engine_options": {"race": {"sat_gate_limit": 20}},
        }
        cache_path = str(tmp_path / "results.json")
        svc = make_service(handle4, extra=extra, result_cache_path=cache_path)
        answers = []
        worker = threading.Thread(target=lambda: answers.append(
            submit(svc, "synth", spec=out_of_reach, engine="race")
        ))
        try:
            worker.start()
            started = time.monotonic()
            while svc.tasks.in_flight == 0 and time.monotonic() - started < 10:
                time.sleep(0.01)
            time.sleep(0.5)  # well into the SAT tier
            assert svc.tasks.in_flight >= 1
            if reason == "breaker_open":
                svc.breaker.record_failure()  # trips: preempts in-flight work
            else:
                svc.shutdown()
            worker.join(timeout=30)
            assert not worker.is_alive()
            (body,) = answers
            assert body["ok"], body
            result = body["result"]
            assert result["source"] == "degraded"
            assert result["guarantee"] == "upper_bound"
            assert result["degraded_reason"] == reason
            circuit = Circuit.parse(result["circuit"], 4)
            assert circuit.implements(Permutation.coerce(out_of_reach, 4))
            tasks = svc.stats()["tasks"]
            assert tasks["cancelled_by_reason"].get(reason, 0) == 1
            assert tasks["in_flight"] == 0
            if reason == "shutdown":
                # The next request meets the cache the drain saved.
                svc = make_service(
                    handle4, extra=extra, result_cache_path=cache_path
                )
            again = submit(
                svc, "synth", spec=out_of_reach, engine="race",
                deadline_ms=300, id=2,
            )
            assert again["ok"], again
            assert again["result"]["source"] != "cache"
        finally:
            svc.shutdown()


# ----------------------------------------------------------------------
# Shutdown preempts in-flight hard work
# ----------------------------------------------------------------------
class TestShutdownPreemptsHardWork:
    def test_shutdown_cancels_in_flight_scan(self, handle4):
        import threading

        svc = make_service(handle4)
        responses = []

        def client():
            responses.append(submit(svc, "synth", spec=HARD_SPEC_2))

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        # Wait (bounded) until the scan's token is actually in flight,
        # then pull the plug.
        deadline = time.monotonic() + 10.0
        while svc.tasks.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        svc.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert responses and responses[0]["ok"], responses
        result = responses[0]["result"]
        # Either the scan finished just before the cancel landed (exact
        # answer) or it was preempted and degraded with the shutdown tag;
        # both are valid responses -- a hang or an error is the bug.
        if result["source"] == "degraded":
            assert result["degraded_reason"] == "shutdown"
            assert result["guarantee"] == "upper_bound"
            snap = svc.tasks.snapshot()
            assert snap["cancelled_by_reason"].get("shutdown", 0) >= 1
        else:
            assert result["source"] == "scan"
            assert result["size"] == 5
        assert svc.tasks.snapshot()["in_flight"] == 0
        assert svc.stopped

    def test_shutdown_cancels_the_rest_of_a_batch(self, handle4):
        # Two hard queries queue before the dispatcher starts, so they
        # leave as one batch and scan one after the other.  Shutdown
        # during the first must stop the second too: it is never scanned
        # and degrades with the shutdown tag.
        slow = SlowSearch(handle4.engine, before=0.3)
        svc = SynthesisService(
            with_engine(handle4, slow),
            config=ServiceConfig(n_wires=4, k=4, max_list_size=3),
        )
        answers = []
        clients = [
            threading.Thread(target=lambda s=spec: answers.append(
                submit(svc, "synth", spec=s)
            ), daemon=True)
            for spec in (HARD_SPEC, HARD_SPEC_2)
        ]
        for client in clients:
            client.start()
        deadline = time.monotonic() + 10.0
        while svc.queue.depth < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        svc.start()
        while not slow.words and time.monotonic() < deadline:
            time.sleep(0.001)
        assert svc.tasks.in_flight == 2  # both scans tracked, one running
        svc.shutdown()
        for client in clients:
            client.join(timeout=30.0)
        assert not any(client.is_alive() for client in clients)
        assert svc.metrics.histogram("batch_size").count == 1
        assert len(slow.words) == 1
        for body in answers:
            assert body["ok"], body
            assert body["result"]["source"] == "degraded"
            assert body["result"]["degraded_reason"] == "shutdown"
        tasks = svc.tasks.snapshot()
        assert tasks["cancelled_by_reason"] == {"shutdown": 2}
        assert tasks["in_flight"] == 0
        # A cancelled scan is no sample of what a scan costs.
        assert svc.metrics.histogram("scan_seconds").count == 0

# ----------------------------------------------------------------------
# Sharded cluster: fault isolation under shard-level chaos
# ----------------------------------------------------------------------
SIZE6_SPEC = "[13,8,10,2,9,12,14,6,3,15,0,1,7,11,4,5]"
SIZE6_SPEC_2 = "[0,1,2,3,7,14,15,13,8,9,10,11,12,4,5,6]"
MIXED_SPECS = [IDENTITY, SHIFT, HARD_SPEC, HARD_SPEC_2, SIZE6_SPEC,
               SIZE6_SPEC_2]


def make_shard_cluster(handle4, count=3, faults=None, shard_extra=None,
                       sharding_config=None):
    """Router over in-process shards; probe loop left unstarted so every
    state transition in these tests is driven explicitly."""
    from repro.service.sharding import (
        InProcessShard, ShardingConfig, ShardRouter, ShardSupervisor,
    )

    supervisor = ShardSupervisor(
        config=sharding_config or ShardingConfig(probe_interval=30.0)
    )
    shards = []
    for index in range(count):
        shard = InProcessShard(
            f"shard-{index}",
            make_service(handle4, extra=shard_extra),
        ).start()
        shards.append(shard)
        supervisor.add(shard)
    router = ShardRouter(supervisor, n_wires=4, faults=faults)
    return router, supervisor, shards


def shard_owner(router, spec: str) -> str:
    from repro.core.equivalence import canonical

    word = Permutation.coerce(spec, 4).word
    return router.ring.owner(canonical(word, 4))


class TestShardKilledMidBatch:
    def test_batch_never_loses_a_request(self, handle4):
        """SIGKILL-equivalent crash of one shard at the exact moment its
        batch slice is forwarded: the slice re-routes to survivors (or
        the restarted shard), every request answers, and the incident is
        visible in the rolled-up health."""
        from repro.service.faults import FaultInjector, FaultPlan

        probe = make_shard_cluster(handle4)[0]
        victim = shard_owner(probe, HARD_SPEC)
        probe.shutdown()

        faults = FaultInjector(FaultPlan.from_dicts([
            {"kind": "kill_shard", "shard": victim},
        ]))
        router, sup, shards = make_shard_cluster(handle4, faults=faults)
        single = make_service(handle4)
        try:
            entries = [
                {"id": i, "op": "synth" if i % 2 else "size", "spec": spec}
                for i, spec in enumerate(MIXED_SPECS)
            ]
            line = json.dumps({"id": 7, "op": "batch", "requests": entries})
            body = json.loads(router.handle_line(line))
            assert body["ok"], body
            results = body["result"]["results"]
            assert len(results) == len(entries)
            # Nothing lost, nothing poisoned: every sub-request has an
            # envelope, and every answer is exact (the store is complete
            # on every shard, so re-routing never needs to degrade while
            # survivors remain).
            expected = json.loads(single.handle_line(line))
            assert results == expected["result"]["results"]
            assert all(env["ok"] for env in results)
            assert all(
                env["result"].get("source") != "degraded" for env in results
            )
            # The chaos really happened and is visible in the rollup.
            assert faults.snapshot()["fired"] == {"kill_shard": 1}
            health = router.health()
            rollup = {s["shard"]: s for s in health["shards"]}
            assert rollup[victim]["restarts"] >= 1
            assert health["restarts"] >= 1
            assert any(
                event["event"] == "restarted"
                for event in rollup[victim]["events"]
            )
        finally:
            single.shutdown()
            router.shutdown()


class TestBreakerOpenShardShedsOnlyItsSlice:
    def test_other_slices_stay_exact(self, handle4):
        router, sup, shards = make_shard_cluster(handle4)
        try:
            owners = {spec: shard_owner(router, spec) for spec in
                      (HARD_SPEC, HARD_SPEC_2, SIZE6_SPEC, SIZE6_SPEC_2)}
            assert len(set(owners.values())) >= 2, owners
            shed_spec = HARD_SPEC
            victim = owners[shed_spec]
            other_spec = next(
                spec for spec, owner in owners.items() if owner != victim
            )
            # Trip the victim's breaker (consecutive hard-path failures).
            victim_service = next(
                s.service for s in shards if s.shard_id == victim
            )
            while victim_service.breaker.allow():
                victim_service.breaker.record_failure()
            # Its keyspace slice sheds hard queries to tagged upper
            # bounds...
            shed = submit(router, "synth", spec=shed_spec)
            assert shed["ok"], shed
            assert shed["result"]["guarantee"] == "upper_bound"
            assert shed["result"]["degraded_reason"] == "breaker_open"
            # ...while its fast path and every other shard's slice stay
            # exact: the blast radius is one shard's hard queries.
            fast = submit(router, "size", spec=SHIFT, id=2)
            assert fast["ok"] and fast["result"]["size"] == 4
            exact = submit(router, "synth", spec=other_spec, id=3)
            assert exact["ok"], exact
            assert exact["result"]["source"] == "scan"
            assert "guarantee" not in exact["result"]
            # The rollup pins the incident to the one shard.
            health = router.health()
            assert health["status"] == "degraded"
            breakers = {
                s["shard"]: s["breaker"] for s in health["shards"]
            }
            assert breakers[victim] == "open"
            assert all(
                state == "closed"
                for shard, state in breakers.items() if shard != victim
            )
        finally:
            router.shutdown()


class TestLiveDrainCompletesInFlight:
    def test_zero_dropped_requests(self, handle4):
        """``shard_leave`` while the leaving shard has a request in
        flight: the request completes exactly, nothing is cancelled,
        and the keyspace re-routes to the survivors."""
        router, sup, shards = make_shard_cluster(
            handle4,
            shard_extra={
                # Slow every shard's synth path down so the drain
                # demonstrably overlaps the in-flight request.
                "fault_plan": [
                    {"kind": "delay", "delay": 0.3, "op": "synth",
                     "times": 1},
                ],
            },
        )
        try:
            victim = shard_owner(router, HARD_SPEC)
            managed = sup.get(victim)
            responses = []

            def client():
                responses.append(submit(router, "synth", spec=HARD_SPEC))

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            deadline = time.monotonic() + 10.0
            while managed.tasks.in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert managed.tasks.in_flight == 1  # the drain overlaps real work
            body = submit(router, "shard_leave", shard=victim, id=2)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # The leave waited for the in-flight request: completed, not
            # cancelled, not degraded.
            assert body["ok"], body
            assert body["result"]["drained"] is True
            assert body["result"]["cancelled"] == 0
            assert responses and responses[0]["ok"], responses
            result = responses[0]["result"]
            assert result["size"] == 5
            assert result.get("source") != "degraded"
            snap = router.tasks.snapshot()
            assert snap["cancelled_by_reason"].get("shard_leave", 0) == 0
            # The shard is out: parked in `left`, off the ring, its
            # keyspace answered exactly by the survivors.
            assert victim not in router.ring
            assert not managed.routable
            again = submit(router, "synth", spec=HARD_SPEC, id=3)
            assert again["ok"] and again["result"]["size"] == 5
            assert again["result"].get("source") != "degraded"
        finally:
            router.shutdown()
