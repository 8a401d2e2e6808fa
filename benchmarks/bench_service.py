"""Throughput benchmark for the synthesis service daemon.

Drives ``>= 1000`` mixed synthesis queries through one daemon lifetime
over real TCP connections with concurrent clients, then checks the
acceptance properties end to end:

* every response is byte-identical to a direct search call on the
  warm handle's engine;
* batch coalescing is observable in the ``stats`` output: requests
  that queue while the dispatcher is busy leave as one batch (mean
  batch size > 1 under concurrent load);
* the daemon drains gracefully on shutdown.

The workload mixes the three serving paths: ~70% database hits
(size <= k, answered by peeling), ~20% repeats (served from the
canonical-class result cache), ~10% hard queries (A_i-list scans).
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import equivalence
from repro.core.permutation import Permutation
from repro.engines import create_engine
from repro.service import ServiceClient, ServiceConfig, SynthesisService, TCPDaemon

from conftest import print_header

TOTAL_QUERIES = 1100
CLIENT_THREADS = 8

# Optimal sizes 5 and 6 against the k=4 service database: hard path.
HARD_SPECS = [
    "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]",
    "[6,7,13,5,0,1,10,3,15,14,4,12,8,9,2,11]",
    "[0,7,6,1,4,5,2,3,11,12,13,10,15,14,9,8]",
    "[13,8,10,2,9,12,14,6,3,15,0,1,7,11,4,5]",
    "[5,4,14,15,8,1,11,2,13,12,6,7,0,9,3,10]",
    "[0,1,2,3,7,14,15,13,8,9,10,11,12,4,5,6]",
]


@pytest.fixture(scope="module")
def service_handle():
    """A self-contained warm handle (k=4, L=6): builds in under a second
    and still exercises both the peel path and the hard scan path."""
    engine = create_engine(
        "optimal", n_wires=4, k=4, max_list_size=2, cache_dir=False
    )
    return engine.handle()


def build_workload(handle, rng: random.Random) -> list[str]:
    """A shuffled mix of easy, repeated, and hard specs."""
    db = handle.database
    easy: list[str] = []
    while len(easy) < 40:
        size = rng.randint(0, db.k)
        reps = db.reps_by_size[size]
        if not len(reps):
            continue
        word = int(reps[rng.randrange(len(reps))])
        members = sorted(equivalence.equivalence_class(word, handle.n_wires))
        member = members[rng.randrange(len(members))]
        easy.append(Permutation.from_word(member, handle.n_wires).spec())
    workload: list[str] = []
    while len(workload) < TOTAL_QUERIES:
        roll = rng.random()
        if roll < 0.10:
            workload.append(rng.choice(HARD_SPECS))
        elif roll < 0.30 and workload:
            workload.append(rng.choice(workload))  # repeat: cache territory
        else:
            workload.append(rng.choice(easy))
    rng.shuffle(workload)
    return workload


def test_service_throughput(benchmark, service_handle):
    rng = random.Random(0xDAC2010)
    workload = build_workload(service_handle, rng)
    distinct = sorted(set(workload))
    # Ground truth from the *same* engine, queried directly.
    expected = {}
    for spec in distinct:
        outcome = service_handle.engine.search(
            Permutation.from_spec(spec).word
        )
        expected[spec] = (outcome.size, str(outcome.circuit))

    service = SynthesisService(
        service_handle,
        config=ServiceConfig(
            n_wires=service_handle.n_wires,
            k=service_handle.k,
            max_list_size=service_handle.max_list_size,
        ),
    )
    daemon = TCPDaemon(service, port=0).start()
    host, port = daemon.address
    shards = [workload[i::CLIENT_THREADS] for i in range(CLIENT_THREADS)]
    mismatches: list[str] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(CLIENT_THREADS + 1)

    def run_client(shard: list[str]) -> None:
        try:
            with ServiceClient(host, port, timeout=120.0) as client:
                barrier.wait()
                for spec in shard:
                    result = client.synth(spec)
                    size, circuit = expected[spec]
                    if result["size"] != size or result["circuit"] != circuit:
                        mismatches.append(spec)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    def fire_all() -> float:
        threads = [
            threading.Thread(target=run_client, args=(shard,))
            for shard in shards
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    try:
        elapsed = benchmark.pedantic(fire_all, rounds=1, iterations=1)
        assert not errors, errors[:3]
        assert not mismatches, mismatches[:5]

        with ServiceClient(host, port) as client:
            stats = client.stats()
        served = stats["metrics"]["requests_synth"]
        mean_batch = stats["metrics"]["batch_size"]["mean"]
        hit_rate = stats["cache"]["hit_rate"]

        print_header("Synthesis service throughput")
        print(f"queries served        {served}")
        print(f"client threads        {CLIENT_THREADS}")
        print(f"wall time             {elapsed:.3f} s")
        print(f"throughput            {served / elapsed:,.0f} queries/s")
        print(f"mean batch size       {mean_batch:.2f}")
        print(f"cache hit rate        {hit_rate:.1%}")
        print(f"hard queries (scan)   {stats['metrics'].get('hard_queries', 0)}")

        benchmark.extra_info.update(
            {
                "queries": served,
                "throughput_qps": round(served / elapsed, 1),
                "mean_batch_size": round(mean_batch, 2),
                "cache_hit_rate": round(hit_rate, 3),
            }
        )

        # Acceptance: >= 1000 queries in one lifetime, coalescing visible.
        assert served >= 1000
        assert mean_batch > 1.0, (
            f"expected coalescing under {CLIENT_THREADS} concurrent "
            f"clients, got mean batch size {mean_batch}"
        )
    finally:
        # Graceful shutdown with draining, part of the measured contract.
        try:
            with ServiceClient(host, port) as client:
                client.shutdown()
            deadline = time.monotonic() + 30
            while not service.stopped and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.stopped, "daemon failed to drain and stop"
        finally:
            daemon.stop()
