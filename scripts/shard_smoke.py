#!/usr/bin/env python3
"""CI smoke for the sharded daemon: correctness under SIGKILL, then
throughput.

Three phases, all over *real* ``repro serve`` subprocesses mapping one
shared ``.rdb`` store (``REPRO_CACHE_DIR``, default ``.db-cache``):

1. **Reference** -- a 1-shard cluster answers a mixed batch (``synth``,
   ``size``, a don't-care ``compile``, an unparseable spec, a named
   engine with a wrong ``wires``); the raw response line is the
   byte-for-byte oracle.  A solo ``repro serve --stdio`` daemon on the
   same store must answer the same line with the same bytes, so a
   divergence only the daemon has cannot hide behind the router.
2. **Fault isolation** -- a 3-shard cluster; the shard that *owns* the
   first batch spec is SIGKILLed before the batch lands.  The router
   must re-route the dead shard's slice and return the **identical**
   response line, and the rolled-up ``health`` must show the supervisor
   restarting the victim back to ``ok``.
3. **Throughput** -- a 4th shard joins live (``shard_join``), then
   batches of 48 ``size`` requests on distinct classes of optimal size
   7 and 8 are timed against the 4-shard cluster vs the single daemon,
   alternating.  Each class is an ``A_i`` scan at k = 5, ``--lists 3``;
   no class appears in two batches, and every answer must come from a
   scan, so no timed line is a database or result-cache hit.  Gate:
   median speedup >= ``SHARD_SMOKE_MIN_SPEEDUP`` (default 2.0 with >= 4
   cores; relaxed to 1.2 below that, where the shards share too few
   cores to run their scans side by side -- docs/SHARDING.md records
   measured numbers).  A warmed 512-request fast-path batch is timed
   and printed too, but not gated.

The scan classes come from the request-path benchmark's scan pool
(``perfbench/data/pools.json.gz``), which records each class's optimal
size.

Env: ``SMOKE_K`` (default 5), ``REPRO_CACHE_DIR`` (default .db-cache),
``SHARD_SMOKE_MIN_SPEEDUP`` (float, overrides the core-count default).

Run:  PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

K = int(os.environ.get("SMOKE_K", "5"))
LISTS = 3
CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".db-cache"))
THROUGHPUT_REQUESTS = 512
TIMED_RUNS = 3
#: The gated batch: SCAN_REQUESTS scan-bound ``size`` requests, half of
#: each optimal size in SCAN_SIZES, timed SCAN_RUNS times per side.
SCAN_POOL = Path(__file__).resolve().parents[1] / "perfbench/data/pools.json.gz"
SCAN_SIZES = (7, 8)
SCAN_REQUESTS = 48
SCAN_RUNS = 6

#: Mixed batch: synth and size across easy and mid-depth specs, each a
#: distinct equivalence class so a 3-ring genuinely scatters it, plus
#: entries that reach the request front's shared validation: a
#: don't-care compile, an unparseable spec, and a named engine asked for
#: another wire count.  The line and entry 4 carry a generous
#: ``deadline_ms``, so both deadline fields cross the wire.  The first
#: entry stays first: phase 2 kills its owner.
MIXED_REQUESTS = [
    {"id": 1, "op": "synth", "spec": "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"},
    {"id": 2, "op": "size", "spec": "[1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14]"},
    {"id": 3, "op": "synth", "spec": "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]"},
    {
        "id": 4,
        "op": "size",
        "spec": "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]",
        "deadline_ms": 60000,
    },
    {"id": 5, "op": "synth", "spec": "[3,2,1,0,7,6,5,4,11,10,9,8,15,14,13,12]"},
    {"id": 6, "op": "size", "spec": "[15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]"},
    {
        "id": 7,
        "op": "compile",
        "spec": {
            "kind": "truth_table",
            "n_inputs": 4,
            "rows": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1],
        },
    },
    {"id": 8, "op": "size", "spec": "[broken"},
    {
        "id": 9,
        "op": "synth",
        "engine": "heuristic",
        "spec": "[1,0,2,3]",
        "wires": 2,
    },
]
MIXED_LINE = json.dumps({
    "id": 0, "op": "batch", "deadline_ms": 60000, "requests": MIXED_REQUESTS,
})
#: Entries of MIXED_REQUESTS that must fail, by id, with this error kind.
EXPECTED_ERRORS = {8: "invalid_spec", 9: "invalid_spec"}


def launch(count: int, faults=None):
    from repro.service.sharding import ShardCluster

    cluster = ShardCluster.launch(
        count,
        k=K,
        max_list_size=LISTS,
        cache_dir=CACHE_DIR,
        faults=faults,
    )
    cluster.router.start()
    return cluster


def fast_path_line() -> str:
    """A 512-request batch of ``size`` lookups over distinct classes."""
    from repro.core.permutation import Permutation
    from repro.engines import create_engine

    engine = create_engine(
        "optimal", n_wires=4, k=K, max_list_size=LISTS, cache_dir=CACHE_DIR
    ).prepare()
    reps = engine.impl.database.reps_by_size[min(3, K)]
    entries = [
        {
            "id": i,
            "op": "size",
            "spec": Permutation(int(reps[i % reps.shape[0]]), 4).spec(),
        }
        for i in range(THROUGHPUT_REQUESTS)
    ]
    return json.dumps({"id": 0, "op": "batch", "requests": entries})


def scan_lines(count: int) -> "list[str]":
    """``count`` batches of SCAN_REQUESTS ``size`` requests on distinct
    classes of the SCAN_SIZES, no class in two batches."""
    from repro.core.permutation import Permutation

    with gzip.open(SCAN_POOL, "rt", encoding="ascii") as fh:
        pool = json.load(fh)["scan"]
    per_size = SCAN_REQUESTS // len(SCAN_SIZES)
    by_size = [pool[str(size)].split() for size in SCAN_SIZES]
    lines = []
    for index in range(count):
        part = slice(index * per_size, (index + 1) * per_size)
        words = [w for row in zip(*(ws[part] for ws in by_size)) for w in row]
        entries = [
            {"id": i, "op": "size", "spec": Permutation(int(word, 16), 4).spec()}
            for i, word in enumerate(words)
        ]
        lines.append(json.dumps({"id": 0, "op": "batch", "requests": entries}))
    return lines


def scan_seconds(router, line: str) -> float:
    """Time one scan batch and check that every answer was a scan."""
    start = time.perf_counter()
    body = json.loads(router.handle_line(line))
    elapsed = time.perf_counter() - start
    assert body.get("ok"), f"scan batch failed: {body}"
    results = body["result"]["results"]
    assert len(results) == SCAN_REQUESTS, f"short scan batch: {body}"
    for sub in results:
        assert sub.get("ok") and sub["result"]["source"] == "scan", (
            f"scan batch entry not answered by a scan: {sub}"
        )
    return elapsed


def check_batch_body(label: str, raw: str) -> None:
    body = json.loads(raw)
    assert body.get("ok"), f"{label}: batch envelope not ok: {body}"
    results = body["result"]["results"]
    assert len(results) == len(MIXED_REQUESTS), f"{label}: short batch"
    for sub in results:
        kind = EXPECTED_ERRORS.get(sub.get("id"))
        if kind is not None:
            assert not sub.get("ok") and sub["error"]["kind"] == kind, (
                f"{label}: expected a {kind} error: {sub}"
            )
            continue
        assert sub.get("ok"), f"{label}: sub-request failed: {sub}"
        assert sub["result"].get("source") != "degraded", (
            f"{label}: degraded answer in batch: {sub}"
        )


def solo_answer(line: str) -> str:
    """``line``'s answer from a solo ``repro serve --stdio`` daemon on
    the shared store."""
    from repro.service.sharding.cluster import shard_environment

    command = [
        sys.executable, "-m", "repro", "serve", "--stdio",
        "-k", str(K), "--lists", str(LISTS),
    ]
    shutdown = json.dumps({"id": 1, "op": "shutdown"})
    done = subprocess.run(
        command,
        input=f"{line}\n{shutdown}\n",
        capture_output=True,
        text=True,
        env=shard_environment(CACHE_DIR),
        timeout=300,
        check=True,
    )
    return done.stdout.splitlines()[0]


def shard_entry(health: dict, shard_id: str) -> dict:
    for entry in health.get("shards", []):
        if entry.get("shard") == shard_id:
            return entry
    return {}


def await_restart(router, victim: str, budget: float = 120.0) -> dict:
    """Poll rolled-up health until the victim is back up with a restart
    on record; returns the final health body."""
    deadline = time.monotonic() + budget
    last = {}
    while time.monotonic() < deadline:
        last = router.health()
        shard = shard_entry(last, victim)
        if (
            last.get("status") == "ok"
            and shard.get("state") == "up"
            and shard.get("restarts", 0) >= 1
        ):
            return last
        time.sleep(0.5)
    raise AssertionError(
        f"victim {victim} never restarted to ok within {budget}s: {last}"
    )


def median_seconds(router, line: str) -> float:
    samples = []
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        body = json.loads(router.handle_line(line))
        samples.append(time.perf_counter() - start)
        assert body.get("ok"), f"timed batch failed: {body}"
        assert body["result"]["count"] == THROUGHPUT_REQUESTS
    return statistics.median(samples)


def main() -> int:
    from repro.core.equivalence import canonical
    from repro.core.permutation import Permutation

    CACHE_DIR.mkdir(parents=True, exist_ok=True)

    # -- Phase 1: single-daemon reference ------------------------------
    print(f"[shard-smoke] launching 1-shard reference cluster (k={K})")
    single = launch(1)
    try:
        reference = single.router.handle_line(MIXED_LINE)
        check_batch_body("reference", reference)
        print(f"[shard-smoke] reference batch ok ({len(reference)} bytes)")
        solo = solo_answer(MIXED_LINE)
        assert solo == reference, (
            "solo daemon diverged from the 1-shard router:\n"
            f"  router: {reference!r}\n  solo:   {solo!r}"
        )
        print("[shard-smoke] solo stdio daemon byte-identical to reference")

        # -- Phase 2: SIGKILL the owning shard under a 3-ring ----------
        print("[shard-smoke] launching 3-shard cluster")
        cluster = launch(3)
        try:
            word = Permutation.coerce(MIXED_REQUESTS[0]["spec"], 4).word
            victim = cluster.router.ring.owner(canonical(word, 4))
            backend = cluster.supervisor.get(victim).backend
            pid = backend.describe().get("pid")
            print(f"[shard-smoke] SIGKILL {victim} (pid {pid})")
            backend.kill()  # SIGKILL + reap; supervisor has not noticed

            routed = cluster.router.handle_line(MIXED_LINE)
            check_batch_body("post-kill", routed)
            assert routed == reference, (
                "sharded batch diverged from the single-daemon reference:\n"
                f"  reference: {reference!r}\n  sharded:   {routed!r}"
            )
            print("[shard-smoke] post-kill batch byte-identical to reference")

            health = await_restart(cluster.router, victim)
            print(
                f"[shard-smoke] health ok again: {victim} restarts="
                f"{shard_entry(health, victim)['restarts']} "
                f"epoch={health['epoch']}"
            )

            # -- Phase 3: live join to 4 shards, throughput gate -------
            joined = json.loads(
                cluster.router.handle_line(json.dumps({"id": 90, "op": "shard_join"}))
            )
            assert joined.get("ok"), f"shard_join failed: {joined}"
            assert len(cluster.router.ring) == 4, joined
            print(
                f"[shard-smoke] joined {joined['result']['shard']}; "
                f"ring is now {sorted(cluster.router.ring.members)}"
            )

            line = fast_path_line()
            # Warm both clusters once (store pages + result caches), then
            # time medians over identical warmed lines.
            for router in (single.router, cluster.router):
                warm = json.loads(router.handle_line(line))
                assert warm.get("ok"), f"warmup batch failed: {warm}"
            t_single = median_seconds(single.router, line)
            t_sharded = median_seconds(cluster.router, line)
            print(
                f"[shard-smoke] {THROUGHPUT_REQUESTS}-request fast-path "
                f"batch (not gated): single={t_single * 1000:.1f}ms "
                f"4-shard={t_sharded * 1000:.1f}ms "
                f"speedup={t_single / t_sharded:.2f}x"
            )

            # One warm-up line per cluster maps the scan lists and builds
            # every shard's miss filter; then timed lines alternate.
            lines = iter(scan_lines(2 + 2 * SCAN_RUNS))
            for router in (single.router, cluster.router):
                scan_seconds(router, next(lines))
            singles, shardeds = [], []
            for _ in range(SCAN_RUNS):
                singles.append(scan_seconds(single.router, next(lines)))
                shardeds.append(scan_seconds(cluster.router, next(lines)))
            t_single = statistics.median(singles)
            t_sharded = statistics.median(shardeds)
            speedup = t_single / t_sharded

            cores = os.cpu_count() or 1
            override = os.environ.get("SHARD_SMOKE_MIN_SPEEDUP")
            required = (
                float(override)
                if override
                else (2.0 if cores >= 4 else 1.2)
            )
            print(
                f"[shard-smoke] {SCAN_REQUESTS}-request scan batch runs (ms):"
                f" single={[round(t * 1000) for t in singles]}"
                f" 4-shard={[round(t * 1000) for t in shardeds]}"
            )
            print(
                f"[shard-smoke] {SCAN_REQUESTS}-request scan batch: "
                f"single={t_single * 1000:.1f}ms "
                f"4-shard={t_sharded * 1000:.1f}ms "
                f"speedup={speedup:.2f}x (required {required:.2f}x on "
                f"{cores} cores)"
            )
            if speedup < required:
                print(
                    f"[shard-smoke] FAIL: speedup {speedup:.2f}x below the "
                    f"{required:.2f}x gate",
                    file=sys.stderr,
                )
                return 1
        finally:
            cluster.close()
    finally:
        single.close()
    print("[shard-smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
