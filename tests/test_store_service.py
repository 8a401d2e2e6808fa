"""Service-level tests for the mapped database store.

The headline property of the ``.rdb`` format: one store file backs
*every* process that maps it -- the shards of ``repro serve --shards N``
serve from the same physical pages (mapping-identity evidence read from
``/proc/<pid>/maps``), and their answers are byte-identical.  Also
covers the stats/health ``database`` block and the mapped-vs-rebuild
cold-start ratio.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro import store
from repro.core import packed
from repro.service import ServiceConfig, SynthesisService
from repro.service.protocol import word_to_hex
from repro.synth.database import OptimalDatabase
from repro.synth.synthesizer import OptimalSynthesizer

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="service tests are POSIX-only"
)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory holding the n=4, k=4 .rdb store."""
    cache = tmp_path_factory.mktemp("warm-cache")
    OptimalSynthesizer(n_wires=4, k=4, max_list_size=1, cache_dir=cache).prepare()
    assert [p.name for p in cache.iterdir()] == ["db-n4-k4.rdb"]
    return cache


def _hard_word(db) -> int:
    """A word of size k+1: must go through the A_i scan."""
    for a in db.reps_by_size[db.k][:64]:
        for b in db.reps_by_size[1]:
            word = packed.compose(int(a), int(b), 4)
            if db.size_of(word) is None:
                return word
    raise AssertionError("no beyond-database word found")


def _mapped_store_service(cache) -> SynthesisService:
    config = ServiceConfig(
        n_wires=4,
        k=4,
        max_list_size=1,
        db_cache_dir=cache,
    )
    return SynthesisService.from_config(config)


class TestSharedMapping:
    def test_two_shards_share_one_rdb_mapping(self, warm_cache):
        from repro.service.sharding import ShardCluster

        if not Path("/proc").is_dir():
            pytest.skip("/proc unavailable; cannot read process maps")
        rdb = warm_cache / "db-n4-k4.rdb"
        word = _hard_word(store.map_database(rdb))
        cluster = ShardCluster.launch(
            2, n_wires=4, k=4, max_list_size=1, cache_dir=warm_cache
        )
        try:
            backends = [
                managed.backend for managed in cluster.supervisor.shards()
            ]
            assert len(backends) == 2

            # Mapping-identity evidence: every shard process holds a
            # live mapping of the same .rdb file.
            for backend in backends:
                pid = backend.describe()["pid"]
                maps = Path(f"/proc/{pid}/maps").read_text()
                assert str(rdb) in maps, f"shard {pid} does not map {rdb}"

            # Byte-identical answers: the same beyond-database word,
            # scanned on each shard, comes back as the same circuit.
            request = {"id": 1, "op": "synth", "word": word_to_hex(word)}
            results = [backend.call(request)["result"] for backend in backends]
            assert results[0]["size"] == 5
            assert results[0]["source"] == "scan"
            assert results[1] == results[0]

            # Every shard's health payload advertises the mapping.
            for backend in backends:
                health = backend.call({"id": 2, "op": "health"})["result"]
                database = health["database"]
                assert database["mapped"] is True
                assert database["format"] == "rdb"
                assert database["store"] == str(rdb)
        finally:
            cluster.close()

    def test_inline_service_reports_database_block(self, warm_cache):
        service = _mapped_store_service(warm_cache)
        try:
            service.start()
            database = service.health()["database"]
            assert database["mapped"] is True
            assert database["format"] == "rdb"
        finally:
            service.shutdown(save_cache=False)


class TestColdStart:
    def test_mapped_cold_start_beats_npz_rebuild(self, db4_k5, tmp_path):
        """The mapped open must be at least 5x faster than rebuilding the
        table from the same representatives -- the rebuild an ``.npz``
        load paid (~100x at k=5; the margin is conservative for noisy CI
        hosts)."""
        rdb = store.write_rdb(db4_k5, tmp_path / "db-n4-k5.rdb")
        reps = db4_k5.reps_by_size

        def best_of(thunk, trials=3):
            times = []
            for _ in range(trials):
                start = time.perf_counter()
                thunk()
                times.append(time.perf_counter() - start)
            return min(times)

        rebuild = best_of(lambda: OptimalDatabase.from_reps(4, 5, reps))
        mapped = best_of(lambda: store.map_database(rdb))
        assert mapped * 5 < rebuild, (
            f"mapped cold start {mapped * 1e3:.2f}ms not >=5x faster than "
            f"the rebuild {rebuild * 1e3:.2f}ms"
        )
