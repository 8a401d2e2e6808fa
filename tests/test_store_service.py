"""Service-level tests for the mapped database store.

The headline property of the ``.rdb`` format: one store file backs
*every* process that maps it -- the daemon's forked workers serve from
the same physical pages as the parent (mapping-identity evidence read
from ``/proc/<pid>/maps``), and their answers are byte-identical.  Also
covers the stats/health ``database`` block, spawn-worker store routing,
and the mapped-vs-rebuild cold-start ratio.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from pathlib import Path

import pytest

from repro import store
from repro.core import packed
from repro.service import ServiceConfig, SynthesisService
from repro.service.tasks import DONE, TaskRegistry
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
    """A word of size k+1: must go through the hard-query pool."""
    for a in db.reps_by_size[db.k][:64]:
        for b in db.reps_by_size[1]:
            word = packed.compose(int(a), int(b), 4)
            if db.size_of(word) is None:
                return word
    raise AssertionError("no beyond-database word found")


def _solve(pool, words, timeout) -> list:
    """Solve ``words`` as one scan work item each; their results."""
    registry = TaskRegistry()
    items = [registry.create("scan", payload=word) for word in words]
    pool.solve_items(items, timeout=timeout)
    assert all(item.state == DONE for item in items)
    return [item.result for item in items]


def _mapped_store_service(cache, workers: int) -> SynthesisService:
    config = ServiceConfig(
        n_wires=4,
        k=4,
        max_list_size=1,
        workers=workers,
        batch_window=0.0,
        db_cache_dir=cache,
    )
    return SynthesisService.from_config(config)


class TestSharedMapping:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_two_workers_share_one_rdb_mapping(self, warm_cache):
        service = _mapped_store_service(warm_cache, workers=2)
        try:
            rdb = warm_cache / "db-n4-k4.rdb"
            # The parent's database is the zero-copy mapping of the store.
            assert store.is_mapped(service.handle.database)
            assert store.mapped_path(service.handle.database) == rdb

            service.start()
            pids = service.pool.worker_pids()
            assert len(pids) == 2

            # Mapping-identity evidence: every worker process holds a
            # live mapping of the same .rdb file.
            if not Path("/proc").is_dir():
                pytest.skip("/proc unavailable; cannot read process maps")
            for pid in pids:
                maps = Path(f"/proc/{pid}/maps").read_text()
                assert str(rdb) in maps, (
                    f"worker {pid} does not map {rdb}"
                )

            # Byte-identical answers: the same hard word solved many
            # times lands on both workers (one pool task per item) and
            # every answer must agree exactly.
            word = _hard_word(service.handle.database)
            results = _solve(service.pool, [word] * 8, timeout=120)
            assert len(results) == 8
            first = results[0]
            assert first.size == 5
            for other in results[1:]:
                assert other.size == first.size
                assert other.circuit == first.circuit

            # The stats/health payloads advertise the mapping.
            for body in (service.stats(), service.health()):
                database = body["database"]
                assert database["mapped"] is True
                assert database["format"] == "rdb"
                assert database["store"] == str(rdb)
        finally:
            service.shutdown(save_cache=False)

    def test_inline_service_reports_database_block(self, warm_cache):
        service = _mapped_store_service(warm_cache, workers=0)
        try:
            service.start()
            database = service.health()["database"]
            assert database["mapped"] is True
            assert database["format"] == "rdb"
        finally:
            service.shutdown(save_cache=False)

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_workers_reopen_the_store(self, warm_cache):
        from repro.service.workers import HardQueryPool

        synth = OptimalSynthesizer(
            n_wires=4, k=4, max_list_size=1, cache_dir=warm_cache
        )
        handle = synth.handle()
        assert handle.store_path == warm_cache / "db-n4-k4.rdb"
        pool = HardQueryPool(handle, processes=1, start_method="spawn")
        try:
            word = _hard_word(handle.database)
            (result,) = _solve(pool, [word], timeout=300)
            assert result.size == 5
        finally:
            pool.terminate()

    def test_spawn_pool_requires_persisted_store(self, db4_k4, engine4_l7):
        from repro.errors import ServiceError
        from repro.service.workers import HardQueryPool
        from repro.synth.synthesizer import SynthesisHandle

        handle = SynthesisHandle(
            n_wires=4,
            k=4,
            max_list_size=3,
            database=db4_k4,
            engine=engine4_l7,
        )
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        with pytest.raises(ServiceError, match="persisted database store"):
            HardQueryPool(handle, processes=1, start_method="spawn")


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
