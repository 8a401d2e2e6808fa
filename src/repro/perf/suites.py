"""Pinned benchmark suites for ``repro bench``.

Two tiers:

* ``quick`` -- the CI gate: the paper's Section 3.3 micro-ops (scalar
  and vectorized), hash-table probing, a small BFS build, the ``.rdb``
  store's zero-copy cold start and mapped probing, one query per search
  path (database hit / list scan / exhausted scan), the same hard query
  under the escalation engine (named ``race``), the cancel round-trip
  latency of a preempted scan, the shard router's pure routing
  decision, an in-process sharded scatter/gather batch, and the
  function-form compile front-end (spec normalization, and an
  end-to-end don't-care compile).  A few seconds end to end at
  ``REPRO_BENCH_K=5``.
* ``full``  -- everything in quick plus the n=4 database build at the
  configured depth, a Table-3-style random batch, a service-layer
  cached batch, and paired fast-path batch throughput ops over a real
  4-process shard cluster vs a single daemon (the sharding speedup,
  measured honestly over TCP).  Minutes, for local before/after
  measurements.

Every suite starts with ``calibration.spin``, a fixed pure-Python loop
whose median calibrates the host's single-core speed; the comparer
normalizes op timings by it so a committed baseline from one machine
can gate CI runs on another (see :mod:`repro.perf.compare`).

Ops are *pinned*: same name, same workload, same seeds across runs --
renaming or reworking an op invalidates baselines and must come with a
baseline refresh (``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import BenchDataError
from repro.perf.env import BenchScale

__all__ = ["BenchContext", "BenchOp", "suite_names", "suite_ops", "suite_scale"]

#: Vector length for the vectorized micro-ops (matches bench_micro_ops).
N_VECTOR = 1 << 16

#: Small-batch size: one word per library gate, the neighbourhood of
#: one word (the database's mask pass and verifier, small lookups).
N_PEEL = 32


@dataclass(frozen=True)
class BenchOp:
    """One benchmark op: a setup returning the timed thunk.

    ``once`` marks heavy ops (whole builds): they are never batched
    into inner iterations and collect only ``min_samples`` samples.
    """

    name: str
    setup: Callable[["BenchContext"], Callable[[], Any]]
    target_time: float = 0.3
    min_samples: int = 5
    max_samples: int = 50
    once: bool = False


class BenchContext:
    """Shared lazy resources for a suite run (engine, service, rng)."""

    def __init__(self, scale: dict[str, int], cache_dir: "Path | None") -> None:
        self.scale = scale
        self.cache_dir = cache_dir
        self._engine: Any = None
        self._service: Any = None
        self._shard_router: Any = None
        self._shard_clusters: "dict[int, Any]" = {}
        self._tmp: "str | None" = None

    # ------------------------------------------------------------------
    # Lazy resources
    # ------------------------------------------------------------------
    def store_dir(self) -> Path:
        """Where the suite's ``.rdb`` store lives: the bench cache
        directory, or a temp directory removed by :meth:`close`."""
        if self.cache_dir:
            cache = Path(self.cache_dir)
            cache.mkdir(parents=True, exist_ok=True)
            return cache
        if self._tmp is None:
            import tempfile

            self._tmp = tempfile.mkdtemp(prefix="repro-bench-")
        return Path(self._tmp)

    def optimal_engine(self) -> Any:
        """A prepared optimal engine at the suite's (k, m) scale."""
        if self._engine is None:
            from repro.engines import create_engine

            self._engine = create_engine(
                "optimal",
                n_wires=4,
                k=self.scale["k"],
                max_list_size=self.scale["max_list_size"],
                cache_dir=self.store_dir(),
            ).prepare()
        return self._engine

    def service(self) -> Any:
        """A started in-process synthesis service over the warm engine."""
        if self._service is None:
            from repro.service import ServiceConfig, SynthesisService

            handle = self.optimal_engine().handle()
            self._service = SynthesisService(
                handle,
                config=ServiceConfig(
                    n_wires=handle.n_wires,
                    k=handle.k,
                    max_list_size=handle.max_list_size,
                ),
            )
            self._service.start()
        return self._service

    def shard_router(self) -> Any:
        """An in-process 4-shard router over the warm handle.

        Every shard wraps its own :class:`SynthesisService`; calls run
        inline (no sockets, no processes), so ops over this router time
        the *routing and scatter/gather machinery itself*, not
        parallelism -- see the full suite's cluster ops for that.
        """
        if self._shard_router is None:
            from repro.service import ServiceConfig, SynthesisService
            from repro.service.sharding import (
                InProcessShard,
                ShardingConfig,
                ShardRouter,
                ShardSupervisor,
            )

            handle = self.optimal_engine().handle()
            supervisor = ShardSupervisor(
                config=ShardingConfig(probe_interval=3600.0)
            )
            for index in range(4):
                service = SynthesisService(
                    handle,
                    config=ServiceConfig(
                        n_wires=handle.n_wires,
                        k=handle.k,
                        max_list_size=handle.max_list_size,
                    ),
                ).start()
                supervisor.add(
                    InProcessShard(f"shard-{index}", service).start()
                )
            self._shard_router = ShardRouter(
                supervisor, n_wires=handle.n_wires
            )
        return self._shard_router

    def process_cluster(self, count: int) -> Any:
        """A real ``count``-process shard cluster at the suite's k (full
        suite only).  Shards share one pre-built ``.rdb`` store in
        :meth:`store_dir`; the 1-shard cluster is the single-daemon
        baseline its 4-shard sibling is compared against.
        """
        if count not in self._shard_clusters:
            from repro.service.sharding import ShardCluster

            cluster = ShardCluster.launch(
                count,
                k=self.scale["k"],
                max_list_size=self.scale["max_list_size"],
                cache_dir=self.store_dir(),
            )
            cluster.router.start()
            self._shard_clusters[count] = cluster
        return self._shard_clusters[count]

    def close(self) -> None:
        if self._service is not None:
            self._service.shutdown(save_cache=False)
            self._service = None
        if self._shard_router is not None:
            self._shard_router.shutdown()
            self._shard_router = None
        for cluster in self._shard_clusters.values():
            cluster.close()
        self._shard_clusters = {}
        if self._tmp is not None:
            import shutil

            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
        self._engine = None

    # ------------------------------------------------------------------
    # Deterministic workload words
    # ------------------------------------------------------------------
    def easy_word(self) -> int:
        """A word of size exactly k: the deepest database fast path."""
        db = self.optimal_engine().impl.database
        reps = db.reps_by_size[self.scale["k"]]
        if reps.shape[0] == 0:
            raise BenchDataError(
                f"no representatives of size {self.scale['k']} "
                "(database shallower than the suite scale)"
            )
        return int(reps[0])

    def hard_word(self) -> int:
        """A word of size in (k, k+m]: forces an A_i list scan.

        Built deterministically by composing a size-k representative
        with a size-m representative until the product leaves the
        database; its optimal size is then > k but <= k + m, so the
        scan must succeed.
        """
        from repro.core import packed

        synth = self.optimal_engine().impl
        db = synth.database
        k = self.scale["k"]
        m = self.scale["max_list_size"]
        if m < 1:
            raise BenchDataError("hard-word op needs max_list_size >= 1")
        for a in db.reps_by_size[k][:64]:
            for b in db.reps_by_size[m][:64]:
                word = packed.compose(int(a), int(b), 4)
                if db.size_of(word) is None:
                    return word
        raise BenchDataError(
            "could not construct a beyond-database word at this scale"
        )

    def out_of_reach_word(self) -> int:
        """A word provably beyond L = k + m: the exhausted-scan path."""
        from repro.rng.sampling import PermutationSampler

        synth = self.optimal_engine().impl
        sampler = PermutationSampler(4, seed=5489)
        limit = synth.max_size
        for _ in range(512):
            word = sampler.sample_word()
            if synth.search_engine.prove_lower_bound(word) > limit:
                return word
        raise BenchDataError(
            f"no out-of-reach word found in 512 draws at L={limit} "
            "(scale too deep for the exhausted-scan op)"
        )


# ----------------------------------------------------------------------
# Op setups
# ----------------------------------------------------------------------
def _setup_spin(_ctx: BenchContext) -> Callable[[], Any]:
    def spin() -> int:
        x = 1
        for _ in range(50_000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        return x

    return spin


def _setup_compose_scalar(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.core import packed
    from repro.rng.sampling import PermutationSampler

    sampler = PermutationSampler(4, seed=2)
    p, q = sampler.sample_word(), sampler.sample_word()
    return lambda: packed.compose(p, q, 4)


def _setup_inverse_scalar(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.core import packed
    from repro.rng.sampling import PermutationSampler

    p = PermutationSampler(4, seed=2).sample_word()
    return lambda: packed.inverse(p, 4)


def _setup_canonical_scalar(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.core import equivalence
    from repro.rng.sampling import PermutationSampler

    p = PermutationSampler(4, seed=2).sample_word()
    return lambda: equivalence.canonical(p, 4)


def _setup_hash_scalar(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.hashing.wang import hash64shift
    from repro.rng.sampling import PermutationSampler

    p = PermutationSampler(4, seed=2).sample_word()
    return lambda: hash64shift(p)


def _vector_words(count: int = N_VECTOR) -> Any:
    from repro.rng.sampling import PermutationSampler

    return PermutationSampler(4, seed=1).sample_words(count)


def _setup_compose_vectorized(_ctx: BenchContext) -> Callable[[], Any]:
    import numpy as np

    from repro.core.packed_np import compose_np
    from repro.rng.sampling import PermutationSampler

    words = _vector_words()
    q = np.uint64(PermutationSampler(4, seed=2).sample_word())
    return lambda: compose_np(words, q, 4)


def _setup_canonical_vectorized(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.core.packed_np import canonical_np

    words = _vector_words()
    return lambda: canonical_np(words, 4)


def _setup_canonical_vectorized_32(_ctx: BenchContext) -> Callable[[], Any]:
    """A 32-word canonicalization: the small-batch gather kernel."""
    from repro.core.packed_np import canonical_np

    words = _vector_words(N_PEEL)
    return lambda: canonical_np(words, 4)


def _setup_hash_vectorized(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.hashing.wang import hash64shift_np

    words = _vector_words()
    return lambda: hash64shift_np(words)


def _setup_table_lookup_batch(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.hashing.table import LinearProbingTable

    words = _vector_words()
    table = LinearProbingTable(capacity_bits=18)
    table.insert_batch(words[: N_VECTOR // 2], 1)
    # repro: allow[unrouted-lookup] the op times raw probing over a 50/50 hit/miss mix; canonicalizing the keys would fold the misses away and change what is measured
    return lambda: table.lookup_batch(words)


def _setup_bfs_build_n3(_ctx: BenchContext) -> Callable[[], Any]:
    from repro.synth.bfs import build_database

    return lambda: build_database(3, 8)


def _setup_bfs_build_n4(ctx: BenchContext) -> Callable[[], Any]:
    from repro.synth.bfs import build_database

    k = ctx.scale["k"]
    return lambda: build_database(4, k)


def _setup_db_cold_start_mmap(ctx: BenchContext) -> Callable[[], Any]:
    from repro.store import map_database

    rdb = ctx.optimal_engine().impl.store_path
    return lambda: map_database(rdb)


def _setup_db_mapped_probe_batch(ctx: BenchContext) -> Callable[[], Any]:
    from repro.store import map_database

    table = map_database(ctx.optimal_engine().impl.store_path).table
    words = _vector_words()
    # repro: allow[unrouted-lookup] the op times raw mapped probing over uniform random keys (nearly all misses); canonicalizing would change what is measured
    return lambda: table.lookup_batch(words)


def _setup_db_mapped_probe_batch_32(ctx: BenchContext) -> Callable[[], Any]:
    """A 32-key probe, where per-round overhead dominates."""
    from repro.store import map_database

    table = map_database(ctx.optimal_engine().impl.store_path).table
    words = _vector_words(N_PEEL)
    # repro: allow[unrouted-lookup] the op times raw mapped probing over uniform random keys (nearly all misses); canonicalizing would change what is measured
    return lambda: table.lookup_batch(words)


def _synth_thunk(ctx: BenchContext, word: int) -> Callable[[], Any]:
    from repro.core.permutation import Permutation
    from repro.engines import SynthesisRequest

    engine = ctx.optimal_engine()
    request = SynthesisRequest(spec=Permutation(word, 4), n_wires=4)
    return lambda: engine.synthesize(request)


def _setup_search_db_hit(ctx: BenchContext) -> Callable[[], Any]:
    return _synth_thunk(ctx, ctx.easy_word())


def _setup_search_scan(ctx: BenchContext) -> Callable[[], Any]:
    return _synth_thunk(ctx, ctx.hard_word())


def _setup_search_exhausted(ctx: BenchContext) -> Callable[[], Any]:
    engine = ctx.optimal_engine().impl.search_engine
    word = ctx.out_of_reach_word()
    return lambda: engine.prove_lower_bound(word)


def _setup_race_hard_query(ctx: BenchContext) -> Callable[[], Any]:
    """The scan-forcing hard word solved by the escalation engine under
    its ``race`` name.

    Measures the MMD upper bound plus the scan that answers exactly, so
    it is directly comparable against ``search.scan`` (the same word on
    the bare optimal engine).
    """
    from repro.core.permutation import Permutation
    from repro.engines import SynthesisRequest, create_engine

    engine = create_engine("race", handle=ctx.optimal_engine().handle())
    word = ctx.hard_word()
    request = SynthesisRequest(spec=Permutation(word, 4), n_wires=4)

    def run() -> str:
        result = engine.synthesize(request)
        if result.guarantee != "optimal":
            raise BenchDataError(
                f"race returned {result.guarantee!r} for the hard word"
            )
        return result.extra["tier"]

    return run


def _setup_cancel_latency(ctx: BenchContext) -> Callable[[], Any]:
    """Round trip of preempting an in-flight hard scan.

    Starts the scan-forcing hard word on a worker thread under a
    :class:`CancelToken`, cancels the token, and times until the thread
    has settled -- the latency a deadline or breaker trip pays to
    reclaim the thread running hard work.
    """
    import threading

    from repro.core.permutation import Permutation
    from repro.engines import SynthesisRequest
    from repro.errors import WorkCancelledError
    from repro.service.tasks import CANCELLED, DONE, CancelToken

    engine = ctx.optimal_engine()
    word = ctx.hard_word()
    spec = Permutation(word, 4)

    def run() -> str:
        token = CancelToken()
        outcome: "list[str]" = []

        def scan() -> None:
            try:
                engine.synthesize(
                    SynthesisRequest(
                        spec=spec,
                        n_wires=4,
                        options={"cancel": token.checkpoint},
                    )
                )
            except WorkCancelledError:
                outcome.append(CANCELLED)
            else:
                outcome.append(DONE)

        thread = threading.Thread(target=scan, daemon=True)
        thread.start()
        token.cancel("bench")
        thread.join(timeout=30.0)
        if not outcome:
            raise BenchDataError("cancelled scan did not settle within 30 s")
        return outcome[0]

    return run


def _setup_search_random_batch(ctx: BenchContext) -> Callable[[], Any]:
    from repro.rng.sampling import PermutationSampler

    synth = ctx.optimal_engine().impl
    words = [
        PermutationSampler(4, seed=5489 + i).sample_word()
        for i in range(ctx.scale["samples"])
    ]

    def run() -> int:
        total = 0
        for word in words:
            size, _exact = synth.size_or_bound(word)
            total += size
        return total

    return run


def _setup_service_cached_batch(ctx: BenchContext) -> Callable[[], Any]:
    import json

    from repro.core.permutation import Permutation

    service = ctx.service()
    db = ctx.optimal_engine().impl.database
    reps = db.reps_by_size[min(3, ctx.scale["k"])]
    lines = [
        json.dumps({
            "id": i,
            "op": "size",
            "spec": Permutation(int(reps[i % reps.shape[0]]), 4).spec(),
        })
        for i in range(32)
    ]

    def run() -> int:
        served = 0
        for line in lines:
            response = json.loads(service.handle_line(line))
            if not response.get("ok"):
                raise BenchDataError(
                    f"service op failed mid-benchmark: {response}"
                )
            served += 1
        return served

    return run


def _batch_line(ctx: BenchContext, requests: int) -> str:
    """One JSONL ``batch`` request of fast-path ``size`` sub-requests
    spread over distinct equivalence classes (so a router scatters it)."""
    import json

    from repro.core.permutation import Permutation

    db = ctx.optimal_engine().impl.database
    reps = db.reps_by_size[min(3, ctx.scale["k"])]
    entries = [
        {
            "id": i,
            "op": "size",
            "spec": Permutation(int(reps[i % reps.shape[0]]), 4).spec(),
        }
        for i in range(requests)
    ]
    return json.dumps({"id": 0, "op": "batch", "requests": entries})


def _batch_thunk(router: Any, line: str, expected: int) -> Callable[[], Any]:
    import json

    def run() -> int:
        body = json.loads(router.handle_line(line))
        if not body.get("ok") or body["result"]["count"] != expected:
            raise BenchDataError(f"sharded batch failed mid-benchmark: {body}")
        return body["result"]["count"]

    return run


def _setup_shard_route_decision(_ctx: BenchContext) -> Callable[[], Any]:
    """Pure routing overhead: owner lookup for 256 keys on a 4-ring."""
    from repro.rng.sampling import PermutationSampler
    from repro.service.sharding import HashRing

    ring = HashRing([f"shard-{i}" for i in range(4)])
    keys = [int(w) for w in PermutationSampler(4, seed=7).sample_words(256)]

    def run() -> int:
        routed = 0
        for key in keys:
            if ring.owner(key) is not None:
                routed += 1
        return routed

    return run


def _setup_shard_inproc_batch(ctx: BenchContext) -> Callable[[], Any]:
    """Scatter/gather machinery over in-process shards (no parallelism:
    this times the router, directly comparable to service.cached_batch)."""
    return _batch_thunk(ctx.shard_router(), _batch_line(ctx, 32), 32)


def _dontcare_table_spec() -> Any:
    """The pinned compile workload: f(x) = x3 on 4 inputs with two
    don't-care rows -- exhaustive completion search (t! = 2), within
    reach at every suite scale with k + m >= 3."""
    from repro.specs import TruthTableSpec

    rows: list = [(x >> 3) & 1 for x in range(16)]
    rows[10] = None
    rows[13] = None
    return TruthTableSpec(rows=tuple(rows), n_inputs=4)


def _setup_compile_spec_normalize(_ctx: BenchContext) -> Callable[[], Any]:
    """Pure front-end overhead: wire round-trip + embedding plan +
    routing word for the pinned don't-care table (no engine, no db)."""
    from repro.specs import plan_embedding, routing_word, spec_from_wire

    spec = _dontcare_table_spec()

    def run() -> int:
        decoded = spec_from_wire(spec.to_wire())
        plan = plan_embedding(decoded)
        word = routing_word(decoded)
        return len(plan.garbage_wires) + (word & 1)

    return run


def _setup_compile_dontcare_embed(ctx: BenchContext) -> Callable[[], Any]:
    """End-to-end ``compile_spec`` of the pinned don't-care table
    against the warm optimal engine (exhaustive completion search)."""
    from repro.specs import compile_spec

    engine = ctx.optimal_engine()
    spec = _dontcare_table_spec()

    def run() -> int:
        result = compile_spec(spec, engine)
        if result.guarantee != "optimal":
            raise BenchDataError(
                f"compile degraded mid-benchmark: {result.guarantee}"
            )
        return result.size

    return run


def _setup_shard_cluster_batch_x4(ctx: BenchContext) -> Callable[[], Any]:
    """Fast-path batch over a real 4-process cluster: slices execute in
    four shard processes concurrently while the router waits on sockets."""
    return _batch_thunk(
        ctx.process_cluster(4).router, _batch_line(ctx, 512), 512
    )


def _setup_shard_cluster_batch_x1(ctx: BenchContext) -> Callable[[], Any]:
    """The same 512-request batch against a single daemon process -- the
    baseline the 4-shard op's speedup is judged against."""
    return _batch_thunk(
        ctx.process_cluster(1).router, _batch_line(ctx, 512), 512
    )


# ----------------------------------------------------------------------
# Suite definitions
# ----------------------------------------------------------------------
_QUICK_OPS: tuple[BenchOp, ...] = (
    BenchOp("calibration.spin", _setup_spin),
    BenchOp("micro.compose_scalar", _setup_compose_scalar),
    BenchOp("micro.inverse_scalar", _setup_inverse_scalar),
    BenchOp("micro.canonical_scalar", _setup_canonical_scalar),
    BenchOp("micro.hash_scalar", _setup_hash_scalar),
    BenchOp("micro.compose_vectorized", _setup_compose_vectorized),
    BenchOp("micro.canonical_vectorized", _setup_canonical_vectorized),
    BenchOp("micro.canonical_vectorized_32", _setup_canonical_vectorized_32),
    BenchOp("micro.hash_vectorized", _setup_hash_vectorized),
    BenchOp("table.lookup_batch", _setup_table_lookup_batch),
    BenchOp("bfs.build_n3", _setup_bfs_build_n3, min_samples=3, once=True),
    BenchOp("db.cold_start_mmap", _setup_db_cold_start_mmap),
    BenchOp("db.mapped_probe_batch", _setup_db_mapped_probe_batch),
    BenchOp("db.mapped_probe_batch_32", _setup_db_mapped_probe_batch_32),
    BenchOp("search.db_hit", _setup_search_db_hit),
    BenchOp("search.scan", _setup_search_scan),
    BenchOp("search.exhausted", _setup_search_exhausted, target_time=0.5),
    BenchOp("race.hard_query", _setup_race_hard_query, target_time=0.5),
    BenchOp("task.cancel_latency", _setup_cancel_latency),
    BenchOp("shard.route_decision", _setup_shard_route_decision),
    BenchOp("shard.inproc_batch", _setup_shard_inproc_batch),
    BenchOp("compile.spec_normalize", _setup_compile_spec_normalize),
    BenchOp("compile.dontcare_embed", _setup_compile_dontcare_embed),
)

_FULL_OPS: tuple[BenchOp, ...] = _QUICK_OPS + (
    BenchOp("bfs.build_n4", _setup_bfs_build_n4, min_samples=3, once=True),
    BenchOp(
        "search.random_batch",
        _setup_search_random_batch,
        min_samples=3,
        once=True,
    ),
    BenchOp("service.cached_batch", _setup_service_cached_batch),
    BenchOp(
        "shard.cluster_batch_x1",
        _setup_shard_cluster_batch_x1,
        min_samples=5,
        once=True,
    ),
    BenchOp(
        "shard.cluster_batch_x4",
        _setup_shard_cluster_batch_x4,
        min_samples=5,
        once=True,
    ),
)

_SUITES: dict[str, tuple[BenchOp, ...]] = {
    "quick": _QUICK_OPS,
    "full": _FULL_OPS,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def suite_ops(name: str) -> tuple[BenchOp, ...]:
    ops = _SUITES.get(name)
    if ops is None:
        raise BenchDataError(
            f"unknown bench suite {name!r}; known: {', '.join(suite_names())}"
        )
    return ops


def suite_scale(name: str, env: "BenchScale | None" = None) -> dict[str, int]:
    """The pinned scale knobs a suite runs at.

    The quick suite caps the list depth at 3 so its scan ops stay
    CI-sized regardless of ``REPRO_BENCH_MAX_L``; the full suite uses
    the full configured reach.
    """
    scale = env if env is not None else BenchScale.from_env()
    if name == "quick":
        return {
            "k": scale.k,
            "max_list_size": max(1, min(3, scale.k)),
            "samples": min(scale.samples, 30),
        }
    suite_ops(name)  # validate the name
    return {
        "k": scale.k,
        "max_list_size": max(1, scale.max_list_size),
        "samples": scale.samples,
    }
