"""Head-to-head comparisons with the baselines (paper Section 2).

* Plain BFS (Prasad et al. [13]): no symmetry reduction -- measures the
  ×~48 state-count reduction and the wall-clock difference per level.
* SAT-based exact synthesis (Große et al. [3]): optimal but slow; the
  paper quotes 21,897 s for hwb4 via SAT vs 1.06e-4 s via lookup.  We
  reproduce the same cliff on a function small enough for our SAT solver.
* MMD heuristic (Miller et al.): fast but suboptimal -- measures the
  average overhead over optimal that the paper's Section 1 motivates.
"""

from __future__ import annotations

import time

from repro.engines import SynthesisRequest, create_engine
from repro.rng.sampling import PermutationSampler
from repro.synth.bfs import build_database

from conftest import print_header


def test_reduced_vs_plain_bfs(benchmark):
    print_header("Symmetry reduction vs plain BFS (k = 4)")
    start = time.perf_counter()
    plain = create_engine("plain-bfs", n_wires=4, k=4).result
    plain_time = time.perf_counter() - start
    start = time.perf_counter()
    reduced = build_database(4, 4)
    reduced_time = time.perf_counter() - start
    plain_states = plain.states_stored
    reduced_states = sum(reduced.reduced_counts())
    ratio = plain_states / reduced_states
    print(f"plain BFS  : {plain_states:>9,} states, {plain_time:.2f}s")
    print(f"reduced BFS: {reduced_states:>9,} states, {reduced_time:.2f}s")
    print(f"state reduction factor: {ratio:.1f} (paper: 'almost 48')")
    assert 44 <= ratio <= 48
    benchmark.extra_info["reduction_factor"] = round(ratio, 2)

    result = benchmark.pedantic(build_database, args=(4, 4), rounds=1)
    assert result.reduced_counts()[-1] == 6538


def test_sat_vs_lookup(bench_engine, benchmark):
    """The Große et al. cliff: SAT seconds vs lookup microseconds."""
    from repro.benchmarks_data import get_benchmark

    rd32 = get_benchmark("rd32").permutation()
    print_header("SAT-based exact synthesis vs search-and-lookup (rd32)")

    sat_engine = create_engine("sat", max_gates=4)
    start = time.perf_counter()
    sat_result = sat_engine.synthesize(SynthesisRequest(spec=rd32))
    sat_time = time.perf_counter() - start
    assert sat_result.size == 4

    start = time.perf_counter()
    for _ in range(20):
        size = bench_engine.size_of(rd32.word)
    lookup_time = (time.perf_counter() - start) / 20
    assert size == 4

    speedup = sat_time / lookup_time
    print(f"SAT (iterative deepening to 4): {sat_time:.3f}s")
    print(f"search-and-lookup             : {lookup_time * 1e6:.1f}µs")
    print(f"speedup: {speedup:,.0f}x  (paper reports ~2e8x on hwb4)")
    assert speedup > 100
    benchmark.extra_info["speedup"] = round(speedup)

    benchmark(bench_engine.size_of, rd32.word)


def test_mmd_overhead_vs_optimal(bench_engine, benchmark):
    """Heuristic overhead over optimal on random permutations: the gap
    the paper proposes using optimal 4-bit synthesis to measure."""
    from repro.errors import SizeLimitExceededError

    print_header("MMD heuristic vs optimal on random 4-bit permutations")
    mmd = create_engine("heuristic")
    sampler = PermutationSampler(4, seed=5489)
    optimal_total = heuristic_total = counted = 0
    while counted < 12:
        perm = sampler.sample()
        try:
            optimal = bench_engine.size_of(perm.word)
        except SizeLimitExceededError:
            continue
        heuristic = mmd.synthesize(SynthesisRequest(spec=perm)).size
        optimal_total += optimal
        heuristic_total += heuristic
        counted += 1
    overhead = heuristic_total / optimal_total
    print(f"optimal total  : {optimal_total} gates over {counted} functions")
    print(f"heuristic total: {heuristic_total} gates")
    print(f"overhead factor: {overhead:.2f}x (3-bit heuristics are ~1.0x;")
    print("  the paper argues 4-bit tests leave far more room to improve)")
    assert overhead > 1.1
    benchmark.extra_info["overhead"] = round(overhead, 3)

    sample = sampler.sample()
    benchmark(lambda: mmd.synthesize(SynthesisRequest(spec=sample)).size)


def test_prasad_throughput_claim(benchmark):
    """Paper vs [13]: 'we extend this search into finding 117.8e9 optimal
    circuits ... over 65 times faster'.  Our miniature: circuits per
    second enumerated by the reduced BFS at k = 5."""
    print_header("BFS enumeration throughput (reduced engine, k = 5)")
    start = time.perf_counter()
    db = build_database(4, 5)
    elapsed = time.perf_counter() - start
    functions = sum(db.function_counts())
    rate = functions / elapsed
    print(f"{functions:,} optimal circuits' functions in {elapsed:.2f}s")
    print(f"= {rate:,.0f} functions/second (paper: 11.2M circuits/s on CS1)")
    benchmark.extra_info["functions_per_second"] = round(rate)
    assert functions == 1 + 32 + 784 + 16204 + 294507 + 4807552

    benchmark.pedantic(build_database, args=(4, 3), rounds=1)
