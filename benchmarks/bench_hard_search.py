"""Section 4.5: searching for hard permutations.

The paper extended its 13/14-gate optimal circuits by boundary gates for
12 hours without finding anything above 14 gates.  Our scaled version:

* n = 3 -- the question closes exactly: full enumeration gives L(3) = 8
  with 577 hardest functions, and the extension search re-discovers them.
* n = 4 -- extend the deepest stored representatives and report the
  hardest (possibly censored) sizes found within a candidate budget.
"""

from __future__ import annotations

from repro.analysis.hard import extension_search, full_enumeration

from conftest import print_header


def test_hard_search_exact_n3(engine3_full, benchmark):
    print_header("Hard permutations, n = 3 (exact)")
    enumeration = full_enumeration(3)
    print(f"L(3) = {enumeration.max_size}; "
          f"{enumeration.hardest_count} hardest functions")
    assert enumeration.max_size == 8
    assert enumeration.hardest_count == 577

    seeds = engine3_full.db.reps_by_size[7][:30].tolist()
    result = benchmark.pedantic(
        extension_search, args=(engine3_full, seeds, 3), rounds=1
    )
    print(
        f"extension search over {result.candidates_examined} candidates "
        f"found size {result.hardest_size}"
    )
    assert result.hardest_size == 8  # rediscovers the maximum
    assert not result.exceeded_bound


def test_hard_search_n4(bench_engine, bench_db, benchmark):
    print_header(f"Hard permutations, n = 4 (seeds of size {bench_db.k})")
    seeds = bench_db.reps_by_size[bench_db.k][:4].tolist()
    result = benchmark.pedantic(
        extension_search,
        args=(bench_engine, seeds, 4),
        kwargs={"max_candidates": 120},
        rounds=1,
    )
    marker = ">=" if result.exceeded_bound else "=="
    print(
        f"hardest found over {result.candidates_examined} candidates: "
        f"size {marker} {result.hardest_size}"
    )
    # Extending a size-k function by one gate can reach at most k + 1.
    assert result.hardest_size <= bench_db.k + 1
    assert result.hardest_size >= bench_db.k - 1
    benchmark.extra_info["hardest"] = result.hardest_size
