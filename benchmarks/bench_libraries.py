"""Ablation: optimal-size distributions across gate libraries.

Section 5 of the paper notes the search adapts to "a different family of
gates"; Yang et al. (reference [17]) used NOT/CNOT/Peres.  This bench
runs the generalized BFS over four libraries and regenerates the exact
full-group distribution for n = 3 under each, plus reduced counts for
n = 4 at a fixed depth -- quantifying how much each extra gate family
compresses optimal circuits.
"""

from __future__ import annotations

import time

from repro.synth.libraries import build_size_table, full_distribution, ncp, nct, ncts, nctsf

from conftest import print_header


def test_library_ablation_n3_exact(benchmark):
    print_header("Gate-library ablation, n = 3 (exact, full group)")
    print(f"{'library':<7} {'gates':>5} {'L(3)':>5}  distribution")
    results = {}
    for maker in (nct, ncts, nctsf, ncp):
        library = maker(3)
        start = time.perf_counter()
        dist = full_distribution(library)
        elapsed = time.perf_counter() - start
        results[library.name] = dist
        print(
            f"{library.name:<7} {len(library):>5} {len(dist) - 1:>5}  "
            f"{dist}  ({elapsed:.2f}s)"
        )
    # Monotone compression: adding gates never lengthens circuits.
    assert len(results["NCT"]) >= len(results["NCTS"]) >= len(results["NCTSF"])
    assert len(results["NCP"]) <= len(results["NCT"])
    # NCT reproduces the classic Shende et al. distribution.
    assert results["NCT"] == [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577]
    benchmark.extra_info["distributions"] = results

    benchmark.pedantic(full_distribution, args=(nct(3),), rounds=1)


def test_library_ablation_n4_reduced(benchmark):
    print_header("Gate-library ablation, n = 4 (reduced classes to depth 4)")
    print(f"{'library':<7} {'gates':>5}  classes per size 0..4")
    rows = {}
    for maker in (nct, ncts, nctsf, ncp):
        library = maker(4)
        table = build_size_table(library, 4)
        rows[library.name] = table.reduced_counts
        print(f"{library.name:<7} {len(library):>5}  {table.reduced_counts}")
    # Larger libraries cover more classes per level.
    for size in range(1, 5):
        assert rows["NCTSF"][size] >= rows["NCT"][size]
    assert rows["NCT"] == [1, 4, 33, 425, 6538]
    benchmark.extra_info["rows"] = rows

    benchmark.pedantic(build_size_table, args=(nct(4), 3), rounds=1)
