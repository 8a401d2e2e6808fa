"""Paper §5: towards optimal 5-bit circuits.

The paper estimates that all optimal 5-bit circuits of up to six gates
are computable on its 64 GB server.  This bench runs the width-generic
engine to the depth a single core affords (k = 3 by default; set
``REPRO_WIDE_K=4`` for the ~1 GB level-4 run) and reports the exact
5-bit function counts per optimal size -- numbers not in the paper, but
produced by its proposed method.
"""

from __future__ import annotations

import os
import time

from repro.engines import SynthesisRequest, create_engine

from conftest import print_header

WIDE_K = int(os.environ.get("REPRO_WIDE_K", "3"))


def test_wide_five_bit_counts(benchmark):
    print_header(f"5-bit optimal function counts (plain BFS, k = {WIDE_K})")
    engine = create_engine(
        "wide", n_wires=5, k=WIDE_K, max_frontier=40_000_000
    )
    start = time.perf_counter()
    result = engine.result
    elapsed = time.perf_counter() - start
    print(f"{'Size':>4}  {'Functions':>12}")
    for size, count in enumerate(result.counts):
        print(f"{size:>4}  {count:>12,}")
    print(f"states stored: {result.states_stored:,} in {elapsed:.1f}s")
    assert result.counts[0] == 1
    assert result.counts[1] == 80
    benchmark.extra_info["counts"] = result.counts

    # Timing target: synthesize the 5-bit ripple-carry prefix of depth k.
    from repro.core.gates import Gate
    from repro.core.circuit import Circuit

    ripple = Circuit(
        gates=(
            Gate(controls=(0, 1, 2, 3), target=4),
            Gate(controls=(0, 1, 2), target=3),
            Gate(controls=(0, 1), target=2),
        )[: WIDE_K],
        n_wires=5,
    )
    table = ripple.truth_table()
    synthesized = benchmark(
        lambda: engine.synthesize(SynthesisRequest(spec=table))
    )
    assert synthesized.size <= WIDE_K
