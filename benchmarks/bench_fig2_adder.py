"""Figure 2: suboptimal vs optimal 1-bit full adder.

The paper's motivating example.  We verify both circuits implement the
adder, prove 4 gates optimal by exhaustive search, and demonstrate the
peephole application recovering the optimal adder from the suboptimal
circuit automatically.
"""

from __future__ import annotations

from repro.apps.adder import (
    full_adder_permutation,
    optimal_adder_circuit,
    suboptimal_adder_circuit,
)
from repro.apps.peephole import PeepholeOptimizer

from conftest import print_header


def test_fig2_adder_optimality(bench_synthesizer, benchmark):
    spec = full_adder_permutation()
    suboptimal = suboptimal_adder_circuit()
    optimal = optimal_adder_circuit()
    print_header("Figure 2: 1-bit full adder")
    print(f"suboptimal (Fig 2a-style): {suboptimal}  [{suboptimal.gate_count} gates]")
    print(f"optimal    (Fig 2b)      : {optimal}  [{optimal.gate_count} gates]")
    assert suboptimal.implements(spec)
    assert optimal.implements(spec)

    outcome = bench_synthesizer.search(spec)
    assert outcome.size == 4
    print(f"search proves the optimum is {outcome.size} gates")

    result = benchmark(bench_synthesizer.size, spec)
    assert result == 4


def test_fig2_peephole_recovers_optimal(bench_synthesizer, benchmark):
    optimizer = PeepholeOptimizer(bench_synthesizer)
    report = benchmark.pedantic(
        optimizer.optimize, args=(suboptimal_adder_circuit(),), rounds=1
    )
    print_header("Peephole optimization of the suboptimal adder")
    print(f"before: {report.original}   [{report.original.gate_count} gates]")
    print(f"after : {report.optimized}   [{report.optimized.gate_count} gates]")
    assert report.optimized.gate_count == 4
    assert report.optimized.implements(full_adder_permutation())
