"""Paper §5 future work: towards optimal stabilizer circuits.

The paper closes with "extending techniques reported in this paper to
the synthesis of optimal stabilizer circuits" as a goal.  This bench
runs the first rung of that ladder: complete optimal-gate-count tables
for the 1- and 2-qubit Clifford groups over {H, S, S†, CNOT}, produced
by the same BFS-from-identity strategy as Algorithm 2.
"""

from __future__ import annotations

import time

from repro.engines import create_engine
from repro.stabilizer import CliffordTableau, clifford_group_size

from conftest import print_header


def test_clifford_distributions(benchmark):
    print_header("Optimal Clifford circuits over {H, S, S†, CNOT}")
    start = time.perf_counter()
    c1 = create_engine("clifford", n_qubits=1).impl
    d1 = c1.distribution()
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    c2 = create_engine("clifford", n_qubits=2).impl
    d2 = c2.distribution()
    t2 = time.perf_counter() - start
    print(f"|C1| = {sum(d1):>6,} enumerated in {t1:.2f}s: {d1}")
    print(f"|C2| = {sum(d2):>6,} enumerated in {t2:.2f}s: {d2}")
    print(f"max gates: C1 = {len(d1) - 1}, C2 = {len(d2) - 1}")
    assert sum(d1) == clifford_group_size(1) == 24
    assert sum(d2) == clifford_group_size(2) == 11520
    benchmark.extra_info["c1"] = d1
    benchmark.extra_info["c2"] = d2

    # Timing target: one synthesis query against the full C2 table.
    target = (
        CliffordTableau.hadamard(0, 2)
        .then(CliffordTableau.cnot(0, 1, 2))
        .then(CliffordTableau.phase_gate(1, 2))
    )
    labels = benchmark(c2.synthesize, target)
    assert len(labels) == c2.size(target)


def test_clifford_hardest_elements(benchmark):
    """Exhibit a maximally hard 2-qubit Clifford (10 gates)."""
    c2 = create_engine("clifford", n_qubits=2).impl
    distribution = c2.distribution()
    hardest_size = len(distribution) - 1
    hardest_keys = [
        key for key, size in c2.sizes.items() if size == hardest_size
    ]
    print_header("Hardest 2-qubit Cliffords")
    print(
        f"{distribution[hardest_size]} elements need {hardest_size} gates"
    )
    example = c2._elements[hardest_keys[0]]
    labels = c2.synthesize(example)
    print(f"example: {' '.join(labels)}")
    print(f"tableau: {example.labels()}")
    assert len(labels) == hardest_size

    benchmark(c2.size, example)
