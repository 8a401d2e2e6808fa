#!/usr/bin/env python3
"""Towards optimal stabilizer circuits (the paper's closing future work).

"Extending techniques reported in this paper to the synthesis of optimal
stabilizer circuits ... may become a very useful tool in optimizing
error correction circuits."  This example runs the first rung of that
program: complete optimal synthesis over the 1- and 2-qubit Clifford
groups, plus the linear-reversible connection the paper draws (CNOT
circuits are the classical shadow of stabilizer circuits).

Run:  python examples/stabilizer_circuits.py
"""

from __future__ import annotations

import time

from repro.stabilizer import CliffordSynthesizer, CliffordTableau
from repro.synth.linear import LinearSynthesizer


def main() -> None:
    print("=== optimal Clifford circuits over {H, S, S†, CNOT} ===\n")
    for n_qubits in (1, 2):
        start = time.perf_counter()
        synth = CliffordSynthesizer(n_qubits)
        distribution = synth.distribution()
        elapsed = time.perf_counter() - start
        print(f"n = {n_qubits}: |C_{n_qubits}| = {sum(distribution):,} "
              f"Cliffords enumerated in {elapsed:.2f}s")
        print(f"  optimal-size distribution: {distribution}")
        print(f"  hardest element needs {len(distribution) - 1} gates\n")

    print("=== synthesizing specific stabilizer operations ===\n")
    synth2 = CliffordSynthesizer(2)
    bell_prep = CliffordTableau.hadamard(0, 2).then(
        CliffordTableau.cnot(0, 1, 2)
    )
    labels = synth2.synthesize(bell_prep)
    print(f"Bell-basis transform : {' '.join(labels)} "
          f"({synth2.size(bell_prep)} gates, provably minimal)")

    cx01 = CliffordTableau.cnot(0, 1, 2)
    cx10 = CliffordTableau.cnot(1, 0, 2)
    swap = cx01.then(cx10).then(cx01)
    print(f"SWAP                 : {' '.join(synth2.synthesize(swap))} "
          f"({synth2.size(swap)} gates -- 3 CNOTs is optimal)")

    # An 'inverse QFT-like' Clifford: H S H on qubit 0.
    hsh = (
        CliffordTableau.hadamard(0, 2)
        .then(CliffordTableau.phase_gate(0, 2))
        .then(CliffordTableau.hadamard(0, 2))
    )
    print(f"H·S·H                : {' '.join(synth2.synthesize(hsh))} "
          f"({synth2.size(hsh)} gates)")

    print("\n=== the linear-reversible connection (paper §4.3) ===\n")
    print("CNOT subcircuits of stabilizer circuits are linear reversible")
    print("functions; their 4-bit optima are fully tabulated:")
    linear = LinearSynthesizer(4)
    db = linear.database
    print(f"  all {db.states_stored:,} linear functions synthesized; "
          f"hardest need {db.max_size} gates ({db.counts[db.max_size]} of them)")


if __name__ == "__main__":
    main()
