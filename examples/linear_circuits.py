#!/usr/bin/env python3
"""Section 4.3: optimal circuits for all 4-bit linear reversible functions.

"Linear reversible circuits are the most complex part of error correcting
circuits" -- this example reproduces Table 5 exactly (all 322,560
functions, distribution over sizes 0..10), exhibits the paper's example
of a hardest (10-gate) linear function, and synthesizes optimal NOT/CNOT
circuits for a few random stabilizer-style mappings.

Run:  python examples/linear_circuits.py
"""

from __future__ import annotations

import time

from repro import Permutation
from repro.synth.gf2 import AffineMap
from repro.synth.linear import LinearSynthesizer


def paper_example_function() -> Permutation:
    """a, b, c, d -> b⊕1, a⊕c⊕1, d⊕1, a  (one of the 138 hardest)."""
    values = []
    for x in range(16):
        a, b, c, d = x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1
        values.append((b ^ 1) | ((a ^ c ^ 1) << 1) | ((d ^ 1) << 2) | (a << 3))
    return Permutation.from_values(values)


def main() -> None:
    synth = LinearSynthesizer(4)
    start = time.perf_counter()
    db = synth.database
    elapsed = time.perf_counter() - start
    print(f"synthesized all {db.states_stored:,} linear reversible "
          f"functions in {elapsed:.2f}s (paper: under 2s on a 2008 laptop)\n")

    print("Table 5 -- number of functions per optimal size:")
    print(f"{'Size':>4}  {'Functions':>9}")
    for size in range(db.max_size, -1, -1):
        print(f"{size:>4}  {db.counts[size]:>9}")

    print(f"\nhardest functions (size {db.max_size}): "
          f"{len(synth.hardest_functions())} of them")

    example = paper_example_function()
    print("\nthe paper's example hard function:")
    print(f"  {example}")
    circuit = synth.synthesize(example)
    print(f"  optimal circuit ({circuit.gate_count} gates): {circuit}")
    assert circuit.gate_count == 10

    print("\nrandom GF(2) transforms (the shape of stabilizer-circuit"
          " subproblems):")
    import random

    rng = random.Random(2010)
    for trial in range(3):
        rows = [1 << i for i in range(4)]
        for _ in range(12):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                rows[i] ^= rows[j]
        affine = AffineMap(rows=tuple(rows), constant=rng.randrange(16))
        perm = Permutation(affine.to_word(), 4)
        circuit = synth.synthesize(perm)
        print(f"  #{trial + 1}: A={affine.rows}, c={affine.constant:04b}  ->  "
              f"{circuit.gate_count} gates: {circuit}")
        assert circuit.implements(perm)


if __name__ == "__main__":
    main()
