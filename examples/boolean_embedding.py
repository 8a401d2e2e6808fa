#!/usr/bin/env python3
"""Embedding irreversible Boolean functions into optimal reversible circuits.

Reversible benchmarks like rd32 arise by embedding ordinary Boolean
functions: constant input lines, garbage outputs, and don't-care rows.
The choice of completion changes the optimal gate count, so the
embedding layer searches over completions -- with the *natural
reversible extension* (apply the output-XOR rule on every row) seeded
as a candidate, which is how AND's embedding lands exactly on the
Toffoli gate.

Run:  python examples/boolean_embedding.py
"""

from __future__ import annotations

from repro.core.circuit import Circuit
from repro.engines import create_engine
from repro.io.qasm import to_qasm
from repro.specs import TruthTableSpec, compile_spec

FUNCTIONS = {
    "AND(a,b)": ([0, 0, 0, 1], 2),
    "OR(a,b)": ([0, 1, 1, 1], 2),
    "XOR(a,b)": ([0, 1, 1, 0], 2),
    "NAND(a,b)": ([1, 1, 1, 0], 2),
    "MAJ(a,b,c)": ([0, 0, 0, 1, 0, 1, 1, 1], 3),
    "XOR3(a,b,c)": ([0, 1, 1, 0, 1, 0, 0, 1], 3),
    "AND3(a,b,c)": ([0, 0, 0, 0, 0, 0, 0, 1], 3),
}


def main() -> None:
    engine = create_engine("optimal", k=4, max_list_size=3).prepare()

    print("irreversible function -> optimal reversible embedding "
          "(output on wire d)\n")
    print(f"{'function':<12} {'gates':>5}  circuit")
    for name, (truth_table, n_inputs) in FUNCTIONS.items():
        spec = TruthTableSpec(rows=tuple(truth_table), n_inputs=n_inputs)
        result = compile_spec(spec, engine)
        flag = "" if result.exhaustive else "  (sampled completions)"
        print(f"{name:<12} {result.size:>5}  {result.circuit}{flag}")

    print("\nexporting the AND embedding to OpenQASM 2.0:\n")
    and_spec = TruthTableSpec(rows=(0, 0, 0, 1), n_inputs=2)
    circuit = Circuit.parse(compile_spec(and_spec, engine).circuit, 4)
    print(to_qasm(circuit, comment="AND(a,b) -> d, optimal"))


if __name__ == "__main__":
    main()
