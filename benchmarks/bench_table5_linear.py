"""Table 5: optimal circuits for all 322,560 4-bit linear functions.

The paper synthesizes every linear reversible function in under two
seconds on a laptop and reports the exact distribution 0..10.  This is
the one table we reproduce *completely and exactly*.
"""

from __future__ import annotations

import pytest

from repro.analysis.estimates import PAPER_TABLE5_LINEAR
from repro.core.circuit import Circuit
from repro.engines import create_engine
from repro.synth.linear import build_linear_database

from conftest import print_header


@pytest.fixture(scope="module")
def linear_db():
    return build_linear_database(4)


def test_table5_exact_distribution(linear_db, benchmark):
    print_header("Table 5: 4-bit linear reversible functions by size (EXACT)")
    print(f"{'Size':>4}  {'Functions':>9}  {'paper':>9}")
    for size in range(len(linear_db.counts) - 1, -1, -1):
        print(
            f"{size:>4}  {linear_db.counts[size]:>9}  "
            f"{PAPER_TABLE5_LINEAR[size]:>9}"
        )
    assert linear_db.counts == PAPER_TABLE5_LINEAR
    assert linear_db.states_stored == 322560
    print("all 11 rows match the paper exactly")
    benchmark.extra_info["counts"] = linear_db.counts

    # Timing target: the full exhaustive BFS, as the paper timed it
    # ("under two seconds on CS2").
    result = benchmark.pedantic(build_linear_database, args=(4,), rounds=1)
    assert result.states_stored == 322560


def test_table5_paper_example(linear_db, benchmark):
    """Section 4.3's 10-gate example function and printed circuit."""
    values = []
    for x in range(16):
        a, b, c, d = x & 1, (x >> 1) & 1, (x >> 2) & 1, (x >> 3) & 1
        values.append((b ^ 1) | ((a ^ c ^ 1) << 1) | ((d ^ 1) << 2) | (a << 3))
    synth = create_engine("linear", n_wires=4).impl
    synth._db = linear_db
    assert synth.size(values) == 10
    paper_circuit = Circuit.parse(
        "CNOT(b,a) CNOT(c,d) CNOT(d,b) NOT(d) CNOT(a,b) CNOT(d,c) "
        "CNOT(b,d) CNOT(d,a) NOT(d) CNOT(c,b)",
        4,
    )
    assert paper_circuit.implements(values)
    ours = benchmark(synth.synthesize, values)
    assert ours.gate_count == 10
    assert ours.implements(values)
    print_header("Section 4.3 example (one of the 138 hardest linear functions)")
    print(f"paper circuit: {paper_circuit}")
    print(f"our circuit  : {ours}")
