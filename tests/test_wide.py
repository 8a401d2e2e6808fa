"""Tests for the wide (n >= 5) search engine."""

import pytest

from repro.core.circuit import Circuit
from repro.errors import SynthesisError
from repro.rng.mt19937 import MersenneTwister
from repro.rng.sampling import random_circuit
from repro.synth.wide import wide_bfs, wide_synthesize


@pytest.fixture(scope="module")
def wide5():
    return wide_bfs(5, 2)


class TestCrossValidation:
    def test_n4_counts_match_table4(self):
        """The wide engine on n = 4 reproduces the packed engine's
        exact function counts (Table 4)."""
        result = wide_bfs(4, 3)
        assert result.counts == [1, 32, 784, 16204]

    def test_n3_counts(self):
        result = wide_bfs(3, 4)
        assert result.counts == [1, 12, 102, 625, 2780]

    def test_n3_exhaustive(self):
        """An exhausted search ends at L(3) = 8, with no empty level."""
        result = wide_bfs(3, 10)
        assert result.counts == [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577]

    def test_sizes_match_packed_engine(self, db4_k4):
        result = wide_bfs(4, 3)
        for row_bytes, size in list(result.known.items())[:100]:
            values = list(row_bytes)
            from repro.core import packed

            word = packed.pack(values)
            assert db4_k4.size_of(word) == size


class TestFiveWires:
    def test_gate_library_size(self, wide5):
        """5 NOT + 20 CNOT + 30 TOF + 20 TOF4 + 5 TOF5 = 80 gates."""
        assert wide5.counts[1] == 80

    def test_identity(self, wide5):
        assert wide5.size_of(list(range(32))) == 0

    def test_two_gate_count_structure(self, wide5):
        # Level 2 is below 80^2 (cancellations and commutations collide).
        assert 0 < wide5.counts[2] < 80 * 80
        assert wide5.states_stored == sum(wide5.counts)

    def test_synthesize_random_circuits(self, wide5):
        rng = MersenneTwister(9)
        for _ in range(5):
            circuit = random_circuit(5, 2, rng)
            table = circuit.truth_table()
            size = wide5.size_of(table)
            assert size is not None and size <= 2
            synthesized = wide_synthesize(wide5, table)
            assert synthesized.truth_table() == table
            assert synthesized.gate_count == size

    def test_beyond_depth_raises(self, wide5):
        # x -> x+1 mod 32 needs 5 gates; depth-2 table cannot reach it.
        shift = [(x + 1) % 32 for x in range(32)]
        assert wide5.size_of(shift) is None
        with pytest.raises(SynthesisError):
            wide_synthesize(wide5, shift)

    def test_frontier_guard(self):
        with pytest.raises(SynthesisError):
            wide_bfs(5, 4, max_frontier=1000)


class TestFiveWireShift:
    def test_shift32_is_five_gates(self):
        """x -> x+1 (mod 32) generalizes shift4's 4-gate ripple to five
        wires: TOF5 TOF4 TOF CNOT NOT."""
        circuit = Circuit.parse(
            "TOF4(a,b,c,d) CNOT(a,b) NOT(a)", 4
        )  # guard: parse still works on 4 wires
        assert circuit.gate_count == 3
        from repro.core.gates import Gate

        ripple = Circuit(
            gates=(
                Gate(controls=(0, 1, 2, 3), target=4),
                Gate(controls=(0, 1, 2), target=3),
                Gate(controls=(0, 1), target=2),
                Gate(controls=(0,), target=1),
                Gate(controls=(), target=0),
            ),
            n_wires=5,
        )
        assert ripple.truth_table() == [(x + 1) % 32 for x in range(32)]
