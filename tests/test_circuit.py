"""Tests for the Circuit value type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.gates import CNOT, NOT, TOF, all_gates
from repro.errors import InvalidCircuitError

gates_strategy = st.lists(st.sampled_from(all_gates(4)), max_size=12)


class TestConstruction:
    def test_empty(self):
        circuit = Circuit.empty(4)
        assert circuit.gate_count == 0
        assert circuit.apply(7) == 7
        assert str(circuit) == "(identity)"

    def test_gate_must_fit(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(gates=(TOF(1, 2, 3),), n_wires=3)

    def test_bad_wire_count(self):
        with pytest.raises(InvalidCircuitError):
            Circuit(gates=(), n_wires=0)

    def test_parse_and_str_roundtrip(self):
        text = "TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c)"
        circuit = Circuit.parse(text, 4)
        assert str(circuit) == text
        assert Circuit.parse(str(circuit), 4) == circuit

    def test_parse_empty(self):
        assert Circuit.parse("  ", 4) == Circuit.empty(4)

    def test_parse_reads_back_the_empty_circuit(self):
        empty = Circuit.empty(4)
        assert Circuit.parse(str(empty), 4) == empty


class TestSemantics:
    def test_application_order_is_left_to_right(self):
        """NOT(a) then CNOT(a,b): on input 0, a flips first, then b := a."""
        circuit = Circuit.from_gates([NOT(0), CNOT(0, 1)], 4)
        assert circuit.apply(0) == 0b11

    def test_truth_table_matches_apply(self):
        circuit = Circuit.parse("TOF(a,b,c) NOT(d) CNOT(c,a)", 4)
        table = circuit.truth_table()
        for x in range(16):
            assert table[x] == circuit.apply(x)

    @given(gates_strategy)
    def test_to_word_matches_truth_table(self, gates):
        from repro.core import packed

        circuit = Circuit.from_gates(gates, 4)
        word = circuit.to_word()
        for x in range(16):
            assert packed.get(word, x) == circuit.apply(x)

    @given(gates_strategy)
    def test_inverse_circuit(self, gates):
        circuit = Circuit.from_gates(gates, 4)
        identity = circuit.then(circuit.inverse())
        for x in range(16):
            assert identity.apply(x) == x

    @given(gates_strategy, gates_strategy)
    def test_concatenation(self, first, second):
        a = Circuit.from_gates(first, 4)
        b = Circuit.from_gates(second, 4)
        combined = a + b
        for x in range(16):
            assert combined.apply(x) == b.apply(a.apply(x))

    def test_concatenation_width_mismatch(self):
        with pytest.raises(InvalidCircuitError):
            Circuit.empty(4).then(Circuit.empty(3))

    @given(gates_strategy)
    def test_relabeling_preserves_gate_count_and_conjugates(self, gates):
        from repro.core import packed

        circuit = Circuit.from_gates(gates, 4)
        sigma = (2, 0, 3, 1)
        relabeled = circuit.relabeled(sigma)
        assert relabeled.gate_count == circuit.gate_count
        assert relabeled.to_word() == packed.conjugate_by_wire_perm(
            circuit.to_word(), sigma, 4
        )

    def test_implements(self):
        circuit = Circuit.parse("NOT(a)", 4)
        spec = [x ^ 1 for x in range(16)]
        assert circuit.implements(spec)
        assert not circuit.implements(list(range(16)))

    def test_repeated(self):
        circuit = Circuit.parse("NOT(a)", 4)
        assert circuit.repeated(2).to_word() == Circuit.empty(4).to_word()
        with pytest.raises(InvalidCircuitError):
            circuit.repeated(-1)


class TestMetrics:
    def test_depth_sequential(self):
        # All four gates share wire a: depth == gate count.
        circuit = Circuit.parse("NOT(a) CNOT(a,b) TOF(a,b,c) NOT(a)", 4)
        assert circuit.depth() == 4

    def test_depth_parallel(self):
        # NOT(a) and CNOT(c,d) commute on disjoint wires: depth 1.
        circuit = Circuit.parse("NOT(a) CNOT(c,d)", 4)
        assert circuit.depth() == 1

    def test_depth_empty(self):
        assert Circuit.empty(4).depth() == 0

    @given(gates_strategy)
    def test_depth_at_most_gate_count(self, gates):
        circuit = Circuit.from_gates(gates, 4)
        assert circuit.depth() <= circuit.gate_count
        if circuit.gate_count:
            assert circuit.depth() >= 1

    def test_ncv_cost(self):
        circuit = Circuit.parse("NOT(a) CNOT(a,b) TOF(a,b,c) TOF4(a,b,c,d)", 4)
        assert circuit.cost() == 1 + 1 + 5 + 13

    def test_custom_cost_model(self):
        circuit = Circuit.parse("NOT(a) TOF(a,b,c)", 4)
        assert circuit.cost({0: 2, 1: 3, 2: 7, 3: 11}) == 9

    def test_gate_histogram(self):
        circuit = Circuit.parse("NOT(a) NOT(b) TOF(a,b,c)", 4)
        assert circuit.gate_histogram() == {"NOT": 2, "TOF": 1}

    def test_used_wires(self):
        circuit = Circuit.parse("CNOT(a,b)", 4)
        assert circuit.used_wires() == frozenset({0, 1})


class TestSequenceProtocol:
    def test_len_iter_getitem(self):
        circuit = Circuit.parse("NOT(a) CNOT(a,b) TOF(a,b,c)", 4)
        assert len(circuit) == 3
        assert list(circuit) == list(circuit.gates)
        assert circuit[0] == NOT(0)
        sliced = circuit[1:]
        assert isinstance(sliced, Circuit)
        assert sliced.gate_count == 2

    def test_draw_contains_symbols(self):
        drawing = Circuit.parse("TOF(a,b,d)", 4).draw()
        assert "●" in drawing and "⊕" in drawing
        assert drawing.count("\n") == 3
