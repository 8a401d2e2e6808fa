"""Tests for depth-optimal synthesis (paper §5 extension)."""

import pytest

from repro.core.circuit import Circuit
from repro.core.gates import all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.depth import (
    DepthOptimalSynthesizer,
    all_layers,
    layer_word,
)


@pytest.fixture(scope="module")
def depth_synth():
    synth = DepthOptimalSynthesizer(4, max_depth=4)
    synth.database  # force build
    return synth


class TestLayers:
    def test_layer_counts(self):
        assert len(all_layers(4)) == 103
        assert len(all_layers(3)) == 22

    def test_layers_have_disjoint_support(self):
        for layer in all_layers(4):
            wires: set[int] = set()
            for gate in layer:
                assert not (wires & gate.support)
                wires |= gate.support

    def test_single_gate_layers_first(self):
        layers = all_layers(4)
        assert all(len(layer) == 1 for layer in layers[:32])

    def test_layer_word_order_independent(self):
        from repro.core.gates import CNOT, NOT

        layer_a = (NOT(0), CNOT(2, 3))
        layer_b = (CNOT(2, 3), NOT(0))
        assert layer_word(layer_a, 4) == layer_word(layer_b, 4)

    def test_layer_words_are_involutions(self):
        from repro.core import packed

        for layer in all_layers(4)[:40]:
            word = layer_word(layer, 4)
            assert packed.compose(word, word, 4) == packed.identity(4)

    def test_paper_example_layer_exists(self):
        """Section 5: 'sequence NOT(a) CNOT(b,c) is counted as a single
        gate' -- that pair is one of our layers."""
        from repro.core.gates import CNOT, NOT

        assert (NOT(0), CNOT(1, 2)) in all_layers(4)


class TestDepthDatabase:
    def test_depth_counts_start(self, depth_synth):
        counts = depth_synth.database.reduced_counts()
        assert counts[0] == 1
        # Depth 1 classes: every layer collapses to 11 canonical classes.
        assert counts[1] == 11

    def test_gates_have_depth_one(self, depth_synth):
        for gate in all_gates(4):
            assert depth_synth.depth(Permutation(gate.to_word(4), 4)) == 1

    def test_depth_at_most_gate_count(self, depth_synth, db4_k4, rng):
        for size in (2, 3):
            reps = db4_k4.reps_by_size[size]
            for _ in range(5):
                word = int(reps[rng.randrange(len(reps))])
                assert depth_synth.depth(Permutation(word, 4)) <= size


class TestDepthSynthesis:
    def test_synthesize_achieves_reported_depth(self, depth_synth, db4_k4, rng):
        for size in (1, 2, 3):
            reps = db4_k4.reps_by_size[size]
            for _ in range(4):
                word = int(reps[rng.randrange(len(reps))])
                perm = Permutation(word, 4)
                circuit = depth_synth.synthesize(perm)
                assert circuit.implements(perm)
                assert circuit.depth() == depth_synth.depth(perm)

    def test_rd32_depth(self, depth_synth, engine4_l7):
        """rd32's gate-count-optimal circuit has depth 4; depth-optimal
        synthesis does at least as well."""
        from repro.benchmarks_data import get_benchmark

        rd32 = get_benchmark("rd32").permutation()
        gate_optimal = engine4_l7.minimal_circuit(rd32.word)
        depth = depth_synth.depth(rd32)
        assert depth <= gate_optimal.depth()
        circuit = depth_synth.synthesize(rd32)
        assert circuit.implements(rd32)
        assert circuit.depth() == depth

    def test_out_of_reach_raises(self, depth_synth):
        from repro.benchmarks_data import get_benchmark

        with pytest.raises(SynthesisError):
            depth_synth.depth(get_benchmark("hwb4").permutation())

    def test_parallel_pair_is_depth_one(self, depth_synth):
        circuit = Circuit.parse("NOT(a) CNOT(c,d)", 4)
        perm = Permutation(circuit.to_word(), 4)
        assert depth_synth.depth(perm) == 1
