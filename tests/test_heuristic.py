"""Tests for the MMD transformation-based heuristic baseline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permutation import Permutation
from repro.synth.heuristic import mmd_best_of_both, mmd_synthesize

perms4 = st.permutations(list(range(16))).map(Permutation.from_values)
perms3 = st.permutations(list(range(8))).map(Permutation.from_values)


class TestCorrectness:
    @given(perms4)
    @settings(deadline=None, max_examples=60)
    def test_unidirectional_implements_spec(self, perm):
        circuit = mmd_synthesize(perm, bidirectional=False)
        assert circuit.implements(perm)

    @given(perms4)
    @settings(deadline=None, max_examples=60)
    def test_bidirectional_implements_spec(self, perm):
        circuit = mmd_synthesize(perm, bidirectional=True)
        assert circuit.implements(perm)

    @given(perms3)
    @settings(deadline=None, max_examples=40)
    def test_n3_implements_spec(self, perm):
        assert mmd_synthesize(perm).implements(perm)

    def test_identity_yields_empty_circuit(self):
        circuit = mmd_synthesize(list(range(16)))
        assert circuit.gate_count == 0

    def test_single_gate_functions(self):
        from repro.core.gates import all_gates

        for gate in all_gates(4):
            perm = Permutation(gate.to_word(4), 4)
            circuit = mmd_synthesize(perm)
            assert circuit.implements(perm)


class TestQuality:
    @given(perm=perms3)
    @settings(deadline=None, max_examples=30)
    def test_never_better_than_optimal(self, perm, engine3):
        """On n = 3 the optimal engine is exhaustive: MMD >= optimal."""
        optimal = engine3.size_of(perm.word)
        heuristic = mmd_best_of_both(perm).circuit.gate_count
        assert heuristic >= optimal

    def test_gate_count_bounded(self):
        """The classical bound: at most (2^n - 1) * n gates-ish; verify a
        generous linear bound holds on a sample."""
        from repro.rng.sampling import PermutationSampler

        sampler = PermutationSampler(4, seed=8)
        for _ in range(40):
            perm = sampler.sample()
            circuit = mmd_synthesize(perm, bidirectional=False)
            assert circuit.gate_count <= 16 * 4

    def test_bidirectional_usually_helps_on_average(self):
        from repro.rng.sampling import PermutationSampler

        sampler = PermutationSampler(4, seed=99)
        total_uni = total_bi = 0
        for _ in range(60):
            perm = sampler.sample()
            total_uni += mmd_synthesize(perm, bidirectional=False).gate_count
            total_bi += mmd_synthesize(perm, bidirectional=True).gate_count
        assert total_bi < total_uni

    def test_best_of_both_picks_smaller(self):
        from repro.benchmarks_data import get_benchmark

        perm = get_benchmark("4_49").permutation()
        uni = mmd_synthesize(perm, bidirectional=False).gate_count
        bi = mmd_synthesize(perm, bidirectional=True).gate_count
        best = mmd_best_of_both(perm)
        assert best.circuit.gate_count == min(uni, bi)

    def test_heuristic_overhead_exists(self, engine3):
        """The paper's premise: heuristics leave room above optimal.

        Over all-sizes sampling on n = 3 the MMD average strictly exceeds
        the optimal average."""
        from repro.rng.sampling import PermutationSampler

        sampler = PermutationSampler(3, seed=13)
        optimal_total = heuristic_total = 0
        for _ in range(80):
            perm = sampler.sample()
            optimal_total += engine3.size_of(perm.word)
            heuristic_total += mmd_best_of_both(perm).circuit.gate_count
        assert heuristic_total > optimal_total
