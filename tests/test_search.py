"""Tests for the meet-in-the-middle search (paper Algorithm 1)."""

import pytest

from repro.core import packed
from repro.errors import SizeLimitExceededError
from repro.rng.sampling import PermutationSampler
from repro.synth.search import MeetInTheMiddleSearch, peel_minimal_circuit


class TestPeel:
    def test_peel_reconstructs_minimal_circuits(self, db4_k4, rng):
        for size in range(5):
            reps = db4_k4.reps_by_size[size]
            for _ in range(4):
                word = int(reps[rng.randrange(len(reps))])
                circuit = peel_minimal_circuit(word, db4_k4)
                assert circuit.gate_count == size
                assert circuit.to_word() == word

    def test_peel_works_on_non_canonical_members(self, db4_k4, rng):
        from repro.core import equivalence

        reps = db4_k4.reps_by_size[4]
        word = int(reps[rng.randrange(len(reps))])
        for member in sorted(equivalence.equivalence_class(word, 4))[:8]:
            circuit = peel_minimal_circuit(member, db4_k4)
            assert circuit.gate_count == 4
            assert circuit.to_word() == member

    def test_peel_rejects_out_of_reach(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        with pytest.raises(SizeLimitExceededError):
            peel_minimal_circuit(get_benchmark("hwb4").permutation().word, db4_k4)


class TestSearchCorrectness:
    def test_exhaustive_n3(self, engine3, db3):
        """For n = 3 every function is reachable; spot-check sizes against
        the full database and validate all returned circuits."""
        sampler = PermutationSampler(3, seed=77)
        for _ in range(60):
            word = sampler.sample_word()
            outcome = engine3.search(word)
            assert outcome.circuit.to_word() == word
            assert outcome.size == db3.size_of(word)

    def test_benchmarks_within_reach(self, engine4_l9):
        from repro.benchmarks_data import BENCHMARKS

        for bench in BENCHMARKS:
            if bench.optimal_size > engine4_l9.max_size:
                continue
            perm = bench.permutation()
            outcome = engine4_l9.search(perm.word)
            assert outcome.size == bench.optimal_size, bench.name
            assert outcome.circuit.implements(perm)

    def test_sizes_match_between_engines(self, engine4_l7, engine4_l9):
        """Two engines with different (k, m) splits agree on sizes.

        Query functions are drawn as random 7-gate circuits so their
        sizes are guaranteed within both engines' reach (uniform random
        permutations almost surely exceed L = 7).
        """
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        rng = MersenneTwister(31)
        for _ in range(15):
            word = random_circuit(4, 7, rng).to_word()
            assert engine4_l7.size_of(word) == engine4_l9.size_of(word)

    def test_minimality_against_reference_bfs(self, engine4_l7):
        """Every size-5..7 result is confirmed minimal by independent
        exhaustive BFS levels (via list membership)."""
        # A function on list A_i has size exactly i; the search must agree.
        for i, candidates in enumerate(engine4_l7.lists, start=1):
            for word in candidates[:: max(1, len(candidates) // 10)][:10].tolist():
                assert engine4_l7.size_of(word) == i

    def test_search_statistics(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        outcome = engine4_l7.search(get_benchmark("4bit-7-8").permutation().word)
        assert outcome.size == 7
        assert outcome.lists_scanned == 3  # needed A_3 (7 = 4 + 3)
        assert outcome.candidates_tested > 0

    def test_fast_path_statistics(self, engine4_l7):
        outcome = engine4_l7.search(packed.identity(4))
        assert outcome.size == 0
        assert outcome.lists_scanned == 0
        assert outcome.candidates_tested == 0


class TestSearchProperties:
    """Property-based invariants of the optimal search."""

    def test_size_never_exceeds_any_circuit_length(self, engine4_l7):
        """For any circuit C, size(function(C)) <= |C| and the returned
        circuit implements the same function (hypothesis over gates)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.circuit import Circuit
        from repro.core.gates import all_gates

        @given(gates=st.lists(st.sampled_from(all_gates(4)), max_size=6))
        @settings(deadline=None, max_examples=40)
        def run(gates):
            circuit = Circuit.from_gates(gates, 4)
            word = circuit.to_word()
            outcome = engine4_l7.search(word)
            assert outcome.size <= circuit.gate_count
            assert outcome.circuit.to_word() == word

        run()

    def test_size_is_invariant_under_inversion(self, engine4_l7):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.circuit import Circuit
        from repro.core.gates import all_gates

        @given(gates=st.lists(st.sampled_from(all_gates(4)), max_size=6))
        @settings(deadline=None, max_examples=25)
        def run(gates):
            word = Circuit.from_gates(gates, 4).to_word()
            assert engine4_l7.size_of(word) == engine4_l7.size_of(
                packed.inverse(word, 4)
            )

        run()

    def test_subadditivity(self, engine4_l7):
        """size(f·g) <= size(f) + size(g) (concatenate the circuits)."""
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        rng = MersenneTwister(17)
        for _ in range(10):
            f = random_circuit(4, 3, rng).to_word()
            g = random_circuit(4, 3, rng).to_word()
            combined = packed.compose(f, g, 4)
            assert engine4_l7.size_of(combined) <= engine4_l7.size_of(
                f
            ) + engine4_l7.size_of(g)


class TestBounds:
    def test_size_limit_exceeded_carries_bound(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > 7
        with pytest.raises(SizeLimitExceededError) as excinfo:
            engine4_l7.size_of(hwb4.word)
        assert excinfo.value.lower_bound == 8

    def test_prove_lower_bound(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()
        assert engine4_l7.prove_lower_bound(hwb4.word) == 8
        rd32 = get_benchmark("rd32").permutation()
        assert engine4_l7.prove_lower_bound(rd32.word) == 4

    def test_max_size(self, engine4_l7, engine4_l9, engine3):
        assert engine4_l7.max_size == 7
        assert engine4_l9.max_size == 9
        assert engine3.max_size == 12


class TestListConstruction:
    def test_list_sizes_match_table4(self, db4_k4):
        lists = MeetInTheMiddleSearch.build_lists(db4_k4, 3)
        assert [len(lst) for lst in lists] == [32, 784, 16204]

    def test_lists_are_inverse_closed(self, db4_k4):
        lists = MeetInTheMiddleSearch.build_lists(db4_k4, 2)
        for lst in lists:
            members = set(lst.tolist())
            for word in members:
                assert packed.inverse(word, 4) in members

    def test_lists_depth_capped_by_k(self, db4_k4):
        with pytest.raises(ValueError):
            MeetInTheMiddleSearch.build_lists(db4_k4, 5)

    def test_list_dtype_validated(self, db4_k4):
        import numpy as np

        with pytest.raises(TypeError):
            MeetInTheMiddleSearch(db4_k4, [np.array([1.0])])
