"""Tests for the BFS engines (paper Algorithm 2)."""

import numpy as np
import pytest

from repro.core import equivalence
from repro.core.circuit import Circuit
from repro.synth.bfs import (
    bfs_reference,
    build_database,
    reconstruct_from_witnesses,
)


class TestVectorizedBfs:
    def test_table4_anchors_k4(self, db4_k4):
        """Exact match with the paper's Table 4 for sizes 0..4."""
        assert db4_k4.reduced_counts() == [1, 4, 33, 425, 6538]
        assert db4_k4.function_counts() == [1, 32, 784, 16204, 294507]

    def test_table4_anchors_k5(self, db4_k5):
        assert db4_k5.reduced_counts() == [1, 4, 33, 425, 6538, 101983]
        assert db4_k5.function_counts()[5] == 4807552

    def test_representatives_are_canonical(self, db4_k4):
        for size, reps in enumerate(db4_k4.reps_by_size):
            sample = reps[:: max(1, len(reps) // 50)]
            for word in sample.tolist():
                assert equivalence.is_canonical(word, 4)
                assert db4_k4.size_of(word) == size

    def test_representatives_sorted_unique(self, db4_k4):
        for reps in db4_k4.reps_by_size[1:]:
            as_int = reps.astype(np.uint64)
            assert np.all(np.diff(as_int) > 0)

    def test_n3_complete_enumeration(self, db3):
        """The n = 3 BFS covers all 8! functions and stops at L(3) = 8."""
        assert db3.total_functions() == 40320
        assert db3.function_counts() == [
            1,
            12,
            102,
            625,
            2780,
            8921,
            17049,
            10253,
            577,
        ]

    def test_early_termination_pads_empty_levels(self):
        db = build_database(2, 10)
        # The 2-wire group has 4! = 24 functions; depth stops well below 10.
        assert db.total_functions() == 24
        assert len(db.reps_by_size) == 11
        assert all(r.shape[0] == 0 for r in db.reps_by_size[7:])

    def test_restricted_gate_library(self):
        from repro.core.gates import linear_gates

        db = build_database(4, 3, gates=linear_gates(4))
        # With NOT/CNOT only, function counts match Table 5's head.
        assert db.function_counts() == [1, 16, 162, 1206]

    def test_chunking_does_not_change_results(self):
        small_chunks = build_database(4, 3, chunk=64)
        default = build_database(4, 3)
        for a, b in zip(small_chunks.reps_by_size, default.reps_by_size):
            assert np.array_equal(a, b)

    def test_progress_callback(self):
        seen = []
        build_database(4, 2, progress=lambda level, count: seen.append((level, count)))
        assert seen == [(1, 4), (2, 33)]


class TestReferenceBfs:
    @pytest.mark.parametrize("n_wires,k", [(3, 4), (4, 3)])
    def test_matches_vectorized(self, n_wires, k):
        reference = bfs_reference(n_wires, k)
        vectorized = build_database(n_wires, k)
        by_size: dict[int, set[int]] = {}
        for canon, witness in reference.items():
            by_size.setdefault(witness.size, set()).add(canon)
        for size, reps in enumerate(vectorized.reps_by_size):
            assert by_size.get(size, set()) == set(reps.tolist())

    def test_witness_reconstruction(self):
        """Witness chains decode to genuinely minimal circuits."""
        witnesses = bfs_reference(4, 3)
        checked = 0
        for canon, witness in witnesses.items():
            if witness.size == 0:
                continue
            gates = reconstruct_from_witnesses(canon, witnesses, 4)
            circuit = Circuit.from_gates(gates, 4)
            assert circuit.gate_count == witness.size
            assert circuit.to_word() == canon
            checked += 1
            if checked >= 150:
                break
        assert checked == 150

    def test_witness_gates_are_library_gates(self):
        from repro.core.gates import all_gates

        library = set(all_gates(4))
        witnesses = bfs_reference(4, 2)
        for witness in witnesses.values():
            if witness.gate is not None:
                assert witness.gate in library
