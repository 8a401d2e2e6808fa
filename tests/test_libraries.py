"""Tests for the generalized gate libraries (NCT/NCTS/NCTSF/NCP)."""

import pytest

from repro.core import packed
from repro.errors import InvalidGateError, SynthesisError
from repro.synth.libraries import (
    GateLibrary,
    LibraryGate,
    build_size_table,
    full_distribution,
    ncp,
    nct,
    ncts,
    nctsf,
)


class TestLibraryConstruction:
    @pytest.mark.parametrize(
        "maker,n3_count,n4_count",
        [(nct, 12, 32), (ncts, 15, 38), (nctsf, 18, 50), (ncp, 21, 64)],
    )
    def test_gate_counts(self, maker, n3_count, n4_count):
        assert len(maker(3)) == n3_count
        assert len(maker(4)) == n4_count

    def test_all_words_are_valid_permutations(self):
        for maker in (nct, ncts, nctsf, ncp):
            library = maker(4)
            for gate in library.gates:
                assert packed.is_valid(gate.word, 4), gate.label
                assert (
                    packed.inverse(gate.word, 4) == gate.inverse_word
                ), gate.label

    def test_peres_is_not_involution(self):
        library = ncp(3)
        peres = [g for g in library.gates if g.label.startswith("PERES")]
        assert peres and all(not g.is_involution for g in peres)

    def test_swap_fredkin_are_involutions(self):
        library = nctsf(4)
        for gate in library.gates:
            if gate.label.startswith(("SWAP", "FRED")):
                assert gate.is_involution

    def test_peres_semantics(self):
        """PERES(a,b,c): b ^= a; c ^= ab (on the original a, b)."""
        library = ncp(3)
        peres = next(g for g in library.gates if g.label == "PERES(a,b,c)")
        for x in range(8):
            a, b = x & 1, (x >> 1) & 1
            expected = x ^ (a << 1) ^ ((a & b) << 2)
            assert packed.get(peres.word, x) == expected

    def test_closure_validation_rejects_open_sets(self):
        # A lone SWAP(a,b) is inversion-closed but not relabeling-closed.
        from repro.synth.libraries import _swap_gate

        with pytest.raises(InvalidGateError):
            GateLibrary("bad", 4, [_swap_gate(0, 1, 4)])

    def test_duplicate_gates_rejected(self):
        gate = LibraryGate(label="X", word=packed.identity(4), inverse_word=packed.identity(4))
        with pytest.raises(InvalidGateError):
            GateLibrary("dup", 4, [gate, gate])


class TestSizeTables:
    def test_nct_table_matches_main_engine(self, db4_k4):
        table = build_size_table(nct(4), 4)
        assert table.database.reduced_counts() == db4_k4.reduced_counts()

    def test_full_distributions_n3(self):
        """Exact full-group distributions per library; richer libraries
        shrink the maximum size (NCT 8 -> NCP 6)."""
        expected = {
            "NCT": [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577],
            "NCTS": [1, 15, 134, 844, 3752, 11194, 17531, 6817, 32],
            "NCTSF": [1, 18, 184, 1318, 6474, 17695, 14134, 496],
            "NCP": [1, 21, 300, 3001, 14329, 22013, 655],
        }
        for maker in (nct, ncts, nctsf, ncp):
            library = maker(3)
            assert full_distribution(library) == expected[library.name]

    def test_richer_library_never_increases_size(self):
        """NCT circuits are NCTS circuits, etc.: sizes are monotone."""
        tables = [build_size_table(maker(3), 8) for maker in (nct, ncts, nctsf)]
        import random

        rng = random.Random(11)
        for _ in range(40):
            word = packed.random_word(3, rng)
            sizes = [t.size_of(word) for t in tables]
            assert sizes[0] >= sizes[1] >= sizes[2]

    def test_peel_labels_roundtrip(self):
        library = nctsf(3)
        table = build_size_table(library, 7)
        by_label = {g.label: g for g in library.gates}
        import random

        rng = random.Random(3)
        for _ in range(10):
            word = packed.random_word(3, rng)
            labels = table.peel_labels(word)
            assert len(labels) == table.size_of(word)
            current = packed.identity(3)
            for label in labels:
                current = packed.compose(current, by_label[label].word, 3)
            assert current == word

    def test_peel_beyond_depth_raises(self):
        table = build_size_table(nct(3), 2)
        import random

        rng = random.Random(5)
        # Find a function deeper than 2 gates.
        while True:
            word = packed.random_word(3, rng)
            if table.size_of(word) is None:
                break
        with pytest.raises(SynthesisError):
            table.peel_labels(word)

    def test_incomplete_full_distribution_raises(self):
        # n = 4 cannot be exhausted at tiny k through this API.
        table = build_size_table(nct(4), 2)
        assert not table.complete
