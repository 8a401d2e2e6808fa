"""Tests for the non-reduced BFS baseline (Prasad-style)."""

from repro.core import packed
from repro.synth.plain_bfs import plain_bfs, plain_bfs_counts


class TestPlainBfs:
    def test_counts_match_table4(self):
        assert plain_bfs_counts(4, 3) == [1, 32, 784, 16204]

    def test_reduction_factor_vs_reduced_engine(self, db4_k4):
        """The paper's ×48 claim: raw states / reduced states ≈ 48."""
        raw = plain_bfs(4, 4)
        raw_total = raw.states_stored
        reduced_total = sum(db4_k4.reduced_counts())
        ratio = raw_total / reduced_total
        assert 44 <= ratio <= 48

    def test_sizes_agree_with_reduced_database(self, db4_k4, rng):
        raw = plain_bfs(4, 4)
        keys = raw.table.keys()
        for _ in range(40):
            word = int(keys[rng.randrange(len(keys))])
            assert raw.size_of(word) == db4_k4.size_of(word)

    def test_identity(self):
        result = plain_bfs(4, 1)
        assert result.size_of(packed.identity(4)) == 0

    def test_n3_exhaustive(self):
        result = plain_bfs(3, 10)
        assert sum(result.counts) == 40320
        assert result.counts == [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577]
