"""Tests for the hashing substrate (Wang hash + linear-probing table)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed_np import conjugation_signature_np
from repro.hashing.table import (
    _ROUND_SLOTS,
    EMPTY,
    LinearProbingTable,
    MissFilter,
    probe_get,
)
from repro.hashing.wang import hash64shift, hash64shift_np

uint64s = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestWangHash:
    def test_deterministic(self):
        assert hash64shift(12345) == hash64shift(12345)

    def test_distinct_on_small_inputs(self):
        outputs = {hash64shift(x) for x in range(4096)}
        assert len(outputs) == 4096

    @given(uint64s)
    def test_output_is_64_bit(self, x):
        assert 0 <= hash64shift(x) < (1 << 64)

    @given(st.lists(uint64s, min_size=1, max_size=64))
    def test_vectorized_matches_scalar(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        expected = [hash64shift(k) for k in keys]
        assert hash64shift_np(arr).tolist() == expected

    def test_avalanche_smoke(self):
        """Flipping one input bit flips many output bits on average."""
        total = 0
        for x in range(256):
            baseline = hash64shift(x)
            flipped = hash64shift(x ^ 1)
            total += bin(baseline ^ flipped).count("1")
        assert total / 256 > 20  # ~32 expected for a good mixer


class TestLinearProbingTable:
    def test_insert_get(self):
        table = LinearProbingTable(capacity_bits=6)
        assert table.insert(42, 7)
        assert not table.insert(42, 9)  # duplicate keeps first value
        assert table.get(42) == 7
        assert table.get(43) is None
        assert table.get(43, default=123) == 123
        assert 42 in table and 43 not in table
        assert len(table) == 1

    def test_grows_past_load_factor(self):
        table = LinearProbingTable(capacity_bits=4, max_load_factor=0.5)
        for key in range(100):
            table.insert(key, key % 200)
        assert len(table) == 100
        assert table.load_factor <= 0.5 + 1e-9
        for key in range(100):
            assert table.get(key) == key % 200

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=(1 << 64) - 2),
            st.integers(min_value=0, max_value=254),
            max_size=200,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_matches_dict_model(self, model):
        table = LinearProbingTable(capacity_bits=4)
        for key, value in model.items():
            table.insert(key, value)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value
        keys = np.array(list(model) or [0], dtype=np.uint64)
        looked_up = table.lookup_batch(keys)
        for key, result in zip(keys.tolist(), looked_up.tolist()):
            assert result == model.get(key, table.missing_value)

    def test_batch_insert_and_lookup(self):
        table = LinearProbingTable(capacity_bits=4)
        keys = np.arange(1000, dtype=np.uint64)
        values = (keys % 200).astype(np.uint8)
        added = table.insert_batch(keys, values)
        assert added == 1000
        assert table.insert_batch(keys, values) == 0  # all duplicates
        result = table.lookup_batch(keys)
        assert (result == values).all()
        missing = table.lookup_batch(np.array([5000, 6000], dtype=np.uint64))
        assert (missing == table.missing_value).all()

    def test_contains_batch(self):
        table = LinearProbingTable(capacity_bits=6)
        table.insert_batch(np.array([1, 2, 3], dtype=np.uint64), 0)
        mask = table.contains_batch(np.array([2, 9], dtype=np.uint64))
        assert mask.tolist() == [True, False]

    def test_lookup_empty_batch(self):
        table = LinearProbingTable(capacity_bits=4)
        assert table.lookup_batch(np.empty(0, dtype=np.uint64)).shape == (0,)

    def test_keys_items(self):
        table = LinearProbingTable(capacity_bits=6)
        table.insert(10, 1)
        table.insert(20, 2)
        assert set(table.keys().tolist()) == {10, 20}
        keys, values = table.items()
        assert dict(zip(keys.tolist(), values.tolist())) == {10: 1, 20: 2}

    def test_stats(self):
        table = LinearProbingTable(capacity_bits=8)
        for key in range(100):
            table.insert(key * 7919, 0)
        stats = table.stats()
        assert stats.count == 100
        assert stats.capacity == 256
        assert stats.load_factor == pytest.approx(100 / 256)
        assert stats.average_probe_length >= 1.0
        assert stats.maximal_cluster_length >= 1
        assert stats.memory_bytes == 256 * 9
        assert any("Load Factor" in row for row in stats.format_rows())

    def test_stats_empty(self):
        stats = LinearProbingTable(capacity_bits=4).stats()
        assert stats.count == 0
        assert stats.load_factor == 0.0

    def test_empty_sentinel_not_insertable_as_ordinary_key(self):
        # EMPTY is reserved; the table is only used with valid packed
        # permutations, which can never equal it.
        from repro.core import packed

        assert not packed.is_valid(int(EMPTY), 4)

    def test_capacity_bits_validation(self):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            LinearProbingTable(capacity_bits=2)


def _store_load_table():
    """A 1024-slot table at the k=5 store's load factor (0.83) whose first
    cluster runs from the last slots across the wrap into slot 0.

    Returns ``(table, stored_keys, wrap_misses, misses)``; the wrap
    misses are absent keys whose home slot lies in that cluster.
    """
    capacity = 1 << 10
    rng = np.random.default_rng(2024)
    pool = np.unique(rng.integers(0, 2**63, size=20 * capacity, dtype=np.uint64))
    pool = rng.permutation(pool)
    homes = hash64shift_np(pool) & np.uint64(capacity - 1)
    near_end = pool[homes >= capacity - 4]
    elsewhere = pool[homes < capacity - 4]
    stored = np.concatenate([
        near_end[:48], elsewhere[: int(0.83 * capacity) - 48]
    ])
    table = LinearProbingTable(capacity_bits=10)
    values = rng.integers(0, 255, size=stored.size).tolist()
    for key, value in zip(stored.tolist(), values):
        table.insert(key, value)
    assert table.capacity == capacity
    slot_keys, _ = table.slot_arrays()
    assert hash64shift(int(slot_keys[0])) & (capacity - 1) >= capacity - 4
    wrap_misses = near_end[48:]
    misses = elsewhere[int(0.83 * capacity) - 48 :]
    return table, stored, wrap_misses, misses


class TestMissFilter:
    """The two-probe filter holds every signature it was built from."""

    def test_admits_every_signature_it_holds(self):
        rng = np.random.default_rng(24)
        held = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
        others = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
        miss_filter = MissFilter.build(np.split(held, [7_000, 7_001]), 10_000)
        assert miss_filter.bitset.shape == (1 << 13,)
        assert miss_filter.admits(held).all()
        assert miss_filter.admits(others).mean() < 0.03

    def test_signatures_sharing_a_word_in_one_chunk_all_stick(self):
        """A fancy-indexed OR keeps one write per repeated word index;
        the build re-inserts the rest."""
        rng = np.random.default_rng(25)
        low_bits = rng.permutation(1 << 12)[:40].astype(np.uint64)
        same_word = (np.uint64(5) << np.uint64(60)) | low_bits
        miss_filter = MissFilter.build([same_word], 1)
        assert miss_filter.admits(same_word).all()
        assert np.count_nonzero(miss_filter.bitset) == 1
        assert miss_filter.admits(same_word ^ np.uint64(1 << 63)).sum() == 0


class TestBatchProbeMatchesScalar:
    """``probe_lookup_batch`` settles each key where ``probe_get`` does,
    over slots in RAM and mapped from a store, at the real store's load
    factor; and the miss filter, whose signatures admit every stored
    key, rejects only misses, though none of these keys is a
    permutation."""

    @staticmethod
    def _batches(stored, wrap_misses, misses):
        rng = np.random.default_rng(7)
        yield stored[:1]
        yield wrap_misses[:1]
        yield misses[:1]
        yield stored[-1:]
        # The largest batch starts with one-slot rounds (more keys than
        # one round reads); the others start with wider windows.
        for size in (32, 1500, _ROUND_SLOTS + 1):
            mixed = np.concatenate([
                rng.choice(stored, size // 2),
                rng.choice(wrap_misses, size // 4),
                rng.choice(misses, size - size // 2 - size // 4),
            ])
            yield rng.permutation(mixed)

    @staticmethod
    def _check(db, batch):
        table = db.table
        slot_keys, slot_values = table.slot_arrays()
        expected = [
            probe_get(slot_keys, slot_values, key, table.missing_value)
            for key in batch.tolist()
        ]
        assert table.lookup_batch(batch).tolist() == expected
        miss_filter = db.miss_filter()
        for keys in (table.keys(), batch[np.array(expected) != table.missing_value]):
            assert miss_filter.admits(conjugation_signature_np(keys, 4)).all()
        rejected = ~miss_filter.admits(conjugation_signature_np(batch, 4))
        assert (np.array(expected)[rejected] == table.missing_value).all()
        return expected

    @staticmethod
    def _database(table, stored):
        from repro.synth.database import OptimalDatabase

        return OptimalDatabase(
            n_wires=4, k=0, table=table, reps_by_size=[np.sort(stored)]
        )

    def test_in_ram_table(self):
        table, stored, wrap_misses, misses = _store_load_table()
        assert table.load_factor == pytest.approx(0.83, abs=0.005)
        db = self._database(table, stored)
        for batch in self._batches(stored, wrap_misses, misses):
            self._check(db, batch)

    def test_mapped_store(self, tmp_path):
        from repro.store import map_database, write_rdb

        table, stored, wrap_misses, misses = _store_load_table()
        db = self._database(table, stored)
        mapped = map_database(write_rdb(db, tmp_path / "load83.rdb"))
        for batch in self._batches(stored, wrap_misses, misses):
            expected = self._check(mapped, batch)
            assert table.lookup_batch(batch).tolist() == expected
