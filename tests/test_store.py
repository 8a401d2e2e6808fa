"""Tests for the repro.store subsystem: the .rdb flat binary store.

Covers the format round trip (write -> map -> byte-identical lookups),
the corruption edges (truncated header, bad magic, version skew,
checksum mismatch, capacity/length disagreement -- each a DatabaseError
naming the path), the peel-mask extent and its verification,
describe/verify, the synthesizer's cache store, the read-only mapped
table, and the db.map/db.verify trace spans.
"""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro import store
from repro.errors import DatabaseError
from repro.store.format import _FIXED  # noqa: PLC2701 - format edge tests


@pytest.fixture(scope="module")
def rdb3(tmp_path_factory, db3):
    """The n=3 session database persisted as an .rdb store."""
    path = tmp_path_factory.mktemp("store") / "db-n3-k8.rdb"
    store.write_rdb(db3, path)
    return path


def _all_reps(db):
    return np.concatenate(
        [np.asarray(r, dtype=np.uint64) for r in db.reps_by_size if len(r)]
    )


# ----------------------------------------------------------------------
# Round trip and parity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_map_preserves_parameters(self, rdb3, db3):
        mapped = store.map_database(rdb3)
        assert mapped.n_wires == db3.n_wires
        assert mapped.k == db3.k
        assert len(mapped.table) == len(db3.table)

    def test_lookup_batch_byte_identical(self, rdb3, db3):
        mapped = store.map_database(rdb3)
        rng = np.random.default_rng(7)
        keys = np.concatenate([
            rng.integers(0, 2**64, size=50_000, dtype=np.uint64),
            _all_reps(db3),
        ])
        expected = db3.table.lookup_batch(keys)
        got = mapped.table.lookup_batch(keys)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_scalar_get_parity(self, rdb3, db3):
        mapped = store.map_database(rdb3)
        for rep in _all_reps(db3)[:200]:
            assert mapped.table.get(int(rep)) == db3.table.get(int(rep))
        assert mapped.table.get(0xDEAD_BEEF_0000_0001) is None

    def test_reps_views_identical(self, rdb3, db3):
        mapped = store.map_database(rdb3)
        assert len(mapped.reps_by_size) == len(db3.reps_by_size)
        for ours, theirs in zip(mapped.reps_by_size, db3.reps_by_size):
            assert np.array_equal(np.asarray(ours), np.asarray(theirs))

    def test_stats_match_in_ram_table(self, rdb3, db3):
        ours = store.map_database(rdb3).table.stats()
        theirs = db3.table.stats()
        assert ours.capacity == theirs.capacity
        assert ours.count == theirs.count
        assert ours.average_probe_length == theirs.average_probe_length
        assert ours.maximal_cluster_length == theirs.maximal_cluster_length

    def test_mapped_database_synthesizes(self, rdb3, db3):
        # The mapped database drives the search engine end to end.
        from repro.synth.search import MeetInTheMiddleSearch

        mapped = store.map_database(rdb3)
        lists = MeetInTheMiddleSearch.build_lists(mapped, 1)
        engine = MeetInTheMiddleSearch(mapped, lists)
        word = int(db3.reps_by_size[3][0])
        circuit = engine.minimal_circuit(word)
        assert circuit.gate_count == 3

    def test_write_is_deterministic(self, tmp_path, db3):
        a = tmp_path / "a.rdb"
        b = tmp_path / "b.rdb"
        store.write_rdb(db3, a)
        store.write_rdb(db3, b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=64))
def test_hypothesis_rdb_lookups_identical(tmp_path_factory, probes):
    """Property: write_rdb + map_database preserves every lookup result
    of the in-RAM build."""
    base = tmp_path_factory.mktemp("hyp")
    from repro.synth.bfs import build_database

    db = build_database(2, 3)
    mapped = store.map_database(store.write_rdb(db, base / "db.rdb"))
    keys = np.concatenate([
        np.array(probes, dtype=np.uint64),
        _all_reps(db),
    ])
    assert np.array_equal(
        mapped.table.lookup_batch(keys), db.table.lookup_batch(keys)
    )


# ----------------------------------------------------------------------
# Read-only mapped table
# ----------------------------------------------------------------------
class TestMmapTableReadOnly:
    def test_insert_refused_with_path(self, rdb3):
        table = store.map_database(rdb3).table
        with pytest.raises(DatabaseError, match="read-only mapping"):
            table.insert(1, 1)

    def test_insert_batch_refused(self, rdb3):
        table = store.map_database(rdb3).table
        with pytest.raises(DatabaseError, match=str(rdb3)):
            table.insert_batch(np.array([1], dtype=np.uint64), 1)

    def test_reserve_refused(self, rdb3):
        table = store.map_database(rdb3).table
        with pytest.raises(DatabaseError, match="read-only"):
            table.reserve(10)

    def test_keys_and_items_materialize(self, rdb3, db3):
        table = store.map_database(rdb3).table
        keys = table.keys()
        assert keys.shape[0] == len(db3.table)
        got_keys, got_values = table.items()
        assert got_keys.shape == got_values.shape == keys.shape

    def test_contains(self, rdb3, db3):
        table = store.map_database(rdb3).table
        rep = int(db3.reps_by_size[2][0])
        assert rep in table
        assert 0xDEAD_BEEF_0000_0001 not in table


# ----------------------------------------------------------------------
# Corruption edges (every error names the path)
# ----------------------------------------------------------------------
class TestCorruption:
    def test_missing_file(self, tmp_path):
        ghost = tmp_path / "ghost.rdb"
        with pytest.raises(DatabaseError, match="ghost.rdb"):
            store.map_database(ghost)

    def test_truncated_header(self, tmp_path, rdb3):
        stub = tmp_path / "stub.rdb"
        stub.write_bytes(rdb3.read_bytes()[:100])
        with pytest.raises(DatabaseError, match=r"truncated.*100 bytes"):
            store.map_database(stub)

    def test_bad_magic(self, tmp_path, rdb3):
        raw = bytearray(rdb3.read_bytes())
        raw[:8] = b"notanrdb"
        bad = tmp_path / "bad-magic.rdb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="bad magic"):
            store.map_database(bad)
        with pytest.raises(DatabaseError, match="bad-magic.rdb"):
            store.map_database(bad)

    def test_version_skew(self, tmp_path, rdb3):
        raw = bytearray(rdb3.read_bytes())
        struct.pack_into("<I", raw, 8, store.RDB_VERSION + 1)
        skewed = tmp_path / "skewed.rdb"
        skewed.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="repro build-db --force"):
            store.map_database(skewed)

    def test_checksum_mismatch(self, tmp_path, rdb3):
        raw = bytearray(rdb3.read_bytes())
        raw[store.HEADER_SIZE + 5] ^= 0xFF
        rotted = tmp_path / "rotted.rdb"
        rotted.write_bytes(bytes(raw))
        # Mapping alone does not checksum (O(page-fault) cold start)...
        store.map_database(rotted)
        # ...but the full verify pass catches the flipped byte.
        with pytest.raises(DatabaseError, match="checksum"):
            store.verify_store(rotted)
        with pytest.raises(DatabaseError, match="rotted.rdb"):
            store.verify_store(rotted)

    def test_capacity_bits_length_disagreement(self, tmp_path, rdb3):
        header = store.read_header(rdb3)
        raw = bytearray(rdb3.read_bytes())
        struct.pack_into("<I", raw, 24, header.capacity_bits + 1)
        liar = tmp_path / "liar.rdb"
        liar.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="liar.rdb"):
            store.map_database(liar)

    def test_truncated_payload(self, tmp_path, rdb3):
        raw = rdb3.read_bytes()
        short = tmp_path / "short.rdb"
        short.write_bytes(raw[:-64])
        with pytest.raises(DatabaseError, match=r"short.rdb.*requires"):
            store.map_database(short)

    def test_capacity_bits_out_of_range(self, tmp_path, rdb3):
        raw = bytearray(rdb3.read_bytes())
        struct.pack_into("<I", raw, 24, 60)
        wild = tmp_path / "wild.rdb"
        wild.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="capacity_bits"):
            store.map_database(wild)

    def test_header_roundtrip(self, rdb3):
        header = store.read_header(rdb3)
        assert header.version == store.RDB_VERSION
        repacked = store.StoreHeader.unpack(header.pack(), rdb3)
        assert repacked == header

    def test_fixed_header_fits(self):
        assert _FIXED.size + 8 * (store.MAX_K + 1) <= store.HEADER_SIZE


# ----------------------------------------------------------------------
# Peel masks (format version 2)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rdb4(tmp_path_factory, db4_k4):
    """The n=4, k=4 session database persisted as an .rdb store."""
    path = tmp_path_factory.mktemp("store4") / "db-n4-k4.rdb"
    store.write_rdb(db4_k4, path)
    return path


def _rewrite_mask(source, target, size, index, change):
    """Copy ``source`` to ``target`` with the peel mask of representative
    ``index`` of ``size`` replaced by ``change(mask)``, and the header
    checksum recomputed so only the semantic check can object."""
    header = store.read_header(source)
    raw = bytearray(source.read_bytes())
    at = header.masks_offset + 8 * (sum(header.reps_counts[:size]) + index)
    (mask,) = struct.unpack_from("<Q", raw, at)
    struct.pack_into("<Q", raw, at, change(mask))
    target.write_bytes(bytes(raw))
    checksum = store.payload_checksum(target, header)
    raw[: store.HEADER_SIZE] = dataclasses.replace(header, checksum=checksum).pack()
    target.write_bytes(bytes(raw))
    return target


class TestPeelMaskExtent:
    def test_mapped_masks_match_in_ram(self, rdb3, db3):
        mapped = store.map_database(rdb3)
        for size in range(db3.k + 1):
            assert np.array_equal(
                np.asarray(mapped.peel_masks(size)), db3.peel_masks(size)
            ), size

    def test_verify_catches_a_flipped_mask_bit(self, tmp_path, rdb4, db4_k4):
        """Size 2 has 33 representatives, so the verified sample holds
        them all; an extra set bit leaves both halves non-empty."""
        mask = int(db4_k4.peel_masks(2)[7])
        spare = next(bit for bit in range(32) if not mask >> bit & 1)
        flipped = _rewrite_mask(
            rdb4, tmp_path / "flipped.rdb", 2, 7, lambda m: m ^ (1 << spare)
        )
        store.read_header(flipped)  # header and checksum still agree
        with pytest.raises(DatabaseError, match="flipped.rdb.*peel mask"):
            store.verify_store(flipped)

    def test_verify_catches_an_empty_half(self, tmp_path, rdb4):
        emptied = _rewrite_mask(
            rdb4, tmp_path / "emptied.rdb", 3, 0, lambda m: m & 0xFFFF_FFFF
        )
        with pytest.raises(DatabaseError, match="emptied.rdb.*no gate can start"):
            store.verify_store(emptied)

    def test_truncated_inside_mask_extent(self, tmp_path, rdb4):
        """A store cut inside the mask extent names the path."""
        cut = store.read_header(rdb4).masks_offset + 8 * 20
        short = tmp_path / "cut-masks.rdb"
        short.write_bytes(rdb4.read_bytes()[:cut])
        with pytest.raises(DatabaseError, match="cut-masks.rdb"):
            store.map_database(short)

    def test_version_1_store_fails_the_version_check(self, tmp_path, rdb4):
        """A store from before the mask extent is rebuilt, not misread."""
        raw = bytearray(rdb4.read_bytes())
        struct.pack_into("<I", raw, 8, 1)
        old = tmp_path / "v1.rdb"
        old.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="format version 1.*build-db --force"):
            store.map_database(old)


# ----------------------------------------------------------------------
# Describe and verify
# ----------------------------------------------------------------------
class TestRegistry:
    def test_verify_ok(self, rdb3, db3):
        info = store.verify_store(rdb3)
        assert info.entries == len(db3.table)
        assert info.k == db3.k

    def test_describe_reports_stats(self, rdb3, db3):
        info = store.describe(rdb3)
        assert info.size_bytes == rdb3.stat().st_size
        assert info.stats.count == len(db3.table)
        assert any("Load Factor" in row for row in info.format_rows())


# ----------------------------------------------------------------------
# Synthesizer integration: the cache store
# ----------------------------------------------------------------------
class TestSynthesizerIntegration:
    def test_prepare_writes_sidecar_then_maps(self, tmp_path):
        """The first prepare writes the cache store; the next one maps it."""
        from repro.synth.synthesizer import OptimalSynthesizer

        first = OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path)
        first.prepare()
        assert first.store_path == tmp_path / "db-n3-k3.rdb"
        assert first.store_path.exists(), "store not written after build"
        assert first.database.table.path is None

        second = OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path)
        second.prepare()
        assert second.database.table.path is not None, "store not mapped"
        assert second.database.table.path == first.store_path

    @pytest.mark.parametrize("damage", ["garbage", "version_skew"])
    def test_prepare_rewrites_corrupt_store(self, tmp_path, damage):
        from repro.synth.synthesizer import OptimalSynthesizer

        OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path).prepare()
        path = tmp_path / "db-n3-k3.rdb"
        if damage == "garbage":
            path.write_bytes(b"garbage")
        else:
            raw = bytearray(path.read_bytes())
            struct.pack_into("<I", raw, 8, store.RDB_VERSION + 1)
            path.write_bytes(bytes(raw))
        synth = OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path)
        synth.prepare()  # must not raise: rebuilds and rewrites the store
        assert synth.database.table.path is None
        assert synth.size("[1,0,3,2,5,4,7,6]") == 1
        assert store.verify_store(path).k == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db-n3-k3.rdb"]

        again = OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path)
        again.prepare()
        assert again.database.table.path == path

    def test_build_db_force_repairs_version_skew(self, tmp_path, monkeypatch):
        """The version-skew hint names a command that works."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["build-db", "--wires", "3", "-k", "3", "--lists", "1"]
        assert main(argv) == 0
        path = tmp_path / "db-n3-k3.rdb"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, store.RDB_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="repro build-db --force"):
            store.map_database(path)
        assert main([*argv, "--force"]) == 0
        assert store.map_database(path).k == 3

    def test_handle_carries_store_path(self, tmp_path):
        from repro.synth.synthesizer import OptimalSynthesizer

        synth = OptimalSynthesizer(n_wires=3, k=3, cache_dir=tmp_path)
        handle = synth.handle()
        assert handle.store_path == tmp_path / "db-n3-k3.rdb"
        assert handle.store_path.exists()


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_map_and_verify_emit_spans(self, rdb3):
        tracer = perf.enable()
        tracer.reset()
        try:
            store.map_database(rdb3)
            store.verify_store(rdb3)
        finally:
            perf.disable()
        aggregate = tracer.aggregate()
        assert "db.map" in aggregate
        assert "db.verify" in aggregate
