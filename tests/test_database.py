"""Tests for OptimalDatabase: lookups, persistence, peeling."""

import random
import struct
from itertools import permutations

import numpy as np
import pytest

from repro.core import equivalence, packed
from repro.core.gates import all_gates
from repro.core.packed_np import (
    GATHER_MAX_WORDS,
    as_words,
    canonical_np,
    compose_np,
    conjugation_signature_np,
    inverse_np,
    relabelings_np,
)
from repro.errors import DatabaseError
from repro.store import map_database, read_header, write_rdb
from repro.synth.database import OptimalDatabase
from repro.synth.search import MeetInTheMiddleSearch


def _pack_rows(images: np.ndarray) -> np.ndarray:
    """Packed words of the permutations given as rows of images."""
    shifts = np.arange(images.shape[1], dtype=np.uint64) * np.uint64(4)
    return np.bitwise_or.reduce(images.astype(np.uint64) << shifts, axis=1)


class TestLookups:
    def test_identity_size_zero(self, db4_k4):
        assert db4_k4.size_of(packed.identity(4)) == 0

    def test_gate_size_one(self, db4_k4):
        from repro.core.gates import gate_words

        for word in gate_words(4):
            assert db4_k4.size_of(word) == 1

    def test_size_lookup_entire_class(self, db4_k4, rng):
        """Every member of a class gets the class size."""
        for _ in range(10):
            reps = db4_k4.reps_by_size[3]
            word = int(reps[rng.randrange(len(reps))])
            for member in equivalence.equivalence_class(word, 4):
                assert db4_k4.size_of(member) == 3

    def test_missing_beyond_k(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > 4
        assert db4_k4.size_of(hwb4.word) is None
        assert hwb4.word not in db4_k4

    def test_sizes_batch(self, db4_k4):
        words = np.concatenate(
            [db4_k4.reps_by_size[2][:10], db4_k4.reps_by_size[4][:10]]
        )
        sizes = db4_k4.sizes_batch(words)
        assert sizes[:10].tolist() == [2] * 10
        assert sizes[10:].tolist() == [4] * 10

    def test_sizes_batch_canonicalizes_by_default(self, db4_k4, rng):
        word = int(db4_k4.reps_by_size[3][7])
        member = sorted(equivalence.equivalence_class(word, 4))[-1]
        sizes = db4_k4.sizes_batch(np.array([member], dtype=np.uint64))
        assert sizes.tolist() == [3]

    def test_sizes_batch_missing_is_255(self, db4_k4):
        """Canonical words of absent classes come back as MISSING = 255."""
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > k = 4
        canon = equivalence.canonical(hwb4.word, 4)
        present = int(db4_k4.reps_by_size[2][0])
        sizes = db4_k4.sizes_batch(np.array([canon, present], dtype=np.uint64))
        assert db4_k4.MISSING == 255
        assert sizes.tolist() == [255, 2]
        assert sizes.dtype == np.uint8

    def test_canonical_key_matches_equivalence(self, db4_k4, rng):
        reps = db4_k4.reps_by_size[3]
        word = int(reps[rng.randrange(len(reps))])
        for member in equivalence.equivalence_class(word, 4):
            assert db4_k4.canonical_key(member) == word

    def test_scalar_lookups_agree_with_equivalence_canonical(
        self, db3, db4_k4
    ):
        """size_of and canonical_key take the one-word gather kernel;
        equivalence.canonical stays the reference."""
        rng = random.Random(20)
        words3 = [
            w for reps in db3.reps_by_size for w in np.asarray(reps).tolist()
        ]
        words3 += [
            rng.choice(sorted(equivalence.equivalence_class(w, 3)))
            for w in words3[::7]
        ]
        words4 = [packed.pack(rng.sample(range(16), 16)) for _ in range(500)]
        for db, words in ((db3, words3), (db4_k4, words4)):
            for word in words:
                canon = equivalence.canonical(word, db.n_wires)
                assert db.canonical_key(word) == canon, hex(word)
                assert db.size_of(word) == db.table.get(canon), hex(word)

    @pytest.mark.parametrize("mapped", [False, True], ids=["in_ram", "mapped"])
    def test_sizes_batch_equals_unfiltered_probe(
        self, db3, db4_k4, engine4_l7, mapped, tmp_path
    ):
        """sizes_batch canonicalizes and probes only the words its miss
        filter admits; the answer equals probing every canonical word:
        on all stored keys, on seeded misses shaped like an A_i scan, and
        on a batch small enough to skip the filter."""
        rng = np.random.default_rng(2000)
        random_words = _pack_rows(np.argsort(rng.random((2_000, 16)), axis=1))
        far: "dict[int, list[int]]" = {6: [], 7: []}
        gates = np.array([g.to_word(4) for g in all_gates(4)], dtype=np.uint64)
        while min(len(words) for words in far.values()) < 3:
            word = packed.identity(4)
            for gate in rng.choice(gates, 7).tolist():
                word = packed.compose(word, gate, 4)
            size = engine4_l7.size_of(word)
            if size in far and len(far[size]) < 3:
                far[size].append(word)
        scans = [
            compose_np(engine4_l7.lists[i], np.uint64(word), 4)
            for words in far.values()
            for word in words
            for i in (0, 1)
        ]
        mixed = np.concatenate([random_words, *scans])
        small = np.concatenate([
            rng.choice(db4_k4.table.keys(), 40),
            rng.choice(mixed, GATHER_MAX_WORDS - 40),
        ])
        cases = [
            (db3, db3.table.keys()),
            (db4_k4, db4_k4.table.keys()),
            (db4_k4, small),
            (db4_k4, mixed),
        ]
        for db, words in cases:
            if mapped:
                db = map_database(
                    write_rdb(db, tmp_path / f"db-n{db.n_wires}-k{db.k}.rdb")
                )
            expected = db.table.lookup_batch(canonical_np(words, db.n_wires))
            assert np.array_equal(db.sizes_batch(words), expected)
            hits = expected != db.MISSING
            if words is small:
                assert 40 <= hits.sum() < hits.size
        assert 0 < hits.sum() < hits.size // 2

    def test_sizes_batch_sees_keys_inserted_after_first_use(self, db4_k4):
        """The BFS fills the table in place: a key inserted after the
        filter was built, whose signature that filter rejected, is found
        by the next batch that tests the filter."""
        db = OptimalDatabase.from_reps(4, 2, db4_k4.reps_by_size[:3])
        candidates = db4_k4.reps_by_size[3]
        assert candidates.shape[0] > GATHER_MAX_WORDS
        assert set(db.sizes_batch(candidates).tolist()) == {db.MISSING}
        signatures = conjugation_signature_np(candidates, 4)
        rejected = int(np.flatnonzero(~db.miss_filter().admits(signatures))[0])
        db.table.insert(int(candidates[rejected]), 3)
        sizes = db.sizes_batch(candidates)
        assert sizes[rejected] == 3
        assert np.count_nonzero(sizes != db.MISSING) == 1

    def test_miss_filter_rejects_most_absent_words(self, db4_k5):
        """About 10% of the k = 5 filter's bits are set and a word needs
        two, so ~1% of absent words pass it (a filter that admits
        everything would still be exact)."""
        rng = np.random.default_rng(5000)
        words = _pack_rows(np.argsort(rng.random((5_000, 16)), axis=1))
        assert not db4_k5.table.contains_batch(canonical_np(words, 4)).any()
        signatures = conjugation_signature_np(words, 4)
        assert db4_k5.miss_filter().admits(signatures).mean() <= 0.03

    def test_miss_filter_rejects_most_of_an_a3_pass(self, db4_k5):
        """Shaped like a scan: the A_3 pass of three size-8 words at
        k = 5, which holds the hits of the split."""
        lists = MeetInTheMiddleSearch.build_lists(db4_k5, 3)
        engine = MeetInTheMiddleSearch(db4_k5, lists)
        gates = [gate.to_word(4) for gate in all_gates(4)]
        rng = random.Random(8)
        words: "list[int]" = []
        while len(words) < 3:
            word = packed.identity(4)
            for gate in rng.choices(gates, k=8):
                word = packed.compose(word, gate, 4)
            if engine.size_of(word) == 8:
                words.append(word)
        batch = np.concatenate(
            [compose_np(lists[2], np.uint64(word), 4) for word in words]
        )
        admitted = db4_k5.miss_filter().admits(conjugation_signature_np(batch, 4))
        present = db4_k5.table.contains_batch(canonical_np(batch, 4))
        assert present.any() and admitted[present].all()
        assert admitted.mean() <= 0.03

    def test_lookup_with_keys(self, db4_k4):
        word = int(db4_k4.reps_by_size[3][1])
        members = sorted(equivalence.equivalence_class(word, 4))
        keys, sizes = db4_k4.lookup_with_keys(
            np.array(members, dtype=np.uint64)
        )
        assert set(keys.tolist()) == {word}
        assert set(sizes.tolist()) == {3}


class TestMissFilterExactness:
    """The miss filter never hides a stored class, checked word by word
    rather than by the relabeling argument."""

    def test_admits_every_function_of_n3(self, db3):
        """The complete n = 3 database stores every class: the filter
        admits all 8! functions, and large batches answer like the
        unfiltered probe."""
        words = as_words([packed.pack(list(p)) for p in permutations(range(8))])
        assert words.shape == (40_320,)
        signatures = conjugation_signature_np(words, 3)
        assert db3.miss_filter().admits(signatures).all()
        expected = db3.table.lookup_batch(canonical_np(words, 3))
        assert db3.MISSING not in expected
        batch = 3 * GATHER_MAX_WORDS + 1
        sizes = np.concatenate([
            db3.sizes_batch(words[start : start + batch])
            for start in range(0, words.shape[0], batch)
        ])
        assert np.array_equal(sizes, expected)

    def test_admits_every_relabeling_of_each_rep_and_its_inverse(self, db4_k4):
        """n = 4, k = 4: the signature is constant across the relabelings
        of each stored representative r and across those of r⁻¹, and the
        filter admits all of them and seeded members of stored classes."""
        reps = np.concatenate([np.asarray(r) for r in db4_k4.reps_by_size])
        miss_filter = db4_k4.miss_filter()
        for source in (reps, inverse_np(reps, 4)):
            for start in range(0, source.shape[0], 2_000):
                rows = relabelings_np(source[start : start + 2_000], 4)
                signatures = conjugation_signature_np(rows.ravel(), 4)
                signatures = signatures.reshape(rows.shape)
                assert (signatures == signatures[:, :1]).all()
                assert miss_filter.admits(signatures.ravel()).all()
        rng = random.Random(24)
        members = []
        for _ in range(300):
            rep = int(reps[rng.randrange(reps.shape[0])])
            members.append(
                rng.choice(sorted(equivalence.equivalence_class(rep, 4)))
            )
        signatures = conjugation_signature_np(as_words(members), 4)
        assert miss_filter.admits(signatures).all()


class TestPersistence:
    """The database round-trips through its ``.rdb`` store."""

    def test_save_load_roundtrip(self, db4_k4, tmp_path):
        loaded = map_database(write_rdb(db4_k4, tmp_path / "db.rdb"))
        assert loaded.n_wires == 4 and loaded.k == 4
        assert loaded.reduced_counts() == db4_k4.reduced_counts()
        for a, b in zip(loaded.reps_by_size, db4_k4.reps_by_size):
            assert np.array_equal(a, b)
        assert loaded.size_of(packed.identity(4)) == 0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DatabaseError, match="nope.rdb"):
            map_database(tmp_path / "nope.rdb")

    def test_save_creates_directories(self, db4_k4, tmp_path):
        path = tmp_path / "deep" / "nested" / "db.rdb"
        write_rdb(db4_k4, path)
        assert path.exists()

    def test_load_malformed_meta(self, db4_k4, tmp_path):
        path = write_rdb(db4_k4, tmp_path / "bad_meta.rdb")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 12, 512)  # header_size
        path.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="header_size 512"):
            map_database(path)

    def test_load_invalid_meta_values(self, db4_k4, tmp_path):
        path = write_rdb(db4_k4, tmp_path / "bad_values.rdb")
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 16, 9)  # n_wires
        path.write_bytes(bytes(raw))
        with pytest.raises(DatabaseError, match="invalid n_wires=9"):
            map_database(path)

    def test_load_truncated_reps(self, db4_k4, tmp_path):
        """A store cut where reps_2 starts names the path."""
        path = write_rdb(db4_k4, tmp_path / "truncated.rdb")
        cut = read_header(path).reps_offsets()[2]
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DatabaseError, match="truncated.rdb"):
            map_database(path)

    def test_from_reps_empty_rejected(self):
        with pytest.raises(DatabaseError, match="empty"):
            OptimalDatabase.from_reps(4, 0, [])
        with pytest.raises(DatabaseError, match="empty"):
            OptimalDatabase.from_reps(
                4, 1, [np.array([], dtype=np.uint64)] * 2
            )


class TestPeelMasks:
    """The stored-mask peel against the in-RAM masks and the scalar
    reference, and the mask definition itself."""

    @staticmethod
    def _members(db, size, count, seed):
        rng = random.Random(seed)
        reps = db.reps_by_size[size]
        for _ in range(count):
            rep = int(reps[rng.randrange(len(reps))])
            members = sorted(equivalence.equivalence_class(rep, db.n_wires))
            yield members[rng.randrange(len(members))]

    def test_mapped_peel_matches_in_ram_and_scalar(
        self, db4_k4, db4_k5, tmp_path
    ):
        """Every rep of k = 4; 200 class members per size of k = 5."""
        every_rep = {
            s: np.asarray(db4_k4.reps_by_size[s]).tolist() for s in range(1, 5)
        }
        members = {s: list(self._members(db4_k5, s, 200, s)) for s in range(1, 6)}
        for db, words_by_size in ((db4_k4, every_rep), (db4_k5, members)):
            mapped = map_database(write_rdb(db, tmp_path / f"db-k{db.k}.rdb"))
            for size, words in words_by_size.items():
                for word in words:
                    peeled = mapped.peel_last_gate(word, size)
                    case = (size, hex(word))
                    assert peeled == db.peel_last_gate(word, size), case
                    assert peeled == scalar_peel_last_gate(db, word, size), case

    def test_complete_n3_database_peels_like_scalar(self, db3):
        """n = 3: 6 relabelings, 12 gates, every class."""
        for size in range(1, db3.k + 1):
            for word in np.asarray(db3.reps_by_size[size]).tolist():
                assert db3.peel_last_gate(word, size) == (
                    scalar_peel_last_gate(db3, word, size)
                ), (size, hex(word))

    def test_mask_bits_are_the_peelable_gates(self, db4_k5):
        words = [g.to_word(4) for g in all_gates(4)]
        rng = np.random.default_rng(5)
        for size in range(1, db4_k5.k + 1):
            reps = np.asarray(db4_k5.reps_by_size[size])
            masks = db4_k5.peel_masks(size)
            for at in rng.choice(len(reps), min(30, len(reps)), replace=False):
                rep, mask = int(reps[at]), int(masks[at])
                for g, gate in enumerate(words):
                    ends = db4_k5.size_of(packed.compose(rep, gate, 4))
                    starts = db4_k5.size_of(packed.compose(gate, rep, 4))
                    case = (size, hex(rep), g)
                    assert bool(mask >> g & 1) == (ends == size - 1), case
                    assert bool(mask >> (32 + g) & 1) == (starts == size - 1), case

    def test_size_zero_masks_are_zero(self, db4_k4):
        assert db4_k4.peel_masks(0).tolist() == [0]

    def test_wrong_size_raises_naming_the_word(self, db4_k4):
        """The contract: ``size`` is the word's optimal size."""
        word = int(db4_k4.reps_by_size[3][5])
        member = sorted(equivalence.equivalence_class(word, 4))[-1]
        for claimed in (2, 4):
            for w in (word, member):
                with pytest.raises(DatabaseError, match=f"{w:#x}"):
                    db4_k4.peel_last_gate(w, claimed)
        with pytest.raises(DatabaseError, match=f"{word:#x}"):
            db4_k4.peel_last_gate(word, db4_k4.k + 1)


def scalar_peel_last_gate(db, word, size):
    """The gate-by-gate peel, one scalar canonicalization per try: the
    reference the batched :meth:`OptimalDatabase.peel_last_gate` must
    match gate for gate."""
    for gate in all_gates(db.n_wires):
        rest = packed.compose(word, gate.to_word(db.n_wires), db.n_wires)
        if db.size_of(rest) == size - 1:
            return gate, rest
    raise DatabaseError(f"no peelable gate for {word:#x} at size {size}")


class TestPeeling:
    def test_peel_matches_scalar_reference_on_every_rep(self, db4_k4):
        for size in (1, 2, 3, 4):
            for word in db4_k4.reps_by_size[size].tolist():
                assert db4_k4.peel_last_gate(word, size) == (
                    scalar_peel_last_gate(db4_k4, word, size)
                ), (size, hex(word))

    def test_peel_matches_scalar_reference_on_class_members(self, db4_k4, rng):
        for size in (1, 2, 3, 4):
            reps = db4_k4.reps_by_size[size]
            for _ in range(40):
                rep = int(reps[rng.randrange(len(reps))])
                members = sorted(equivalence.equivalence_class(rep, 4))
                word = members[rng.randrange(len(members))]
                assert db4_k4.peel_last_gate(word, size) == (
                    scalar_peel_last_gate(db4_k4, word, size)
                ), (size, hex(word))

    def test_peel_at_size_zero_names_the_word(self, db4_k4):
        identity = packed.identity(4)
        with pytest.raises(DatabaseError, match=f"{identity:#x}"):
            db4_k4.peel_last_gate(identity, 0)

    def test_peel_last_gate_reduces_size(self, db4_k4, rng):
        for size in (2, 3, 4):
            reps = db4_k4.reps_by_size[size]
            for _ in range(5):
                word = int(reps[rng.randrange(len(reps))])
                gate, rest = db4_k4.peel_last_gate(word, size)
                assert db4_k4.size_of(rest) == size - 1
                # Appending the gate back reproduces the function.
                assert packed.compose(rest, gate.to_word(4), 4) == word

    def test_peel_inconsistent_raises(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        word = get_benchmark("hwb4").permutation().word
        with pytest.raises(DatabaseError):
            db4_k4.peel_last_gate(word, 1)

    def test_peel_inconsistent_message_names_word(self, db4_k4):
        """The inconsistency error identifies the offending word and size."""
        from repro.benchmarks_data import get_benchmark

        word = get_benchmark("hwb4").permutation().word
        with pytest.raises(DatabaseError, match="inconsistent") as excinfo:
            db4_k4.peel_last_gate(word, 1)
        assert f"{word:#x}" in str(excinfo.value)

    def test_peel_wrong_claimed_size_raises(self, db4_k4):
        """Claiming size s for a word whose true size is not s cannot find
        a peel that lands on size s - 1 ... unless a neighbor happens to
        have that size; use size 1 against identity (size 0) which would
        need a size-0 neighbor == identity itself."""
        from repro.core import packed

        identity = packed.identity(4)
        # identity has size 0; peeling at claimed size 0 loops zero times in
        # callers, but a direct call with size=-1 finds nothing of size -2.
        with pytest.raises(DatabaseError):
            db4_k4.peel_last_gate(identity, -1)
