"""Open-addressing linear-probing hash table for packed permutations.

The paper stores canonical representatives in "a linear probing hash
table with Thomas Wang's hash function" and reports its parameters in
Table 2 (size, memory usage, load factor, average and maximal chain
length).  This module implements that exact structure on numpy arrays:
a power-of-two slot array of ``uint64`` keys plus a parallel array of
small integer values (circuit sizes in the synthesis database).  The
same class serves a table built in RAM and the read-only slot arrays
mapped from an ``.rdb`` store (:mod:`repro.store`), so both probe
through one implementation.

The all-ones word is used as the empty-slot sentinel; it can never encode
a valid permutation (its nibbles repeat), so no key escaping is needed.

:class:`MissFilter` is a two-probe Bloom filter of 64-bit signatures:
the database fills it with a relabeling-invariant signature of every
stored class, and a lookup that tests it first canonicalizes and probes
only the words it admits.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

from repro.errors import DatabaseError
from repro.hashing.wang import hash64shift, hash64shift_np

EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

U64Array = npt.NDArray[np.uint64]
U8Array = npt.NDArray[np.uint8]


#: Slots one probing round of :func:`probe_lookup_batch` may read.  Each
#: pending key gets a window of ``_ROUND_SLOTS // pending`` consecutive
#: slots, at least 1 and at most :data:`_MAX_WINDOW`, so the window
#: widens as keys settle and no round allocates more than this many
#: slots.  At the database's load factor (0.83) a hit takes ~3.4 probes
#: and a miss ~18 on average: a peel's 32 keys read 64 slots each and
#: settle in one or two rounds, an A_2 scan's 784 keys start at 10, and
#: large batches (A_3 scans, the BFS) start at one slot.  Measured on a
#: 2-vCPU x86 VM against a k = 5 store (interleaved medians), against
#: one slot per round: 1 key 27 us against 118, 32 keys 47 us against
#: 533, 784 keys 0.26 ms against 1.46, 16,204 keys 3.9 ms against 4.7
#: (peak temporaries 0.7 MiB for both), 65,536 keys 14.0 ms against
#: 15.3, and 65,536 keys at load 0.125 (the ``table.lookup_batch``
#: bench op) 2.52 ms against 2.59.  Rounds of 2^12 and 2^14 slots came
#: within ~15% of this; 2^15 was 15-45% slower from 784 keys up.  Most
#: of a scan's misses now stop at the :class:`MissFilter` before they are
#: canonicalized: an A_3 pass of 16,204 words sends the probe ~200 keys,
#: and batches of up to 128 words (the A_1 pass, compile pass 1) skip the
#: filter and probe every canonical word.
_ROUND_SLOTS = 1 << 13
_MAX_WINDOW = 64
_WINDOW_OFFSETS = np.arange(_MAX_WINDOW, dtype=np.uint64)


def probe_lookup_batch(
    table_keys: U64Array,
    table_values: U8Array,
    keys: npt.ArrayLike,
    missing_value: int,
) -> U8Array:
    """Vectorized linear-probe lookup over raw slot arrays (Wang-hashed
    home slot, +1 wraparound probing, all-ones empty sentinel).

    Each round reads a window of consecutive slots per pending key (see
    :data:`_ROUND_SLOTS`) and settles every key whose window holds its
    key or an empty slot, at the first such slot in probe order -- the
    slot :func:`probe_get` stops at.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    result = np.full(keys.shape[0], missing_value, dtype=np.uint8)
    if keys.shape[0] == 0:
        return result
    mask = np.uint64(table_keys.shape[0] - 1)
    start = hash64shift_np(keys) & mask
    pending = np.arange(keys.shape[0])
    wanted = keys
    while True:
        count = pending.shape[0]
        width = min(_MAX_WINDOW, max(1, _ROUND_SLOTS // count))
        # One-slot rounds (large batches) stay 1-D, so they cost no more
        # than a one-slot-per-round loop.
        if width == 1:
            slots = start
            slot_keys = table_keys[slots]
            match = slot_keys == wanted
        else:
            slots = start[:, None] + _WINDOW_OFFSETS[:width]
            slots &= mask
            slot_keys = table_keys[slots]
            match = slot_keys == wanted[:, None]
        stops = match | (slot_keys == EMPTY)
        if width > 1:
            # Keep each key's first stopping slot, or its window's first
            # slot when none stops.
            first = stops.argmax(axis=1) + np.arange(0, count * width, width)
            slots, match, stops = (a.ravel()[first] for a in (slots, match, stops))
        result[pending[match]] = table_values[slots[match]]
        going = ~stops
        if not going.any():
            return result
        pending = pending[going]
        wanted = wanted[going]
        start = (slots[going] + np.uint64(width)) & mask


def probe_get(
    table_keys: U64Array,
    table_values: U8Array,
    key: int,
    default: "int | None" = None,
) -> "int | None":
    """Scalar linear-probe lookup over raw slot arrays: the slot
    :func:`probe_lookup_batch` settles each key at."""
    mask = table_keys.shape[0] - 1
    pos = hash64shift(int(key)) & mask
    key_u = np.uint64(key)
    while True:
        slot_key = table_keys[pos]
        if slot_key == EMPTY:
            return default
        if slot_key == key_u:
            return int(table_values[pos])
        pos = (pos + 1) & mask


#: Filter bits per stored key, before the bitset is rounded up to a power
#: of two.  The database adds two signatures per key (the key's and its
#: inverse's), each setting two bits, so at 32 bits per key ~10% of the
#: bits are set and ~1.2% of an A_3 pass's absent words pass.  At 8 bits
#: per key a third of the bits were set and ~12% passed.
_FILTER_BITS_PER_KEY = 32
_SIX = np.uint64(6)
_BIT_INDEX = np.uint64(63)
_ONE = np.uint64(1)


@dataclass(frozen=True)
class MissFilter:
    """Two-probe Bloom filter over 64-bit signatures.

    A signature ``s`` selects word ``s >> shift`` of the ``bitset`` and,
    in that word, bits ``s & 63`` and ``(s >> 6) & 63``: both probes land
    in one word, so a test or an insert reads one.  A signature whose
    bits are not both set was never added; a set pair says nothing.
    ``count`` is the stored-key count the filter was built for.
    """

    bitset: U64Array
    shift: np.uint64
    count: int

    @classmethod
    def build(
        cls, signatures: "Iterable[npt.ArrayLike]", count: int
    ) -> "MissFilter":
        """The filter holding every signature in the ``signatures`` chunks.

        ``count`` sizes the bitset at :data:`_FILTER_BITS_PER_KEY` bits
        per key, rounded up to a power of two.  Each chunk is inserted by
        fancy-indexed OR; where a word index repeats within a chunk one
        write wins, so the signatures whose bits did not stick are
        inserted again until none is left.
        """
        word_bits = max(1, (_FILTER_BITS_PER_KEY * count - 1).bit_length() - 6)
        built = cls(
            bitset=np.zeros(1 << word_bits, dtype=np.uint64),
            shift=np.uint64(64 - word_bits),
            count=count,
        )
        bitset = built.bitset
        for chunk in signatures:
            words, bits = built._probes(chunk)
            while words.size:
                bitset[words] |= bits
                lost = (bitset[words] & bits) != bits
                words, bits = words[lost], bits[lost]
        return built

    def _probes(self, signatures: npt.ArrayLike) -> "tuple[U64Array, U64Array]":
        signatures = np.asarray(signatures, dtype=np.uint64)
        bits = _ONE << (signatures & _BIT_INDEX)
        bits |= _ONE << ((signatures >> _SIX) & _BIT_INDEX)
        return signatures >> self.shift, bits

    def admits(self, signatures: npt.ArrayLike) -> npt.NDArray[np.bool_]:
        """False for each signature the filter never held, True otherwise."""
        words, bits = self._probes(signatures)
        return (self.bitset[words] & bits) == bits


def stats_from_slots(table_keys: U64Array) -> "TableStats":
    """Table 2-style occupancy statistics from a raw slot-key array,
    counting memory as 8 key bytes and 1 value byte per slot."""
    capacity = int(table_keys.shape[0])
    occupied = table_keys != EMPTY
    count = int(occupied.sum())
    memory = capacity * 9
    if count == 0:
        return TableStats(capacity, 0, 0.0, memory, 0.0, 0, 0.0, 0)
    mask = np.uint64(capacity - 1)
    slots = np.nonzero(occupied)[0].astype(np.uint64)
    homes = hash64shift_np(np.asarray(table_keys[occupied])) & mask
    probe = ((slots - homes) & mask).astype(np.int64) + 1
    # Cluster lengths: runs of consecutive occupied slots (cyclically).
    lengths = _run_lengths_cyclic(occupied)
    return TableStats(
        capacity=capacity,
        count=count,
        load_factor=count / capacity,
        memory_bytes=memory,
        average_probe_length=float(probe.mean()),
        maximal_probe_length=int(probe.max()),
        average_cluster_length=float(lengths.mean()) if lengths.size else 0.0,
        maximal_cluster_length=int(lengths.max()) if lengths.size else 0,
    )


@dataclass(frozen=True)
class TableStats:
    """Occupancy statistics in the format of the paper's Table 2."""

    capacity: int
    count: int
    load_factor: float
    memory_bytes: int
    average_probe_length: float
    maximal_probe_length: int
    average_cluster_length: float
    maximal_cluster_length: int

    def format_rows(self) -> list[str]:
        """Rows matching Table 2's row labels."""
        return [
            f"Size                  {self.capacity}",
            f"Memory Usage          {self.memory_bytes / (1 << 20):.1f} MB",
            f"Load Factor           {self.load_factor:.2f}",
            f"Average Chain Length  {self.average_cluster_length:.2f}",
            f"Maximal Chain Length  {self.maximal_cluster_length}",
        ]


class LinearProbingTable:
    """Linear-probing map ``uint64 -> uint8`` over two slot arrays.

    The constructor builds a table in RAM that doubles whenever an insert
    would take its occupancy past ``max_load_factor``.
    :meth:`over_store` wraps the read-only slot arrays mapped from an
    ``.rdb`` store instead: lookups probe them as they probe a table in
    RAM, and :meth:`insert`, :meth:`insert_batch` and :meth:`reserve`
    refuse with a :class:`DatabaseError` naming the store.

    Args:
        capacity_bits: log2 of the initial slot count.
        max_load_factor: the table doubles when occupancy would exceed this.

    Attributes:
        path: The store whose mapped slots the table reads; None for a
            table in RAM.
    """

    #: What lookups return for an absent key; never a stored value.
    missing_value = 255

    def __init__(
        self,
        capacity_bits: int = 16,
        max_load_factor: float = 0.85,
    ) -> None:
        if not 4 <= capacity_bits <= 34:
            raise DatabaseError(f"capacity_bits out of range: {capacity_bits}")
        self._keys = np.full(1 << capacity_bits, EMPTY, dtype=np.uint64)
        self._values = np.zeros(1 << capacity_bits, dtype=np.uint8)
        self._count = 0
        self.max_load_factor = max_load_factor
        self.path: "Path | None" = None

    @classmethod
    def over_store(
        cls, path: Path, keys: U64Array, values: U8Array, count: int
    ) -> "LinearProbingTable":
        """The read-only table over the slot arrays mapped from the store
        at ``path``, which holds ``count`` keys."""
        table = cls(capacity_bits=4)
        # Plain views: indexing a np.memmap builds memmap objects.
        table._keys = np.asarray(keys)
        table._values = np.asarray(values)
        table._count = count
        table.path = path
        return table

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Current number of slots."""
        return self._keys.shape[0]

    @property
    def capacity_bits(self) -> int:
        """log2 of the slot count (the on-disk store records this)."""
        return self.capacity.bit_length() - 1

    def __len__(self) -> int:
        return self._count

    @property
    def load_factor(self) -> float:
        """Fraction of occupied slots."""
        return self._count / self.capacity

    def _check_writable(self) -> None:
        if not self._keys.flags.writeable:
            raise DatabaseError(
                f"database store {self.path} is a read-only mapping; "
                "rebuild the store to change it"
            )

    def _grow(self, target_bits: "int | None" = None) -> None:
        old_keys, old_values = self._keys, self._values
        bits = target_bits or self.capacity_bits + 1
        self._keys = np.full(1 << bits, EMPTY, dtype=np.uint64)
        self._values = np.zeros(1 << bits, dtype=np.uint8)
        self._count = 0
        occupied = old_keys != EMPTY
        self.insert_batch(old_keys[occupied], old_values[occupied])

    def reserve(self, expected_count: int) -> None:
        """Grow (in one jump) until ``expected_count`` fits under the
        load-factor cap."""
        self._check_writable()
        target_bits = self.capacity_bits
        while expected_count > self.max_load_factor * (1 << target_bits):
            target_bits += 1
        if target_bits > self.capacity_bits:
            self._grow(target_bits)

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> bool:
        """Insert one entry; returns False when the key was already present
        (the stored value is left unchanged)."""
        self._check_writable()
        if self._count + 1 > self.max_load_factor * self.capacity:
            self._grow()
        mask = self.capacity - 1
        pos = hash64shift(int(key)) & mask
        key_u = np.uint64(key)
        keys = self._keys
        while True:
            slot_key = keys[pos]
            if slot_key == EMPTY:
                keys[pos] = key_u
                self._values[pos] = value
                self._count += 1
                return True
            if slot_key == key_u:
                return False
            pos = (pos + 1) & mask

    def get(self, key: int, default: "int | None" = None) -> "int | None":
        """Value stored for ``key``, or ``default`` when absent."""
        return probe_get(self._keys, self._values, key, default)

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------
    def insert_batch(self, keys: npt.ArrayLike, values: npt.ArrayLike) -> int:
        """Insert many entries; returns the number actually added.

        Duplicate keys (within the batch or vs. the table) keep their
        first-seen value, mirroring the scalar :meth:`insert` semantics.
        Every batch that would add a key passes :meth:`reserve` first.
        Large batches take a fully vectorized path: each probing round
        lets every pending key inspect its slot, claims empty slots
        (np.unique breaks same-slot races deterministically in favour of
        the earliest batch element), and advances the rest by one.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.broadcast_to(
            np.asarray(values, dtype=np.uint8), keys.shape
        )
        if keys.shape[0] == 0:
            return 0
        if keys.shape[0] < 256:
            self.reserve(self._count + keys.shape[0])
            added = 0
            for key, value in zip(keys.tolist(), values.tolist()):
                if self.insert(key, value):
                    added += 1
            return added
        # Deduplicate within the batch, keeping the first occurrence.
        unique_keys, first_index = np.unique(keys, return_index=True)
        order = np.argsort(first_index)
        unique_keys = unique_keys[order]
        unique_values = values[first_index[order]]
        # Drop keys already present.
        fresh = ~self.contains_batch(unique_keys)
        unique_keys = unique_keys[fresh]
        unique_values = unique_values[fresh]
        if unique_keys.shape[0] == 0:
            return 0
        self.reserve(self._count + unique_keys.shape[0])
        mask = np.uint64(self.capacity - 1)
        table_keys = self._keys
        table_values = self._values
        pos = hash64shift_np(unique_keys) & mask
        pending = np.arange(unique_keys.shape[0])
        while pending.size:
            slots = pos[pending]
            empty = table_keys[slots] == EMPTY
            claimants = pending[empty]
            if claimants.size:
                claim_slots = slots[empty]
                # One winner per contested slot: the earliest batch element
                # (pending is in batch order, np.unique keeps the first).
                _, winner_rows = np.unique(claim_slots, return_index=True)
                winners = claimants[winner_rows]
                table_keys[pos[winners]] = unique_keys[winners]
                table_values[pos[winners]] = unique_values[winners]
                self._count += winners.shape[0]
                is_winner = np.zeros(unique_keys.shape[0], dtype=bool)
                is_winner[winners] = True
                pending = pending[~is_winner[pending]]
            pos[pending] = (pos[pending] + np.uint64(1)) & mask
        return int(unique_keys.shape[0])

    def lookup_batch(self, keys: npt.ArrayLike) -> U8Array:
        """Vectorized lookup; absent keys map to ``missing_value``."""
        return probe_lookup_batch(
            self._keys, self._values, keys, self.missing_value
        )

    def contains_batch(self, keys: npt.ArrayLike) -> npt.NDArray[np.bool_]:
        """Boolean membership mask for many keys at once."""
        return self.lookup_batch(keys) != self.missing_value

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def keys(self) -> U64Array:
        """Array of all stored keys (unordered)."""
        return self._keys[self._keys != EMPTY].copy()

    def items(self) -> tuple[U64Array, U8Array]:
        """Arrays of stored (keys, values), aligned."""
        occupied = self._keys != EMPTY
        return self._keys[occupied].copy(), self._values[occupied].copy()

    def stats(self) -> TableStats:
        """Occupancy statistics (Table 2 of the paper)."""
        return stats_from_slots(self._keys)

    def slot_arrays(self) -> tuple[U64Array, U8Array]:
        """The raw (keys, values) slot arrays, including empty slots.

        This is the exact probing layout; :mod:`repro.store` serializes
        it verbatim so a table over the mapped store probes identically.
        The returned arrays are live views -- callers must not mutate
        them.
        """
        return self._keys, self._values


def _run_lengths_cyclic(occupied: npt.NDArray[np.bool_]) -> npt.NDArray[np.int64]:
    """Lengths of maximal runs of True values in a cyclic boolean array."""
    if occupied.all():
        return np.array([occupied.shape[0]], dtype=np.int64)
    if not occupied.any():
        return np.array([], dtype=np.int64)
    # Rotate so the array starts at an empty slot; runs are then acyclic.
    first_empty = int(np.argmin(occupied))  # argmin finds the first False
    rolled = np.roll(occupied, -first_empty)
    changes = np.flatnonzero(np.diff(rolled.astype(np.int8)))
    starts = changes[::2] + 1
    ends = changes[1::2] + 1
    if rolled[-1]:
        ends = np.append(ends, rolled.shape[0])
    return (ends - starts).astype(np.int64)
