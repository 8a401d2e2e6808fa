"""The optimal-circuit database: canonical representatives, sizes and
peel masks.

This is the central data structure of the paper: a hash table mapping the
canonical representative of every equivalence class of size <= k to its
optimal circuit size.  The paper stores one reconstruction gate per
representative (§3.3); we store a 64-bit *peel mask* per representative
r of size s >= 1, which names every such gate: bit g (0-31) is set when
``compose(r, g)`` has size s - 1, so library gate g can end a minimal
circuit for r, and bit 32 + g when ``compose(g, r)`` does, so g can
start one.  Each of the s output gates of a size-s circuit costs one
step: canonicalize the word with :func:`canonical_variant`, which also
reports the relabeling and inversion that won, find r by binary search
in ``reps_by_size[s]``, map the set bits of the matching half into the
word's frame and strip the gate with the lowest library index.  That is
the first gate in :func:`all_gates` order whose rest has size s - 1, the
gate a gate-by-gate scan stops at, so circuits do not depend on the
masks.  The scalar reference engine in :mod:`repro.synth.bfs` stores
witnesses exactly as the paper does, and the tests cross-check the two.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.core import packed
from repro.core.gates import Gate, all_gates, gate_words
from repro.core.packed_np import (
    GATHER_MAX_WORDS,
    canonical_np,
    canonical_variant,
    class_sizes_np,
    compose_np,
    conjugation_signature_np,
    expand_classes_np,
    inverse_np,
    relabelings_np,
)
from repro.errors import DatabaseError
from repro.hashing.table import EMPTY, LinearProbingTable, MissFilter


@dataclass(frozen=True)
class _Library:
    """The gate library of one wire count, in :func:`all_gates` order.

    ``from_frame[s][j]`` is the index of the gate that relabeling ``s``
    (a column of :func:`relabelings_np`) carries onto gate ``j``: a mask
    bit ``j`` of a representative reached from a word by relabeling
    ``s`` names gate ``from_frame[s][j]`` of the word.
    """

    gates: "tuple[Gate, ...]"
    words: "tuple[int, ...]"
    words_np: np.ndarray
    from_frame: "tuple[tuple[int, ...], ...]"


@cache
def _library(n_wires: int) -> _Library:
    """The gate library and its relabeling table, built once per wire count."""
    words = gate_words(n_wires)
    index = {word: i for i, word in enumerate(words)}
    images = relabelings_np(words, n_wires)
    from_frame = [[0] * len(words) for _ in range(images.shape[1])]
    for i, row in enumerate(images.tolist()):
        for relabeling, image in enumerate(row):
            from_frame[relabeling][index[image]] = i
    words_np = np.array(words, dtype=np.uint64)
    words_np.flags.writeable = False
    return _Library(
        gates=tuple(all_gates(n_wires)),
        words=tuple(words),
        words_np=words_np,
        from_frame=tuple(tuple(row) for row in from_frame),
    )


#: Representatives per block of a mask pass (2 x 32 neighbours each,
#: so a block's temporaries stay near 16 MiB).
_MASK_BLOCK = 1 << 14

#: The low half of a peel mask: the gates that can end a representative.
_LOW_HALF = (1 << 32) - 1

#: Slots read per step of the :class:`MissFilter` build: at most 16,384
#: stored keys, whose signatures and those of their inverses take ~1 MiB
#: of temporaries.
_FILTER_CHUNK_SLOTS = 1 << 14


@dataclass
class OptimalDatabase:
    """Canonical representatives of all classes of size <= k, with sizes.

    Attributes:
        n_wires: Wire count the database was built for.
        k: Maximum circuit size stored.
        table: Linear-probing map: canonical packed word -> size.
        reps_by_size: ``reps_by_size[s]`` is the sorted array of canonical
            representatives whose optimal size is exactly ``s``.
        masks_by_size: ``masks_by_size[s]`` holds the peel masks of
            ``reps_by_size[s]``, in the same order: mapped from a store,
            or filled by :meth:`peel_masks` on first use.
        filter_cache: The table's :class:`MissFilter`, built by
            :meth:`miss_filter` on first use; never stored.
    """

    n_wires: int
    k: int
    table: LinearProbingTable
    reps_by_size: list[np.ndarray] = field(default_factory=list)
    masks_by_size: "dict[int, np.ndarray]" = field(
        default_factory=dict, repr=False, compare=False
    )
    filter_cache: "MissFilter | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    MISSING = 255

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def size_of(self, word: int) -> "int | None":
        """Optimal size of the function ``word`` if it is <= k, else None."""
        canon, _, _ = canonical_variant(word, self.n_wires)
        return self.table.get(canon)

    def sizes_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized size lookup of a 1-D word array; ``MISSING`` (255)
        marks absent classes.

        Every A_i scan and compile completion search looks up through
        here, and nearly all of a scan's words are absent.  A batch of
        more than :data:`GATHER_MAX_WORDS` words is tested against the
        :meth:`miss_filter` first, and only the words it admits are
        canonicalized and probed; the rest are proven absent, so the
        result equals ``table.lookup_batch`` of the canonical words.
        Smaller batches (the A_1 pass, compile pass 1) are
        canonicalized and probed directly.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.shape[0] <= GATHER_MAX_WORDS:
            return self.table.lookup_batch(canonical_np(words, self.n_wires))
        admitted = self.miss_filter().admits(
            conjugation_signature_np(words, self.n_wires)
        )
        keys = canonical_np(words[admitted], self.n_wires)
        sizes = np.full(words.shape, self.MISSING, dtype=np.uint8)
        sizes[admitted] = self.table.lookup_batch(keys)
        return sizes

    def miss_filter(self) -> MissFilter:
        """The table's miss filter, built from its slot keys on first use.

        It holds the :func:`conjugation_signature_np` of every stored
        key ``r`` and of ``r⁻¹``.  Every member of ``r``'s class is a
        relabeling of one of the two and shares its signature, so the
        filter admits every word of a stored class.  A filter is rebuilt
        when the table's key count has changed since (the BFS fills the
        table in place), so no lookup sees a stale one.
        """
        count = len(self.table)
        cached = self.filter_cache
        if cached is None or cached.count != count:
            # Threads that race here build equal filters; either may stay.
            cached = self.filter_cache = MissFilter.build(
                self._class_signatures(), count
            )
        return cached

    def _class_signatures(self) -> "Iterator[np.ndarray]":
        """The signatures of the stored keys and of their inverses, read
        from the slot keys in steps of :data:`_FILTER_CHUNK_SLOTS`."""
        slot_keys, _ = self.table.slot_arrays()
        for start in range(0, slot_keys.shape[0], _FILTER_CHUNK_SLOTS):
            chunk = slot_keys[start : start + _FILTER_CHUNK_SLOTS]
            keys = chunk[chunk != EMPTY]
            yield conjugation_signature_np(keys, self.n_wires)
            inverses = inverse_np(keys, self.n_wires)
            yield conjugation_signature_np(inverses, self.n_wires)

    # ------------------------------------------------------------------
    # Canonical cache keys (service layer hooks)
    # ------------------------------------------------------------------
    def canonical_key(self, word: int) -> int:
        """Canonical representative of ``word``, used as a cache key.

        All (up to ``2 * n!``) members of an equivalence class map to the
        same key, so a result cache keyed by it is shared across the
        whole class.
        """
        canon, _, _ = canonical_variant(word, self.n_wires)
        return canon

    def canonical_keys_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`canonical_key` for a uint64 word array."""
        words = np.asarray(words, dtype=np.uint64)
        return canonical_np(words, self.n_wires)

    def lookup_with_keys(
        self, words: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Canonicalize once and look up sizes: ``(keys, sizes)``.

        Callers that need both the cache key and the size (the batching
        dispatcher in :mod:`repro.service`) avoid paying the 48-variant
        canonicalization twice.
        """
        keys = self.canonical_keys_batch(words)
        return keys, self.table.lookup_batch(keys)

    def __contains__(self, word: int) -> bool:
        return self.size_of(word) is not None

    # ------------------------------------------------------------------
    # Distribution accounting (Table 4)
    # ------------------------------------------------------------------
    def reduced_counts(self) -> list[int]:
        """Number of equivalence classes per size (Table 4, right column)."""
        return [int(reps.shape[0]) for reps in self.reps_by_size]

    def function_counts(self) -> list[int]:
        """Number of *functions* per size (Table 4, middle column).

        Computed by summing equivalence-class sizes over the stored
        canonical representatives.
        """
        return [
            int(class_sizes_np(reps, self.n_wires).sum())
            for reps in self.reps_by_size
        ]

    def total_functions(self) -> int:
        """Total functions of size <= k."""
        return sum(self.function_counts())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_reps(
        n_wires: int, k: int, reps_by_size: list[np.ndarray]
    ) -> "OptimalDatabase":
        """Rebuild the hash table from per-size representative arrays.

        Raises :class:`DatabaseError` for an empty ``reps_by_size`` (a
        valid database always contains at least the identity class of
        size 0), which would otherwise silently build a degenerate table.
        """
        total = sum(int(r.shape[0]) for r in reps_by_size)
        if total == 0:
            raise DatabaseError(
                "cannot build a database from empty reps_by_size: a valid "
                "database contains at least the size-0 identity class"
            )
        bits = max(8, int(total * 1.7 - 1).bit_length())
        table = LinearProbingTable(capacity_bits=bits)
        for size, reps in enumerate(reps_by_size):
            table.insert_batch(reps, np.uint8(size))
        return OptimalDatabase(
            n_wires=n_wires, k=k, table=table, reps_by_size=list(reps_by_size)
        )

    # ------------------------------------------------------------------
    # Circuit reconstruction by peeling
    # ------------------------------------------------------------------
    def peel_masks(self, size: int) -> np.ndarray:
        """The uint64 peel masks of ``reps_by_size[size]``, in its order.

        A mapped store carries them.  An in-RAM database computes one
        size on first use and keeps it: the 32 + 32 neighbours of every
        representative are looked up by binary search in ``A_{size-1}``,
        every function of size ``size - 1`` (:func:`expand_classes_np`),
        so membership is exactly "has size ``size - 1``".  Size 0 (the
        identity) has no gates to peel and masks 0.
        """
        masks = self.masks_by_size.get(size)
        if masks is not None:
            return masks
        reps = np.asarray(self.reps_by_size[size], dtype=np.uint64)
        if size == 0:
            masks = np.zeros(reps.shape[0], dtype=np.uint64)
        else:
            below = expand_classes_np(self.reps_by_size[size - 1], self.n_wires)
            last = below.shape[0] - 1

            def in_below(words: np.ndarray) -> np.ndarray:
                return below[np.minimum(np.searchsorted(below, words), last)] == words

            masks = self._neighbour_masks(reps, in_below)
        self.masks_by_size[size] = masks
        return masks

    def probed_peel_masks(self, reps: np.ndarray, size: int) -> np.ndarray:
        """The peel masks of ``reps`` (all of size ``size``) by looking
        their neighbours up with :meth:`sizes_batch` (miss filter,
        canonicalization, probe): the slower route ``repro db verify``
        checks the stored masks against."""

        def one_smaller(words: np.ndarray) -> np.ndarray:
            sizes = self.sizes_batch(words.ravel()).reshape(words.shape)
            return sizes == size - 1

        reps = np.asarray(reps, dtype=np.uint64)
        return self._neighbour_masks(reps, one_smaller)

    def _neighbour_masks(
        self, reps: np.ndarray, is_rest: "Callable[[np.ndarray], np.ndarray]"
    ) -> np.ndarray:
        """Masks with bit g set where ``is_rest`` holds for ``compose(r,
        g)`` and bit 32 + g where it holds for ``compose(g, r)``."""
        gates = _library(self.n_wires).words_np
        shifts = np.arange(gates.shape[0], dtype=np.uint64)
        masks = np.zeros(reps.shape[0], dtype=np.uint64)
        for start in range(0, reps.shape[0], _MASK_BLOCK):
            block = reps[start : start + _MASK_BLOCK, None]
            ends = compose_np(block, gates, self.n_wires)
            starts = compose_np(gates, block, self.n_wires)
            for half, neighbours in ((0, ends), (32, starts)):
                found = is_rest(neighbours).astype(np.uint64) << shifts
                masks[start : start + block.shape[0]] |= np.bitwise_or.reduce(
                    found, axis=1
                ) << np.uint64(half)
        return masks

    def peel_last_gate(self, word: int, size: int) -> "tuple[Gate, int]":
        """Find a gate λ that is the last gate of some minimal circuit for
        ``word``; return ``(λ, rest)`` with ``rest`` = the word with λ
        removed (so ``size(rest) == size - 1``).

        ``size`` must be the optimal size of ``word``: the step looks
        for the word's representative among those of size ``size`` and
        raises :class:`DatabaseError` naming the word when it is not
        there.  λ is the first gate in :func:`all_gates` order whose
        rest has size ``size - 1`` -- the gate a gate-by-gate scan would
        stop at -- read off the representative's peel mask.  When the
        inverse won the canonicalization, the gates that end ``word``
        are those that start the representative: the mask's high half.
        """
        if 1 <= size <= self.k:
            canon, relabeling, inverted = canonical_variant(word, self.n_wires)
            reps = self.reps_by_size[size]
            at = int(np.searchsorted(reps, np.uint64(canon)))
            if at < reps.shape[0] and int(reps[at]) == canon:
                mask = int(self.peel_masks(size)[at])
                ends = mask >> 32 if inverted else mask & _LOW_HALF
                library = _library(self.n_wires)
                from_frame = library.from_frame[relabeling]
                first = len(from_frame)
                while ends:
                    bit = ends & -ends
                    first = min(first, from_frame[bit.bit_length() - 1])
                    ends ^= bit
                if first < len(from_frame):
                    rest = packed.compose(word, library.words[first], self.n_wires)
                    return library.gates[first], rest
        raise DatabaseError(
            f"no peelable gate found for word {word:#x} at size {size}; "
            "the database is inconsistent"
        )
