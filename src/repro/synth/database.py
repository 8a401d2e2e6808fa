"""The optimal-circuit database: canonical representatives with sizes.

This is the central data structure of the paper: a hash table mapping the
canonical representative of every equivalence class of size <= k to its
optimal circuit size.  The paper additionally stores one witness gate per
representative; we instead reconstruct circuits by *peeling*, which needs
no witness storage -- see DESIGN.md.  Each of the s output gates of a
size-s circuit costs one batched step: compose the word with all 32
gates in one call, canonicalize the 32 rests in one ``canonical_np``
call, probe them in one ``lookup_batch`` call, and take the *first* gate
whose rest has size s - 1.  A gate-by-gate scan stops at that same gate,
so circuits are byte-identical to the scalar loop's.  The scalar
reference engine in :mod:`repro.synth.bfs` stores witnesses exactly as
the paper does, and the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.core import equivalence
from repro.core.gates import Gate, all_gates, gate_words
from repro.core.packed_np import canonical_np, class_sizes_np, compose_np
from repro.errors import DatabaseError
from repro.hashing.table import LinearProbingTable


@cache
def _library(n_wires: int) -> "tuple[tuple[Gate, ...], np.ndarray]":
    """The gate library and its packed words, built once per wire count."""
    gates = tuple(all_gates(n_wires))
    words = np.array(gate_words(n_wires), dtype=np.uint64)
    words.flags.writeable = False
    return gates, words


@dataclass
class OptimalDatabase:
    """Canonical representatives of all classes of size <= k, with sizes.

    Attributes:
        n_wires: Wire count the database was built for.
        k: Maximum circuit size stored.
        table: Linear-probing map: canonical packed word -> size.
        reps_by_size: ``reps_by_size[s]`` is the sorted array of canonical
            representatives whose optimal size is exactly ``s``.
    """

    n_wires: int
    k: int
    table: LinearProbingTable
    reps_by_size: list[np.ndarray] = field(default_factory=list)

    MISSING = 255

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def size_of(self, word: int) -> "int | None":
        """Optimal size of the function ``word`` if it is <= k, else None."""
        canon = equivalence.canonical(word, self.n_wires)
        return self.table.get(canon)

    def size_of_canonical(self, canon: int) -> "int | None":
        """Size lookup for an already-canonical word (no canonicalization)."""
        return self.table.get(canon)

    def sizes_batch(
        self, words: np.ndarray, assume_canonical: bool = False
    ) -> np.ndarray:
        """Vectorized size lookup; ``MISSING`` (255) marks absent classes."""
        words = np.asarray(words, dtype=np.uint64)
        if not assume_canonical:
            words = canonical_np(words, self.n_wires)
        return self.table.lookup_batch(words)

    # ------------------------------------------------------------------
    # Canonical cache keys (service layer hooks)
    # ------------------------------------------------------------------
    def canonical_key(self, word: int) -> int:
        """Canonical representative of ``word``, used as a cache key.

        All (up to ``2 * n!``) members of an equivalence class map to the
        same key, so a result cache keyed by it is shared across the
        whole class.
        """
        return equivalence.canonical(word, self.n_wires)

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
    def peel_last_gate(self, word: int, size: int) -> "tuple[Gate, int]":
        """Find a gate λ that is the last gate of some minimal circuit for
        ``word``; return ``(λ, rest)`` with ``rest`` = the word with λ
        removed (so ``size(rest) == size - 1``).

        One batched step: ``word`` is composed with every library gate in
        one call, the rests are canonicalized and probed together, and
        the *first* gate (in :func:`all_gates` order) whose rest has size
        ``size - 1`` wins -- the gate a gate-by-gate scan would stop at,
        so circuits do not depend on the batching.
        """
        gates, gate_words = _library(self.n_wires)
        rests = compose_np(np.uint64(word), gate_words, self.n_wires)
        # Sizes outside 0..k (and MISSING) can never be a rest's size.
        if 0 <= size - 1 <= self.k:
            peels = np.flatnonzero(self.sizes_batch(rests) == size - 1)
            if peels.size:
                first = int(peels[0])
                return gates[first], int(rests[first])
        raise DatabaseError(
            f"no peelable gate found for word {word:#x} at size {size}; "
            "the database is inconsistent"
        )
