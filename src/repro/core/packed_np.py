"""Numpy-vectorized packed-word arithmetic.

Mirrors :mod:`repro.core.packed` on ``uint64`` arrays.  These routines are
the workhorses of the breadth-first search (Algorithm 2) and the
meet-in-the-middle search (Algorithm 1): a single call processes millions
of packed permutations with a few dozen whole-array passes.

All functions accept and return ``numpy.ndarray`` of dtype ``uint64``;
scalars may be passed as plain Python ints where noted.
"""

from __future__ import annotations

from itertools import permutations
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.core import packed
from repro.core.bitops import permute_bits
from repro.core.combinatorics import plain_changes_schedule

_U = np.uint64
NIBBLE_MASK = _U(0xF)

#: Alias for the array type every routine here consumes and produces.
U64Array = npt.NDArray[np.uint64]


def as_words(values: npt.ArrayLike) -> U64Array:
    """Coerce a sequence of packed words to a ``uint64`` array."""
    return np.asarray(values, dtype=np.uint64)


def compose_np(p: npt.ArrayLike, q: npt.ArrayLike, n_wires: int) -> U64Array:
    """Vectorized composition: result(x) = q(p(x)) (apply p, then q).

    ``p`` and ``q`` may each be an array or a scalar word; standard numpy
    broadcasting applies (at least one of them should be an array).
    """
    size = packed.num_states(n_wires)
    p = np.asarray(p, dtype=np.uint64)
    q = np.asarray(q, dtype=np.uint64)
    r = np.zeros(np.broadcast(p, q).shape, dtype=np.uint64)
    for i in range(size):
        v = (p >> _U(4 * i)) & NIBBLE_MASK
        r |= ((q >> (v << _U(2))) & NIBBLE_MASK) << _U(4 * i)
    return r


def inverse_np(p: npt.ArrayLike, n_wires: int) -> U64Array:
    """Vectorized inverse permutation."""
    size = packed.num_states(n_wires)
    p = np.asarray(p, dtype=np.uint64)
    q = np.zeros(p.shape, dtype=np.uint64)
    for i in range(size):
        v = (p >> _U(4 * i)) & NIBBLE_MASK
        q |= _U(i) << (v << _U(2))
    return q


class _NpSwapMasks:
    """uint64 copies of the adjacent-swap mask sets for one wire count."""

    def __init__(self, n_wires: int) -> None:
        masks = packed.adjacent_swap_masks(n_wires)
        self.index_masks = [
            (_U(keep), _U(up), _U(down), _U(shift))
            for keep, up, down, shift in masks.index_masks
        ]
        self.value_masks = [
            (_U(keep), _U(lo), _U(hi)) for keep, lo, hi in masks.value_masks
        ]


_NP_MASK_CACHE: dict[int, _NpSwapMasks] = {}


def _np_masks(n_wires: int) -> _NpSwapMasks:
    masks = _NP_MASK_CACHE.get(n_wires)
    if masks is None:
        masks = _NpSwapMasks(n_wires)
        _NP_MASK_CACHE[n_wires] = masks
    return masks


def conjugate_adjacent_np(words: U64Array, pair: int, n_wires: int) -> U64Array:
    """Vectorized conjugation by the wire transposition ``(pair, pair+1)``."""
    masks = _np_masks(n_wires)
    keep, up, down, shift = masks.index_masks[pair]
    words = (words & keep) | ((words & up) << shift) | ((words & down) >> shift)
    keep, bit_lo, bit_hi = masks.value_masks[pair]
    return (words & keep) | ((words & bit_lo) << _U(1)) | ((words & bit_hi) >> _U(1))


def _fold_conjugates_min(words: U64Array, n_wires: int, best: U64Array) -> None:
    """Fold ``min`` over all conjugates of ``words`` into ``best`` in place."""
    np.minimum(best, words, out=best)
    cur = words.copy()
    for pair in plain_changes_schedule(n_wires):
        cur = conjugate_adjacent_np(cur, pair, n_wires)
        np.minimum(best, cur, out=best)


class _RelabelTables:
    """Byte-indexed lookup tables of the ``n!`` wire relabelings.

    Relabeling ``g`` (a state map) conjugates ``f`` to ``r`` with
    ``r(g(x)) = g(f(x))``, so the packed ``r`` is the OR over states
    ``x`` of ``g(f(x)) << 4 g(x)``.  Byte ``j`` of the packed ``f`` holds
    the nibbles of states ``2j`` and ``2j + 1``; under relabeling ``s``
    the two contribute ``terms[(s * n_bytes + j) * 256 + byte]``, so a
    conjugate is the OR of ``n_bytes`` table entries.  For four wires
    the table holds 24 * 8 * 256 words (384 KiB).
    """

    def __init__(self, n_wires: int) -> None:
        size = packed.num_states(n_wires)
        maps = np.array(
            [
                [permute_bits(x, perm) for x in range(size)]
                for perm in permutations(range(n_wires))
            ],
            dtype=np.uint64,
        )
        n_perms = maps.shape[0]
        self.n_bytes = max(1, size // 2)
        # g(v) per nibble value; values no valid word holds map to 0.
        values = np.zeros((n_perms, 16), dtype=np.uint64)
        values[:, :size] = maps
        low, high = values[:, np.arange(256) & 0xF], values[:, np.arange(256) >> 4]
        positions = maps * _U(4)
        terms = np.empty((n_perms, self.n_bytes, 256), dtype=np.uint64)
        for j in range(self.n_bytes):
            terms[:, j] = (low << positions[:, 2 * j, None]) | (
                high << positions[:, 2 * j + 1, None]
            )
        self.terms = terms.ravel()
        #: ``offsets[j, 0, 0, s]``: start of the block of byte j under s.
        self.offsets = (
            np.arange(n_perms * self.n_bytes).reshape(n_perms, self.n_bytes).T
            * 256
        )[:, None, None, :]
        self.shifts = np.arange(size, dtype=np.uint64) * _U(4)
        #: ``2 * n!`` variants per word: every relabeling of f and of f⁻¹.
        self.variants = 2 * n_perms


_RELABEL_CACHE: dict[int, _RelabelTables] = {}


def _relabel_tables(n_wires: int) -> _RelabelTables:
    tables = _RELABEL_CACHE.get(n_wires)
    if tables is None:
        tables = _RelabelTables(n_wires)
        _RELABEL_CACHE[n_wires] = tables
    return tables


def _gather_variants(
    both: npt.NDArray[np.integer[Any]], tables: _RelabelTables
) -> U64Array:
    """The ``(count, 2 * n!)`` variant matrix from the bytes of each word.

    ``both[j, i]`` holds byte j of word i and byte j of its inverse; the
    OR over bytes runs byte-major, over whole slices.  Column ``v`` is
    relabeling ``v % n!`` of the word (``v < n!``) or of its inverse.
    """
    terms = np.take(tables.terms, both[:, :, :, None] + tables.offsets)
    conjugates = np.bitwise_or.reduce(terms, axis=0)
    return conjugates.reshape(both.shape[1], tables.variants)


def _variant_matrix(words: U64Array, n_wires: int) -> U64Array:
    """All ``2 * n!`` variants of each word by table lookups instead of a
    swap-by-swap fold, in the column order of :func:`_gather_variants`.

    Inverts each word by ``argsort`` of its nibbles and looks up every
    relabeling of the bytes of ``f`` and ``f⁻¹`` in one gather
    (:class:`_RelabelTables`).  About a dozen numpy calls per batch
    against the fold's ~770, but ``2 * n! * 2^n / 2`` lookups per word,
    so the fold wins on large arrays.
    """
    tables = _relabel_tables(n_wires)
    count = words.shape[0]
    words = np.ascontiguousarray(words, dtype="<u8")
    inverse = np.argsort((words[:, None] >> tables.shifts) & NIBBLE_MASK, axis=1)
    both = np.empty((tables.n_bytes, count, 2), dtype=np.intp)
    both[:, :, 0] = words.view(np.uint8).reshape(count, 8)[:, : tables.n_bytes].T
    both[:, :, 1] = (inverse[:, 0::2] | (inverse[:, 1::2] << 4)).T
    return _gather_variants(both, tables)


def _canonical_gather(words: U64Array, n_wires: int) -> U64Array:
    """Small-batch :func:`canonical_np` kernel: the minimum of each row
    of :func:`_variant_matrix`."""
    return _variant_matrix(words, n_wires).min(axis=1)


def canonical_variant(word: int, n_wires: int) -> "tuple[int, int, bool]":
    """One word's canonical representative and the variant that won.

    Returns ``(canonical, relabeling, inverted)``: the canonical word is
    relabeling ``relabeling`` (a column of :func:`relabelings_np`) of
    ``word``, or of its inverse when ``inverted``.  Same gather as
    :func:`canonical_np`, with the inverse taken by scalar
    :func:`repro.core.packed.inverse`, which beats ``argsort`` on one
    word.
    """
    tables = _relabel_tables(n_wires)
    raw = word.to_bytes(8, "little") + packed.inverse(word, n_wires).to_bytes(
        8, "little"
    )
    both = np.frombuffer(raw, dtype=np.uint8).reshape(2, 8)[:, : tables.n_bytes]
    variants = _gather_variants(both.T[:, None, :], tables)[0]
    best = int(variants.argmin())
    n_perms = tables.variants // 2
    return int(variants[best]), best % n_perms, best >= n_perms


def relabelings_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """Every wire relabeling of each word, shape ``(len(words), n!)``.

    Column ``s`` is the relabeling :func:`canonical_variant` reports as
    ``s``.
    """
    words = np.asarray(words, dtype=np.uint64)
    return _variant_matrix(words, n_wires)[:, : _relabel_tables(n_wires).variants // 2]


#: Largest batch :func:`canonical_np` hands to :func:`_canonical_gather`.
#: Measured on a 2-vCPU x86 VM (numpy 2.4, n = 4, interleaved medians):
#: the gather kernel costs 15 us for 1 word, 75 us for 32 and 0.5 ms for
#: 128; the fold costs 0.5-0.8 ms for every batch up to 784 words and
#: 4 ms for 16,204.  They cross between 128 and 512 words depending on
#: the run, and the gather's temporaries grow with the batch (0.8 MiB at
#: 128 words, 1.6 MiB at 256), so the cut is the largest batch it won in
#: every run.  ``OptimalDatabase.sizes_batch`` makes the same cut: larger
#: batches (the A_2 and A_3 passes) first drop the words whose
#: :func:`conjugation_signature_np` its miss filter rejects, and only the
#: ~1% left reach this function.
GATHER_MAX_WORDS = 128


def canonical_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """Canonical representative of the equivalence class of each word.

    The representative is the numerically smallest packed word among the
    up-to-48 equivalents (24 wire-relabeling conjugates of ``f`` and 24 of
    ``f⁻¹``), exactly as in Section 3.2 of the paper.  Batches of up to
    :data:`GATHER_MAX_WORDS` words (lookups, the A_1 pass, compile pass
    1) take the table-gather kernel; larger ones (the BFS, and the words
    of an A_2 or A_3 pass that pass the miss filter) fold minima over the
    plain-changes conjugation walk.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1 and words.shape[0] <= GATHER_MAX_WORDS:
        return _canonical_gather(words, n_wires)
    best = words.copy()
    _fold_conjugates_min(words, n_wires, best)
    _fold_conjugates_min(inverse_np(words, n_wires), n_wires, best)
    return best


def canonical_conjugation_only_np(
    words: npt.ArrayLike, n_wires: int
) -> U64Array:
    """Canonical representative under wire relabeling only (no inversion).

    Used by variants of the search that must distinguish a class from the
    class of its inverse (e.g. cost models that are not reversal-symmetric).
    """
    words = np.asarray(words, dtype=np.uint64)
    best = words.copy()
    _fold_conjugates_min(words, n_wires, best)
    return best


_POP_PAIRS = _U(0x5555555555555555)
_POP_QUADS = _U(0x3333333333333333)
_HALVE_NIBBLES = _U(0x7777777777777777)
_LOW_NIBBLES = _U(0x0F0F0F0F0F0F0F0F)
#: ``_FLIP_MASKS[i]``: the nibbles of the states with bit i clear, the
#: half of the state map x -> x ^ 2^i that moves up by 2^i nibbles.
_FLIP_MASKS = (
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
)


def _nibble_popcounts_np(words: U64Array, scratch: U64Array) -> U64Array:
    """Replace every nibble of ``words`` by its popcount (0-4), in place."""
    np.right_shift(words, _U(1), out=scratch)
    scratch &= _POP_PAIRS
    words -= scratch
    np.right_shift(words, _U(2), out=scratch)
    scratch &= _POP_QUADS
    words &= _POP_QUADS
    words += scratch
    return words


class _SignatureTables:
    """Constants of :func:`conjugation_signature_np` for one wire count.

    ``low[j]`` and ``high[j]`` are the rows of the states in the low and
    high nibble of byte j: entry ``code`` of the row of state x is
    ``hash64shift(popcount(x) << 8 | code)``, so states of equal
    popcount share a row.
    """

    def __init__(self, n_wires: int) -> None:
        # The layer DAG keeps hashing out of core's module scope.
        from repro.hashing.wang import hash64shift_np

        size = packed.num_states(n_wires)
        self.identity = _U(packed.identity(n_wires))
        self.flips = [(_U(_FLIP_MASKS[i]), _U(4 << i)) for i in range(n_wires)]
        weights = np.array([bin(x).count("1") for x in range(size)], dtype=np.uint64)
        entries = hash64shift_np(
            (weights[:, None] << _U(8)) | np.arange(256, dtype=np.uint64)
        )
        self.low = entries[0::2]
        self.high = entries[1::2]


_SIGNATURE_CACHE: dict[int, _SignatureTables] = {}


def _signature_tables(n_wires: int) -> _SignatureTables:
    tables = _SIGNATURE_CACHE.get(n_wires)
    if tables is None:
        tables = _SignatureTables(n_wires)
        _SIGNATURE_CACHE[n_wires] = tables
    return tables


def conjugation_signature_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """A 64-bit signature every wire relabeling of a word shares.

    The signature of ``f`` is the sum mod 2^64, over the states
    ``x < 2^n``, of a fixed table entry for the tuple ``(|x|, |f(x)|,
    |x ⊕ f(x)|, Σ_{i<n} |f(x) ⊕ f(x ⊕ 2^i)|)``, where ``|·|`` is the
    popcount.  A relabeling ``g`` gives ``r`` with ``r(g(x)) =
    g(f(x))``; ``g`` preserves popcount and XOR and permutes the unit
    vectors ``2^i``, so state ``g(x)`` of ``r`` has the tuple of state
    ``x`` of ``f`` and the two sums agree.  Inversion does not preserve
    the signature, so a class (the relabelings of ``f`` and of ``f⁻¹``)
    has at most two.  Every uint64 word has one; nibbles of states
    ``>= 2^n`` are ignored.

    Popcounts run nibble-parallel on whole words.  Each state's tuple
    packs into one byte, ``17 (3 |f(x)| + ⌊|x ⊕ f(x)| / 2⌋) + D`` with
    ``D`` the last component, which is one to one on the tuples of a
    state because ``|x ⊕ f(x)| ≡ |x| + |f(x)|`` (mod 2); one byte-indexed
    gather per state then adds its entry.  About 140 numpy calls per
    batch at n = 4, against the 48-variant fold's ~770, and under 1 MiB
    of temporaries for a 16,204-word batch.
    """
    tables = _signature_tables(n_wires)
    words = np.asarray(words, dtype=np.uint64)
    scratch = np.empty(words.shape, dtype=np.uint64)
    terms = np.empty(words.shape, dtype=np.uint64)
    # Byte j of ``low`` and ``high`` gathers the code of state 2j and
    # 2j + 1; D comes first, one direction at a time.
    low = np.zeros(words.shape, dtype="<u8")
    high = np.zeros(words.shape, dtype="<u8")
    for mask, shift in tables.flips:
        np.right_shift(words, shift, out=scratch)
        scratch &= mask
        np.bitwise_and(words, mask, out=terms)
        terms <<= shift
        terms |= scratch
        terms ^= words
        _nibble_popcounts_np(terms, scratch)
        np.bitwise_and(terms, _LOW_NIBBLES, out=scratch)
        low += scratch
        terms >>= _U(4)
        terms &= _LOW_NIBBLES
        high += terms
    # Then 3 |f(x)| + ⌊|x ⊕ f(x)| / 2⌋ per nibble (at most 14), times 17.
    weights = _nibble_popcounts_np(words.copy(), scratch)
    np.bitwise_xor(words, tables.identity, out=terms)
    _nibble_popcounts_np(terms, scratch)
    terms >>= _U(1)
    terms &= _HALVE_NIBBLES
    terms += weights
    weights <<= _U(1)
    terms += weights
    del weights
    np.bitwise_and(terms, _LOW_NIBBLES, out=scratch)
    scratch *= _U(17)
    low += scratch
    terms >>= _U(4)
    terms &= _LOW_NIBBLES
    terms *= _U(17)
    high += terms
    # Free the scratch arrays before the gathers allocate theirs.
    del scratch, terms
    signature = np.zeros(words.shape, dtype=np.uint64)
    low_codes = low.view(np.uint8).reshape(-1, 8)
    high_codes = high.view(np.uint8).reshape(-1, 8)
    for j, (low_row, high_row) in enumerate(zip(tables.low, tables.high)):
        signature += low_row.take(low_codes[:, j])
        signature += high_row.take(high_codes[:, j])
    return signature


def all_variants_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """Matrix of all equivalence-class members, shape ``(2 * n!, len(words))``.

    Row 0 is ``words`` itself; rows may repeat when the class is smaller
    than ``2 * n!`` (symmetric functions).
    """
    words = np.asarray(words, dtype=np.uint64)
    sched = plain_changes_schedule(n_wires)
    n_conj = len(sched) + 1
    out = np.empty((2 * n_conj, words.shape[0]), dtype=np.uint64)
    cur = words.copy()
    out[0] = cur
    for row, pair in enumerate(sched, start=1):
        cur = conjugate_adjacent_np(cur, pair, n_wires)
        out[row] = cur
    cur = inverse_np(words, n_wires)
    out[n_conj] = cur
    for row, pair in enumerate(sched, start=n_conj + 1):
        cur = conjugate_adjacent_np(cur, pair, n_wires)
        out[row] = cur
    return out


def class_sizes_np(
    words: npt.ArrayLike, n_wires: int, chunk: int = 1 << 18
) -> npt.NDArray[np.int64]:
    """Number of distinct functions in the equivalence class of each word.

    Vectorized: builds the ``(2 * n!, chunk)`` variant matrix and counts
    distinct entries per column.  The sum of class sizes over all canonical
    representatives of one size is the "Functions" column of Table 4.
    """
    words = np.asarray(words, dtype=np.uint64)
    sizes = np.empty(words.shape[0], dtype=np.int64)
    for start in range(0, words.shape[0], chunk):
        block = words[start : start + chunk]
        variants = all_variants_np(block, n_wires)
        variants.sort(axis=0)
        distinct = (np.diff(variants, axis=0) != 0).sum(axis=0) + 1
        sizes[start : start + block.shape[0]] = distinct
    return sizes


def expand_classes_np(
    reps: npt.ArrayLike, n_wires: int, chunk: int = 1 << 18
) -> U64Array:
    """All distinct members of the classes of ``reps``, sorted, deduplicated.

    Used to materialize the lists ``A_i`` of *all* functions of a given
    size from the stored canonical representatives (Algorithm 1 needs
    sequential access to every function of size ``i``).
    """
    reps = np.asarray(reps, dtype=np.uint64)
    pieces: list[U64Array] = []
    for start in range(0, reps.shape[0], chunk):
        block = reps[start : start + chunk]
        variants = all_variants_np(block, n_wires).reshape(-1)
        pieces.append(np.unique(variants))
    if not pieces:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(pieces))


def is_valid_np(words: npt.ArrayLike, n_wires: int) -> npt.NDArray[np.bool_]:
    """Boolean mask of words that encode valid permutations."""
    size = packed.num_states(n_wires)
    words = np.asarray(words, dtype=np.uint64)
    seen = np.zeros(words.shape, dtype=np.uint64)
    ok = np.ones(words.shape, dtype=bool)
    if size < 16:
        ok &= (words >> _U(4 * size)) == 0
    for i in range(size):
        v = (words >> _U(4 * i)) & NIBBLE_MASK
        ok &= v < size
        seen |= _U(1) << v
    ok &= seen == _U((1 << size) - 1)
    return ok
