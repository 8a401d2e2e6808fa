"""Packed-word arithmetic for small reversible functions (paper Section 3.3).

An ``n``-bit reversible function (2 <= n <= 4) is a permutation of
``{0, ..., 2**n - 1}``.  Following the paper, we store it in a single
64-bit word, allocating one 4-bit nibble per value: nibble ``i`` (bits
``4*i .. 4*i + 3``) holds ``f(i)``.  For ``n = 4`` the word is fully used;
for ``n = 3`` only the low 32 bits are used, and for ``n = 2`` the low 16.

With this layout,

* composition of two functions costs a handful of shift/mask operations per
  nibble (the paper's ``composition`` routine, 94 machine instructions),
* inversion is a scatter of nibble indices (the paper's ``inverse``,
  59 instructions),
* conjugation by an adjacent wire transposition is straight-line mask
  arithmetic (the paper's ``conjugate01``, 14 instructions), and
* unsigned comparison of two packed words is a total order on functions
  (numeric order equals lexicographic order on the value sequence read
  from ``f(2**n - 1)`` down to ``f(0)``), which is all the canonical-
  representative computation needs.

Everything in this module is scalar pure Python and serves as the readable
reference implementation; :mod:`repro.core.packed_np` provides numpy-
vectorized equivalents used by the heavy searches.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import InvalidPermutationError

#: Number of bits used to store one function value (fixed by the layout).
NIBBLE_BITS = 4
NIBBLE_MASK = 0xF

#: Maximum supported wire count for the packed representation.
MAX_WIRES = 4

#: Sentinel that is not a valid packed permutation for any n (a valid word
#: never has all nibbles equal to 15 unless n=4, and for n=4 the word with
#: every nibble 15 repeats values, hence is invalid as well).
EMPTY_WORD = 0xFFFF_FFFF_FFFF_FFFF


def _check_wires(n_wires: int) -> None:
    if not 1 <= n_wires <= MAX_WIRES:
        raise InvalidPermutationError(
            f"packed representation supports 1..{MAX_WIRES} wires, got {n_wires}"
        )


def num_states(n_wires: int) -> int:
    """Number of basis states ``2**n`` on ``n_wires`` wires."""
    _check_wires(n_wires)
    return 1 << n_wires


def identity(n_wires: int) -> int:
    """Packed identity permutation on ``n_wires`` wires.

    >>> hex(identity(4))
    '0xfedcba9876543210'
    """
    _check_wires(n_wires)
    word = 0
    for i in range(num_states(n_wires)):
        word |= i << (NIBBLE_BITS * i)
    return word


def get(word: int, index: int) -> int:
    """Value ``f(index)`` stored in nibble ``index`` of ``word``."""
    return (word >> (NIBBLE_BITS * index)) & NIBBLE_MASK


def pack(values: "list[int] | tuple[int, ...]") -> int:
    """Pack a value sequence ``f(0), f(1), ...`` into a word.

    The sequence length must be a power of two between 2 and 16 and the
    values must form a permutation of ``range(len(values))``.
    """
    size = len(values)
    if size not in (2, 4, 8, 16):
        raise InvalidPermutationError(
            f"length must be 2, 4, 8 or 16 (a power of two), got {size}"
        )
    if sorted(values) != list(range(size)):
        raise InvalidPermutationError(
            f"values are not a permutation of 0..{size - 1}: {values!r}"
        )
    word = 0
    for i, v in enumerate(values):
        word |= v << (NIBBLE_BITS * i)
    return word


def unpack(word: int, n_wires: int) -> tuple[int, ...]:
    """Unpack a word into the value sequence ``f(0), ..., f(2**n - 1)``."""
    return tuple(get(word, i) for i in range(num_states(n_wires)))


def is_valid(word: int, n_wires: int) -> bool:
    """True iff ``word`` encodes a permutation of ``range(2**n_wires)``
    and all unused high bits are zero."""
    _check_wires(n_wires)
    size = num_states(n_wires)
    if word >> (NIBBLE_BITS * size):
        return False
    seen = 0
    for i in range(size):
        v = get(word, i)
        if v >= size:
            return False
        seen |= 1 << v
    return seen == (1 << size) - 1


def compose(p: int, q: int, n_wires: int) -> int:
    """Apply ``p`` first, then ``q``:  result(x) = q(p(x)).

    This matches the paper's ``composition(p, q)`` routine, whose first
    step computes ``r0 = q[p[0]]``.  In mathematical notation the result
    is the composition ``q ∘ p``.
    """
    size = num_states(n_wires)
    r = 0
    for i in range(size):
        r |= ((q >> (NIBBLE_BITS * get(p, i))) & NIBBLE_MASK) << (NIBBLE_BITS * i)
    return r


def compose4_paper(p: int, q: int) -> int:
    """Faithful port of the paper's straight-line ``composition`` for n = 4.

    Kept separate from :func:`compose` so tests can check the unrolled bit
    manipulation against the loop-based reference.
    """
    d = (p & 15) << 2
    r = (q >> d) & 15
    p >>= 2  # from now on the low nibble sits pre-multiplied by 4 in p & 60
    shift = 4
    for _ in range(15):
        d = p & 60
        r |= ((q >> d) & 15) << shift
        p >>= 4
        shift += 4
    return r


def inverse(p: int, n_wires: int) -> int:
    """Inverse permutation: result[p(x)] = x.

    Mirrors the paper's ``inverse`` routine generalized to any n <= 4.
    """
    size = num_states(n_wires)
    q = 0
    for i in range(size):
        q |= i << (NIBBLE_BITS * get(p, i))
    return q


def _index_bitswap_masks(n_wires: int, lo: int) -> tuple[int, int, int, int]:
    """Masks for permuting nibble *positions* by swapping index bits
    ``lo`` and ``lo + 1``.

    Returns ``(keep, move_up, move_down, shift)`` such that::

        permuted = (w & keep) | ((w & move_up) << shift) | ((w & move_down) >> shift)

    ``move_up`` selects nibbles whose index has bit ``lo`` = 1 and bit
    ``lo+1`` = 0 (these move to the position with the bits exchanged,
    i.e. up by ``2**(lo+1) - 2**lo = 2**lo`` index steps).
    """
    size = num_states(n_wires)
    hi = lo + 1
    keep = move_up = move_down = 0
    for i in range(size):
        nib = NIBBLE_MASK << (NIBBLE_BITS * i)
        b_lo = (i >> lo) & 1
        b_hi = (i >> hi) & 1
        if b_lo == b_hi:
            keep |= nib
        elif b_lo == 1:  # b_hi == 0: moves up
            move_up |= nib
        else:  # b_lo == 0, b_hi == 1: moves down
            move_down |= nib
    shift = NIBBLE_BITS * ((1 << hi) - (1 << lo))
    return keep, move_up, move_down, shift


def _value_bitswap_masks(n_wires: int, lo: int) -> tuple[int, int, int]:
    """Masks for swapping bits ``lo`` and ``lo + 1`` inside every nibble.

    Returns ``(keep, bit_lo, bit_hi)`` such that::

        swapped = (w & keep) | ((w & bit_lo) << 1) | ((w & bit_hi) >> 1)
    """
    size = num_states(n_wires)
    hi = lo + 1
    keep = bit_lo = bit_hi = 0
    for i in range(size):
        base = NIBBLE_BITS * i
        for b in range(NIBBLE_BITS):
            if b == lo:
                bit_lo |= 1 << (base + b)
            elif b == hi:
                bit_hi |= 1 << (base + b)
            else:
                keep |= 1 << (base + b)
    return keep, bit_lo, bit_hi


class AdjacentSwapMasks:
    """Precomputed mask sets for conjugation by adjacent wire swaps.

    For ``n_wires`` wires there are ``n_wires - 1`` adjacent transpositions
    ``(0,1), (1,2), ...``; conjugating a packed function by one of them
    amounts to (a) permuting nibble positions by the index-bit swap and
    (b) swapping the same pair of bits inside every nibble -- exactly the
    structure of the paper's ``conjugate01``.
    """

    def __init__(self, n_wires: int) -> None:
        _check_wires(n_wires)
        self.n_wires = n_wires
        self.index_masks = [
            _index_bitswap_masks(n_wires, lo) for lo in range(n_wires - 1)
        ]
        self.value_masks = [
            _value_bitswap_masks(n_wires, lo) for lo in range(n_wires - 1)
        ]

    def conjugate(self, word: int, pair: int) -> int:
        """Conjugate ``word`` by the wire transposition ``(pair, pair+1)``."""
        keep, up, down, shift = self.index_masks[pair]
        # repro: allow[unmasked-op] up/down select nibbles whose shifted image stays inside the 64-bit word by construction
        word = (word & keep) | ((word & up) << shift) | ((word & down) >> shift)
        keep, bit_lo, bit_hi = self.value_masks[pair]
        # repro: allow[unmasked-op] bit_lo/bit_hi select value bits whose 1-bit shift stays inside each nibble by construction
        return (word & keep) | ((word & bit_lo) << 1) | ((word & bit_hi) >> 1)


_MASK_CACHE: dict[int, AdjacentSwapMasks] = {}


def adjacent_swap_masks(n_wires: int) -> AdjacentSwapMasks:
    """Shared, cached :class:`AdjacentSwapMasks` instance for ``n_wires``."""
    masks = _MASK_CACHE.get(n_wires)
    if masks is None:
        masks = AdjacentSwapMasks(n_wires)
        _MASK_CACHE[n_wires] = masks
    return masks


def conjugate_adjacent(word: int, pair: int, n_wires: int) -> int:
    """Conjugate by the adjacent wire transposition ``(pair, pair + 1)``."""
    return adjacent_swap_masks(n_wires).conjugate(word, pair)


def conjugate01_paper(p: int) -> int:
    """Faithful port of the paper's ``conjugate01`` (n = 4, wires 0 and 1)."""
    p = (
        (p & 0xF00F_F00F_F00F_F00F)
        | ((p & 0x00F0_00F0_00F0_00F0) << 4)
        | ((p & 0x0F00_0F00_0F00_0F00) >> 4)
    )
    return (
        (p & 0xCCCC_CCCC_CCCC_CCCC)
        | ((p & 0x1111_1111_1111_1111) << 1)
        | ((p & 0x2222_2222_2222_2222) >> 1)
    )


def conjugate_by_wire_perm(word: int, wire_perm: tuple[int, ...], n_wires: int) -> int:
    """Conjugate ``word`` by an arbitrary wire relabeling (slow reference).

    ``wire_perm[i]`` is the new label of wire ``i``.  The result is
    ``g⁻¹ ∘ f ∘ g`` where ``g`` maps basis state ``x`` to the state with
    bit ``i`` of ``x`` moved to position ``wire_perm[i]``.
    """
    from repro.core.bitops import permute_bits

    size = num_states(n_wires)
    values = [0] * size
    for x in range(size):
        gx = permute_bits(x, wire_perm)
        values[gx] = permute_bits(get(word, x), wire_perm)
    return pack(values)


class Shuffler(Protocol):
    """Anything exposing in-place ``shuffle`` (random.Random, samplers)."""

    def shuffle(self, values: list[int]) -> None: ...


def random_word(n_wires: int, rng: Shuffler) -> int:
    """Uniformly random packed permutation drawn from ``rng``.

    ``rng`` must expose ``shuffle(list)`` (e.g. :class:`random.Random` or
    :class:`repro.rng.sampling.PermutationSampler`).
    """
    values = list(range(num_states(n_wires)))
    rng.shuffle(values)
    return pack(values)
