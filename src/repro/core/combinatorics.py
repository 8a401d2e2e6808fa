"""Combinatorial utilities: plain changes, permutation helpers.

The symmetry reduction of the paper (Section 3.2) enumerates all ``n!``
simultaneous input/output relabelings of a circuit.  Because every
permutation of wires is a product of *adjacent* transpositions, the whole
orbit can be traversed by repeatedly conjugating with adjacent wire swaps.
The Steinhaus--Johnson--Trotter ("plain changes") order visits every
permutation of ``n`` elements exactly once, moving between consecutive
permutations by a single adjacent transposition -- exactly the walk the
paper performs with its ``conjugate01``-style routines (46 conjugations for
``n = 4``; see Section 3.3).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache


def factorial(n: int) -> int:
    """``n!`` for non-negative ``n``."""
    return math.factorial(n)


def plain_changes(n: int) -> list[int]:
    """Return the Steinhaus--Johnson--Trotter swap schedule for ``n`` items.

    The result is a list of ``n! - 1`` positions; swapping the (pos, pos+1)
    pair of an arrangement, in sequence, visits all ``n!`` arrangements of
    ``n`` items starting from the identity, each exactly once.

    >>> plain_changes(3)
    [1, 0, 1, 0, 1]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Johnson-Trotter with explicit directions. Values 0..n-1; direction
    # -1 means "looking left".
    perm = list(range(n))
    direction = [-1] * n
    swaps: list[int] = []
    while True:
        # Find the largest mobile element.
        mobile_value = -1
        mobile_pos = -1
        for pos, value in enumerate(perm):
            neighbor = pos + direction[value]
            if 0 <= neighbor < n and perm[neighbor] < value and value > mobile_value:
                mobile_value = value
                mobile_pos = pos
        if mobile_value < 0:
            break
        swap_pos = min(mobile_pos, mobile_pos + direction[mobile_value])
        swaps.append(swap_pos)
        perm[swap_pos], perm[swap_pos + 1] = perm[swap_pos + 1], perm[swap_pos]
        # Reverse direction of all elements larger than the mobile one.
        for value in range(mobile_value + 1, n):
            direction[value] = -direction[value]
    if len(swaps) != factorial(n) - 1:
        raise AssertionError("plain changes schedule has wrong length")
    return swaps


@cache
def plain_changes_schedule(n: int) -> tuple[int, ...]:
    """:func:`plain_changes` as a tuple, computed once per ``n`` for the
    canonicalization loops that walk it on every call."""
    return tuple(plain_changes(n))


def arrangements_in_plain_changes_order(n: int) -> list[tuple[int, ...]]:
    """All ``n!`` arrangements, in the order plain_changes visits them."""
    perm = list(range(n))
    result = [tuple(perm)]
    for pos in plain_changes(n):
        perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
        result.append(tuple(perm))
    return result


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of ``range(n)`` in lexicographic order."""
    import itertools

    return itertools.permutations(range(n))


def compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition ``q after p`` on tuples: result[i] = q[p[i]]."""
    return tuple(q[p[i]] for i in range(len(p)))


def invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of a permutation given as a tuple."""
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)
