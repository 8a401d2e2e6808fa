"""Equivalence classes of reversible functions (paper Section 3.2).

Two functions are *equivalent* when one can be obtained from the other by

* simultaneous relabeling of inputs and outputs (conjugation by one of the
  ``n!`` wire permutations), and/or
* inversion (reversing the circuit).

Equivalent functions have the same optimal circuit size, so the search
only ever stores one *canonical representative* per class -- the
numerically smallest packed word.  For ``n = 4`` this shrinks storage by a
factor of almost ``2 * 4! = 48``.

This module is the scalar reference implementation; the vectorized
counterpart lives in :mod:`repro.core.packed_np`.
"""

from __future__ import annotations

from repro.core import packed
from repro.core.combinatorics import (
    arrangements_in_plain_changes_order,
    plain_changes_schedule,
)
from repro.perf.trace import trace


def conjugates(word: int, n_wires: int) -> list[int]:
    """All ``n!`` conjugates of ``word`` (with repetitions for symmetric
    functions), visited by the plain-changes walk.

    The first element is ``word`` itself.
    """
    out = [word]
    cur = word
    for pair in plain_changes_schedule(n_wires):
        cur = packed.conjugate_adjacent(cur, pair, n_wires)
        out.append(cur)
    return out


def conjugates_with_wire_perms(
    word: int, n_wires: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Pairs ``(conjugate, wire_permutation)`` for all ``n!`` relabelings.

    Each reported wire permutation satisfies
    ``packed.conjugate_by_wire_perm(word, perm, n_wires) == conjugate``:
    it is the inverse of the arrangement the plain-changes walk has
    reached (the walk permutes *positions*, which acts on labels
    contravariantly).
    """
    from repro.core.combinatorics import invert_perm

    conj = conjugates(word, n_wires)
    arrangements = arrangements_in_plain_changes_order(n_wires)
    return [
        (conjugate, invert_perm(arrangement))
        for conjugate, arrangement in zip(conj, arrangements)
    ]


def equivalence_class(word: int, n_wires: int) -> set[int]:
    """The set of all functions equivalent to ``word``."""
    members = set(conjugates(word, n_wires))
    members.update(conjugates(packed.inverse(word, n_wires), n_wires))
    return members


def canonical(word: int, n_wires: int) -> int:
    """Canonical (numerically smallest) representative of the class."""
    with trace("equivalence.canonical"):
        best = word
        cur = word
        schedule = plain_changes_schedule(n_wires)
        for pair in schedule:
            cur = packed.conjugate_adjacent(cur, pair, n_wires)
            if cur < best:
                best = cur
        cur = packed.inverse(word, n_wires)
        if cur < best:
            best = cur
        for pair in schedule:
            cur = packed.conjugate_adjacent(cur, pair, n_wires)
            if cur < best:
                best = cur
        return best


def is_canonical(word: int, n_wires: int) -> bool:
    """True iff ``word`` is the canonical representative of its class."""
    return canonical(word, n_wires) == word


def class_size(word: int, n_wires: int) -> int:
    """Number of distinct functions in the equivalence class of ``word``.

    At most ``2 * n!`` (48 for four wires); smaller for functions with
    relabeling symmetries or that equal a conjugate of their own inverse.
    """
    return len(equivalence_class(word, n_wires))


def find_conjugating_perm(
    source: int, target: int, n_wires: int
) -> "tuple[int, ...] | None":
    """A wire permutation taking ``source`` to ``target`` by conjugation,
    or ``None`` when the two are not conjugate.
    """
    for conj, wire_perm in conjugates_with_wire_perms(source, n_wires):
        if conj == target:
            return wire_perm
    return None
