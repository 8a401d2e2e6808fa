"""Breadth-first search over equivalence classes (paper Algorithm 2).

Starting from the identity, each level composes every known function of
size ``i - 1`` (and its inverse) with every generator, canonicalizes
the result, and keeps the classes not seen before: those have size
exactly ``i``.  The paper's generators are the NCT gates; §5 notes that
only this phase depends on the gate family, so the generators may be
any packed gate set closed under wire relabeling and inversion (a gate
library, or the layers of the depth search).  Two engines are provided:

* :func:`build_database` -- the production engine: chunked, numpy-
  vectorized, size-only storage (circuits are reconstructed by peeling).
* :func:`bfs_reference` -- a direct scalar transcription of the paper's
  Algorithm 2, including the per-representative witness gate and its
  first/last flag.  It is used as the ground truth in tests.

:func:`peel` reconstructs a circuit from any size table, reduced or
raw, one step at a time.

Correctness of expanding representatives and their inverses only: every
function g of size i factors as g = f·λ with size(f) = i - 1.  Writing
f = σ⁻¹ r σ (or σ⁻¹ r⁻¹ σ) for the canonical representative r of f's
class, conjugating the factorization by σ shows that some member of g's
class equals r·λ' (or r⁻¹·λ') for a generator λ' -- precisely the
candidates the BFS generates.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np
import numpy.typing as npt

from repro.core import equivalence, packed
from repro.core.gates import Gate, all_gates, gate_words
from repro.core.packed_np import canonical_np, compose_np, inverse_np
from repro.errors import SynthesisError
from repro.perf.trace import trace
from repro.synth.database import OptimalDatabase

Step = TypeVar("Step")


def build_database(
    n_wires: int,
    k: int,
    generators: "npt.ArrayLike | None" = None,
    chunk: int = 1 << 18,
    progress=None,
) -> OptimalDatabase:
    """Run the vectorized BFS up to size ``k`` and return the database.

    The stored sizes count generators.  The peel masks, ``peel_last_gate``
    and ``write_rdb`` assume the NCT library, so use them only on a
    database built with the default generators; a table over other
    generators is peeled with :func:`peel`.

    Args:
        n_wires: Wire count (2..4).
        k: Maximum circuit size to enumerate.
        generators: Packed words of the gate set, closed under wire
            relabeling and inversion; defaults to the NCT library in
            :func:`all_gates` order.
        chunk: Frontier chunk size for memory-bounded expansion.
        progress: Optional callback ``progress(level, n_new_classes)``.
    """
    if generators is None:
        generators = gate_words(n_wires)
    generator_words = np.asarray(generators, dtype=np.uint64)

    identity = packed.identity(n_wires)
    reps_by_size: list[np.ndarray] = [np.array([identity], dtype=np.uint64)]
    db = OptimalDatabase.from_reps(n_wires, 0, reps_by_size)
    table = db.table

    frontier = reps_by_size[0]
    with trace("bfs.build", n_wires=n_wires, k=k):
        for size in range(1, k + 1):
            with trace("bfs.level", level=size) as span:
                sources = np.unique(
                    np.concatenate([frontier, inverse_np(frontier, n_wires)])
                )
                fresh_pieces: list[np.ndarray] = []
                for start in range(0, sources.shape[0], chunk):
                    block = sources[start : start + chunk]
                    for gate_word in generator_words:
                        candidates = compose_np(block, gate_word, n_wires)
                        canon = np.unique(canonical_np(candidates, n_wires))
                        fresh = canon[~table.contains_batch(canon)]
                        if fresh.size:
                            table.insert_batch(fresh, np.uint8(size))
                            fresh_pieces.append(fresh)
                if fresh_pieces:
                    frontier = np.sort(np.concatenate(fresh_pieces))
                else:
                    frontier = np.empty(0, dtype=np.uint64)
                reps_by_size.append(frontier)
                if span is not None:
                    span.attrs["classes"] = int(frontier.shape[0])
            if progress is not None:
                progress(size, int(frontier.shape[0]))
            if frontier.shape[0] == 0:
                # The whole group is exhausted below k: pad the remaining
                # levels with empty arrays and stop searching.
                for _ in range(size + 1, k + 1):
                    reps_by_size.append(np.empty(0, dtype=np.uint64))
                break

    db.k = k
    db.reps_by_size = reps_by_size
    return db


def peel(
    word: int,
    size: int,
    steps: "Sequence[tuple[Step, int, int]]",
    size_of: "Callable[[int], int | None]",
    n_wires: int,
) -> "list[Step]":
    """The steps of a minimal circuit for ``word``, in application order.

    ``size_of`` measures a word in the table's unit (gates, layers or
    cost) and ``size`` is the measure of ``word``.  Each round strips,
    in the caller's order, the first ``(step, inverse_word, weight)``
    whose rest measures ``weight`` less: if f = rest·λ, then
    rest = f·λ⁻¹.  Raises :class:`SynthesisError` when no step reaches
    a smaller rest, which means ``size`` or the table is wrong.
    """
    out: list[Step] = []
    current = word
    remaining = size
    while remaining > 0:
        for step, inverse_word, weight in steps:
            if weight > remaining:
                continue
            rest = packed.compose(current, inverse_word, n_wires)
            if size_of(rest) == remaining - weight:
                out.append(step)
                current = rest
                remaining -= weight
                break
        else:
            raise SynthesisError(
                f"size table inconsistent: no step peels word {word:#x} "
                f"from {remaining} down"
            )
    out.reverse()
    return out


# ----------------------------------------------------------------------
# Scalar reference engine (faithful Algorithm 2, with witnesses)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Witness:
    """Per-representative reconstruction hint, as stored by the paper.

    ``gate`` is the first or last gate of a minimal circuit for the
    canonical representative; ``is_last`` tells which end it belongs to.
    """

    size: int
    gate: "Gate | None"
    is_last: bool


def bfs_reference(
    n_wires: int, k: int, gates: "list[Gate] | None" = None
) -> dict[int, Witness]:
    """Scalar BFS storing witness gates, transcribing Algorithm 2.

    Returns a dict mapping each canonical representative of size <= k to
    its :class:`Witness`.  Exponentially slower than
    :func:`build_database`; intended for tests and small parameters.
    """
    if gates is None:
        gates = all_gates(n_wires)
    gate_words = [(g, g.to_word(n_wires)) for g in gates]

    identity = packed.identity(n_wires)
    known: dict[int, Witness] = {
        identity: Witness(size=0, gate=None, is_last=True)
    }
    frontier = [identity]
    for size in range(1, k + 1):
        sources = set(frontier)
        sources.update(packed.inverse(f, n_wires) for f in frontier)
        new_reps: list[int] = []
        for f in sorted(sources):
            for gate, gate_word in gate_words:
                h = packed.compose(f, gate_word, n_wires)
                canon = equivalence.canonical(h, n_wires)
                if canon in known:
                    continue
                witness = _make_witness(h, canon, gate, size, n_wires)
                known[canon] = witness
                new_reps.append(canon)
        frontier = new_reps
        if not frontier:
            break
    return known


def _make_witness(
    h: int, canon: int, gate: Gate, size: int, n_wires: int
) -> Witness:
    """Translate the last gate of ``h`` into a witness for ``canon``.

    If ``canon`` is a conjugate of ``h`` by σ, the relabeled gate is the
    *last* gate of a minimal circuit for ``canon``; if ``canon`` is a
    conjugate of ``h⁻¹``, it is the *first* gate (paper Algorithm 2).
    """
    sigma = equivalence.find_conjugating_perm(h, canon, n_wires)
    if sigma is not None:
        return Witness(size=size, gate=gate.relabeled(sigma), is_last=True)
    h_inv = packed.inverse(h, n_wires)
    sigma = equivalence.find_conjugating_perm(h_inv, canon, n_wires)
    if sigma is None:
        raise AssertionError(
            "canonical representative is neither a conjugate of the "
            "function nor of its inverse"
        )
    return Witness(size=size, gate=gate.relabeled(sigma), is_last=False)


def reconstruct_from_witnesses(
    canon: int, witnesses: dict[int, Witness], n_wires: int
) -> list[Gate]:
    """Minimal circuit for a canonical representative, following witness
    gates exactly as the paper's Algorithm 1 fast path does.

    Returns the gate list in application order.
    """
    gates_front: list[Gate] = []
    gates_back: list[Gate] = []
    current = canon
    while True:
        witness = witnesses[current]
        if witness.size == 0:
            break
        gate = witness.gate
        gate_word = gate.to_word(n_wires)
        if witness.is_last:
            # current = rest·gate  =>  rest = current·gate (involution)
            rest = packed.compose(current, gate_word, n_wires)
            gates_back.insert(0, gate)
        else:
            # current = gate·rest  =>  rest = gate·current
            rest = packed.compose(gate_word, current, n_wires)
            gates_front.append(gate)
        expected = witness.size - 1
        rest_canon = equivalence.canonical(rest, n_wires)
        if witnesses[rest_canon].size != expected:
            raise AssertionError("witness chain inconsistent")
        # The remainder may only be *equivalent* to a stored representative;
        # continue the walk on the representative of the remainder's class,
        # keeping track is unnecessary because we only need sizes -- but to
        # emit actual gates we must stay on `rest` itself.  Peel `rest`
        # directly using sizes from the witness table.
        current = rest
        if rest != rest_canon:
            # Fall back to size-directed peeling for non-canonical remainders.
            sizes = {c: w.size for c, w in witnesses.items()}
            middle = _peel_with_sizes(rest, expected, sizes, n_wires)
            return gates_front + middle + gates_back
    return gates_front + gates_back


def _peel_with_sizes(
    word: int, size: int, sizes: dict[int, int], n_wires: int
) -> list[Gate]:
    """Peel a minimal circuit using a canon->size map only."""
    out: list[Gate] = []
    current = word
    remaining = size
    library = [(g, g.to_word(n_wires)) for g in all_gates(n_wires)]
    while remaining > 0:
        for gate, gate_word in library:
            rest = packed.compose(current, gate_word, n_wires)
            if sizes.get(equivalence.canonical(rest, n_wires)) == remaining - 1:
                out.insert(0, gate)
                current = rest
                remaining -= 1
                break
        else:
            raise AssertionError("size map inconsistent during peeling")
    return out
