"""Alternative gate libraries and size tables over them.

The paper's search is defined for the NCT library, but Section 5 points
out that only the first phase (circuit generation) depends on the gate
family.  Related work uses richer families: Yang et al. (the paper's
reference [17]) synthesize with NOT, CNOT and *Peres* gates; the RevLib
community also uses SWAP and Fredkin (controlled-SWAP).  This module
generalizes Algorithm 2 to any finite gate set that is

* closed under simultaneous input/output relabeling (so the conjugation
  symmetry stays sound), and
* closed under inversion (so the circuit-reversal symmetry stays sound;
  Peres is not an involution, hence its inverse joins the library).

Because gates here need not be single multiple-control Toffolis, results
are returned as label sequences rather than :class:`Circuit` objects.

Provided libraries (n = 3 or 4 wires):

* ``nct``    -- the paper's NOT/CNOT/TOF/TOF4 family (reference point).
* ``ncts``   -- NCT plus SWAP.
* ``nctsf``  -- NCT plus SWAP and Fredkin.
* ``ncp``    -- NOT, CNOT, Peres, inverse Peres (Yang et al.'s family).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from repro.core import equivalence, packed
from repro.core.gates import all_gates
from repro.core.packed_np import canonical_np, compose_np, inverse_np
from repro.errors import InvalidGateError, SynthesisError
from repro.hashing.table import LinearProbingTable


@dataclass(frozen=True)
class LibraryGate:
    """One gate of a generalized library.

    Attributes:
        label: Printable name, e.g. ``PERES(a,b,c)``.
        word: Packed permutation of the gate.
        inverse_word: Packed permutation of the gate's inverse.
    """

    label: str
    word: int
    inverse_word: int

    @property
    def is_involution(self) -> bool:
        return self.word == self.inverse_word


def _word_from_map(mapping, n_wires: int) -> int:
    word = 0
    for x in range(packed.num_states(n_wires)):
        word |= mapping(x) << (4 * x)
    return word


def _swap_gate(i: int, j: int, n_wires: int) -> LibraryGate:
    from repro.core.bitops import swap_bits
    from repro.core.gates import WIRE_NAMES

    word = _word_from_map(lambda x: swap_bits(x, i, j), n_wires)
    label = f"SWAP({WIRE_NAMES[i]},{WIRE_NAMES[j]})"
    return LibraryGate(label=label, word=word, inverse_word=word)


def _fredkin_gate(control: int, i: int, j: int, n_wires: int) -> LibraryGate:
    from repro.core.bitops import swap_bits
    from repro.core.gates import WIRE_NAMES

    def apply(x: int) -> int:
        if (x >> control) & 1:
            return swap_bits(x, i, j)
        return x

    word = _word_from_map(apply, n_wires)
    label = (
        f"FRED({WIRE_NAMES[control]},{WIRE_NAMES[i]},{WIRE_NAMES[j]})"
    )
    return LibraryGate(label=label, word=word, inverse_word=word)


def _peres_gates(a: int, b: int, c: int, n_wires: int) -> tuple[LibraryGate, LibraryGate]:
    """The Peres gate P(a,b,c): b ^= a; c ^= ab  -- and its inverse."""
    from repro.core.gates import WIRE_NAMES

    def forward(x: int) -> int:
        a_bit = (x >> a) & 1
        b_bit = (x >> b) & 1
        # c flips on the *original* a AND b, then b flips on a.
        if a_bit & b_bit:
            x ^= 1 << c
        if a_bit:
            x ^= 1 << b
        return x

    word = _word_from_map(forward, n_wires)
    inverse_word = packed.inverse(word, n_wires)
    names = f"{WIRE_NAMES[a]},{WIRE_NAMES[b]},{WIRE_NAMES[c]}"
    return (
        LibraryGate(label=f"PERES({names})", word=word, inverse_word=inverse_word),
        LibraryGate(
            label=f"IPERES({names})", word=inverse_word, inverse_word=word
        ),
    )


class GateLibrary:
    """A finite, symmetry-closed gate set for the generalized search.

    Closure under inversion and wire relabeling is validated at
    construction; violations raise :class:`InvalidGateError`.
    """

    def __init__(self, name: str, n_wires: int, gates: list[LibraryGate]):
        self.name = name
        self.n_wires = n_wires
        self.gates = list(gates)
        words = {g.word for g in self.gates}
        if len(words) != len(self.gates):
            raise InvalidGateError(f"library {name} has duplicate gates")
        for gate in self.gates:
            if gate.inverse_word not in words:
                raise InvalidGateError(
                    f"library {name} is not closed under inversion: "
                    f"{gate.label}"
                )
            for pair in range(n_wires - 1):
                conjugated = packed.conjugate_adjacent(gate.word, pair, n_wires)
                if conjugated not in words:
                    raise InvalidGateError(
                        f"library {name} is not closed under relabeling: "
                        f"{gate.label}"
                    )
        self.gate_words = np.array(
            sorted(words), dtype=np.uint64
        )

    def __len__(self) -> int:
        return len(self.gates)


def nct(n_wires: int) -> GateLibrary:
    """The paper's NCT library as a :class:`GateLibrary`."""
    gates = [
        LibraryGate(
            label=str(g), word=g.to_word(n_wires), inverse_word=g.to_word(n_wires)
        )
        for g in all_gates(n_wires)
    ]
    return GateLibrary("NCT", n_wires, gates)


def ncts(n_wires: int) -> GateLibrary:
    """NCT plus all SWAP gates."""
    library = nct(n_wires)
    gates = list(library.gates)
    for i, j in combinations(range(n_wires), 2):
        gates.append(_swap_gate(i, j, n_wires))
    return GateLibrary("NCTS", n_wires, gates)


def nctsf(n_wires: int) -> GateLibrary:
    """NCT plus SWAP and Fredkin (controlled-SWAP) gates."""
    library = ncts(n_wires)
    gates = list(library.gates)
    for control in range(n_wires):
        others = [w for w in range(n_wires) if w != control]
        for i, j in combinations(others, 2):
            gates.append(_fredkin_gate(control, i, j, n_wires))
    return GateLibrary("NCTSF", n_wires, gates)


def ncp(n_wires: int) -> GateLibrary:
    """NOT, CNOT, Peres and inverse-Peres (Yang et al.'s family)."""
    gates = [
        LibraryGate(
            label=str(g), word=g.to_word(n_wires), inverse_word=g.to_word(n_wires)
        )
        for g in all_gates(n_wires, max_controls=1)
    ]
    for a, b in permutations(range(n_wires), 2):
        for c in range(n_wires):
            if c in (a, b):
                continue
            forward, backward = _peres_gates(a, b, c, n_wires)
            gates.append(forward)
            gates.append(backward)
    return GateLibrary("NCP", n_wires, gates)


STANDARD_LIBRARIES = {
    "nct": nct,
    "ncts": ncts,
    "nctsf": nctsf,
    "ncp": ncp,
}


@dataclass
class LibrarySizeTable:
    """Per-library analogue of :class:`repro.synth.database.OptimalDatabase`.

    Attributes:
        library: The gate set searched over.
        k: Depth reached.
        table: Canonical word -> optimal size over this library.
        reduced_counts: Equivalence classes per size.
        complete: True when the BFS exhausted the whole group below k.
    """

    library: GateLibrary
    k: int
    table: LinearProbingTable
    reduced_counts: list[int]
    complete: bool

    def size_of(self, word: int) -> "int | None":
        canon = equivalence.canonical(word, self.library.n_wires)
        return self.table.get(canon)

    def peel_labels(self, word: int) -> list[str]:
        """A minimal label sequence for a function within the table.

        Peeling removes the *last* gate: if f = rest·g then
        rest = f·g⁻¹ must sit one level lower.
        """
        n = self.library.n_wires
        size = self.size_of(word)
        if size is None:
            raise SynthesisError(
                f"function exceeds the {self.library.name} table depth {self.k}"
            )
        labels: list[str] = []
        current = word
        remaining = size
        while remaining > 0:
            for gate in self.library.gates:
                rest = packed.compose(current, gate.inverse_word, n)
                if self.size_of(rest) == remaining - 1:
                    labels.append(gate.label)
                    current = rest
                    remaining -= 1
                    break
            else:
                raise SynthesisError("library size table inconsistent")
        labels.reverse()
        return labels


def build_size_table(
    library: GateLibrary, k: int, chunk: int = 1 << 18
) -> LibrarySizeTable:
    """Generalized Algorithm 2 over an arbitrary symmetry-closed library."""
    n = library.n_wires
    identity = packed.identity(n)
    table = LinearProbingTable(capacity_bits=10)
    table.insert(identity, 0)
    counts = [1]
    frontier = np.array([identity], dtype=np.uint64)
    complete = False
    for size in range(1, k + 1):
        sources = np.unique(np.concatenate([frontier, inverse_np(frontier, n)]))
        fresh_pieces: list[np.ndarray] = []
        for start in range(0, sources.shape[0], chunk):
            block = sources[start : start + chunk]
            for gate_word in library.gate_words:
                candidates = compose_np(block, gate_word, n)
                canon = np.unique(canonical_np(candidates, n))
                fresh = canon[~table.contains_batch(canon)]
                if fresh.size:
                    table.insert_batch(fresh, np.uint8(size))
                    fresh_pieces.append(fresh)
        if not fresh_pieces:
            complete = True
            break
        frontier = np.concatenate(fresh_pieces)
        counts.append(int(frontier.shape[0]))
    return LibrarySizeTable(
        library=library,
        k=k,
        table=table,
        reduced_counts=counts,
        complete=complete,
    )


def full_distribution(library: GateLibrary) -> list[int]:
    """Exact per-size *function* counts over the whole group (small n).

    Runs the generalized BFS to exhaustion and expands class sizes; for
    n = 3 this is the library analogue of the paper's Table 4.
    """
    import math

    from repro.core.packed_np import class_sizes_np

    table = build_size_table(library, 64)
    if not table.complete:
        raise SynthesisError("group not exhausted; raise k")
    keys, values = table.table.items()
    counts = [0] * len(table.reduced_counts)
    for size in range(len(counts)):
        members = keys[values == size]
        if members.size:
            counts[size] = int(class_sizes_np(members, library.n_wires).sum())
    if sum(counts) != math.factorial(1 << library.n_wires):
        raise SynthesisError("distribution does not cover the group")
    return counts
