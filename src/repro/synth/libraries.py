"""Alternative gate libraries and size tables over them.

The paper's search is defined for the NCT library, but Section 5 points
out that only the first phase (circuit generation) depends on the gate
family.  Related work uses richer families: Yang et al. (the paper's
reference [17]) synthesize with NOT, CNOT and *Peres* gates; the RevLib
community also uses SWAP and Fredkin (controlled-SWAP).  This module
defines such libraries and hands their gate words to the reduced BFS
(:func:`repro.synth.bfs.build_database`) as its generators, which is
sound for any finite gate set that is

* closed under simultaneous input/output relabeling (so the conjugation
  symmetry stays sound), and
* closed under inversion (so the circuit-reversal symmetry stays sound;
  Peres is not an involution, hence its inverse joins the library).

Circuits come from :func:`repro.synth.bfs.peel` over the library's
gates.  Because gates here need not be single multiple-control
Toffolis, results are returned as label sequences rather than
:class:`Circuit` objects.

Provided libraries (n = 3 or 4 wires):

* ``nct``    -- the paper's NOT/CNOT/TOF/TOF4 family (reference point).
* ``ncts``   -- NCT plus SWAP.
* ``nctsf``  -- NCT plus SWAP and Fredkin.
* ``ncp``    -- NOT, CNOT, Peres, inverse Peres (Yang et al.'s family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from repro.core import equivalence, packed
from repro.core.gates import all_gates
from repro.errors import InvalidGateError, SynthesisError
from repro.synth.bfs import build_database, peel
from repro.synth.database import OptimalDatabase


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
    """Optimal sizes over one library: the reduced BFS database built
    with the library's gate words as generators.

    Attributes:
        library: The gate set searched over.
        database: Canonical word -> optimal size over this library, and
            the representatives per size.  Its peel masks assume NCT;
            :meth:`peel_labels` peels over the library instead.
    """

    library: GateLibrary
    database: OptimalDatabase

    @property
    def complete(self) -> bool:
        """True when the BFS exhausted the whole group within its depth."""
        return self.database.reps_by_size[-1].shape[0] == 0

    def size_of(self, word: int) -> "int | None":
        canon = equivalence.canonical(word, self.library.n_wires)
        return self.database.table.get(canon)

    def peel_labels(self, word: int) -> list[str]:
        """A minimal label sequence for a function within the table.

        Peeling removes the *last* gate: if f = rest·g then
        rest = f·g⁻¹ must sit one level lower.
        """
        size = self.size_of(word)
        if size is None:
            raise SynthesisError(
                f"function exceeds the {self.library.name} table depth "
                f"{self.database.k}"
            )
        steps = [(g.label, g.inverse_word, 1) for g in self.library.gates]
        return peel(word, size, steps, self.size_of, self.library.n_wires)


def build_size_table(library: GateLibrary, k: int) -> LibrarySizeTable:
    """Generalized Algorithm 2 over an arbitrary symmetry-closed library."""
    database = build_database(
        library.n_wires, k, generators=library.gate_words
    )
    return LibrarySizeTable(library=library, database=database)


def full_distribution(library: GateLibrary) -> list[int]:
    """Exact per-size *function* counts over the whole group (small n).

    Runs the generalized BFS to exhaustion and expands class sizes; for
    n = 3 this is the library analogue of the paper's Table 4.
    """
    table = build_size_table(library, 64)
    if not table.complete:
        raise SynthesisError("group not exhausted; raise k")
    # Levels past the largest size are empty: drop their zero counts.
    counts = [count for count in table.database.function_counts() if count]
    if sum(counts) != math.factorial(1 << library.n_wires):
        raise SynthesisError("distribution does not cover the group")
    return counts
