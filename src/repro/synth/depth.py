"""Depth-optimal synthesis (paper Section 5, second extension).

"To optimize depth, one needs to consider a different family of gates,
where, for instance, sequence NOT(a) CNOT(b,c) is counted as a single
gate."  Concretely: a *layer* is a non-empty set of NCT gates with
pairwise disjoint wire support, all of which fire simultaneously; the
depth of a circuit is the minimal number of layers.

This module enumerates all layers (103 on four wires) and hands their
words to the symmetry-reduced BFS (:func:`repro.synth.bfs.build_database`)
as its generators, so a class's stored size is its depth; circuits come
from :func:`repro.synth.bfs.peel` over the layers in :func:`all_layers`
order.  Layers are products of commuting involutions and the layer set
is closed under wire relabeling, so the canonical-representative
reduction remains sound.
"""

from __future__ import annotations

from repro.core import packed
from repro.core.circuit import Circuit
from repro.core.gates import Gate, all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.bfs import build_database, peel
from repro.synth.database import OptimalDatabase


def all_layers(n_wires: int) -> list[tuple[Gate, ...]]:
    """All non-empty sets of gates with pairwise disjoint support.

    Gates within a layer are sorted (deterministic order).  For n = 4 the
    NCT library yields 103 layers; single-gate layers come first.
    """
    library = all_gates(n_wires)
    layers: list[tuple[Gate, ...]] = []

    def extend(start: int, chosen: list[Gate], used: frozenset[int]) -> None:
        for idx in range(start, len(library)):
            gate = library[idx]
            if used & gate.support:
                continue
            layers.append(tuple(chosen + [gate]))
            extend(idx + 1, chosen + [gate], used | gate.support)

    extend(0, [], frozenset())
    layers.sort(key=lambda layer: (len(layer), layer))
    return layers


def layer_word(layer: tuple[Gate, ...], n_wires: int) -> int:
    """Packed permutation of a layer (order irrelevant: disjoint support)."""
    word = packed.identity(n_wires)
    for gate in layer:
        word = packed.compose(word, gate.to_word(n_wires), n_wires)
    return word


def build_depth_database(n_wires: int, max_depth: int) -> OptimalDatabase:
    """Symmetry-reduced BFS where one step appends a whole layer: the
    database's sizes are optimal depths."""
    layer_words = [layer_word(layer, n_wires) for layer in all_layers(n_wires)]
    return build_database(n_wires, max_depth, generators=layer_words)


class DepthOptimalSynthesizer:
    """Exact minimum-depth synthesis for functions within the depth bound."""

    def __init__(self, n_wires: int = 4, max_depth: int = 4):
        self.n_wires = n_wires
        self.max_depth = max_depth
        self._db: "OptimalDatabase | None" = None
        self._layers = [
            (layer, layer_word(layer, n_wires), 1)
            for layer in all_layers(n_wires)
        ]

    @property
    def database(self) -> OptimalDatabase:
        if self._db is None:
            self._db = build_depth_database(self.n_wires, self.max_depth)
        return self._db

    def depth(self, spec) -> int:
        """Minimal circuit depth of ``spec``."""
        perm = Permutation.coerce(spec, self.n_wires)
        depth = self.database.size_of(perm.word)
        if depth is None:
            raise SynthesisError(
                f"function depth exceeds the search bound {self.max_depth}"
            )
        return depth

    def synthesize(self, spec) -> Circuit:
        """A provably depth-minimal circuit (layers flattened left-to-right).

        The returned circuit's :meth:`Circuit.depth` equals
        :meth:`depth` of the specification.
        """
        perm = Permutation.coerce(spec, self.n_wires)
        total = self.depth(perm)
        layers = peel(
            perm.word, total, self._layers, self.database.size_of, self.n_wires
        )
        gates = tuple(gate for layer in layers for gate in layer)
        circuit = Circuit(gates=gates, n_wires=self.n_wires)
        if not circuit.implements(perm):
            raise AssertionError("depth-optimal peel produced a wrong circuit")
        return circuit
