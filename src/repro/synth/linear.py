"""Optimal synthesis of linear reversible circuits (paper Section 4.3).

Linear reversible functions (computable by NOT and CNOT gates) form a
group of 322,560 elements for n = 4 -- small enough to enumerate
exhaustively.  The paper synthesized optimal circuits for all of them in
under two seconds and reports the size distribution in Table 5; the
hardest 138 functions require 10 gates.

This module runs the raw BFS of :func:`repro.synth.plain_bfs.plain_bfs`
with the 16-gate NOT/CNOT library as its generators until the group is
exhausted, producing both the exact Table 5 distribution and, via
:func:`repro.synth.bfs.peel`, an optimal circuit for any linear
function.  No symmetry reduction is applied (the group is tiny), which
also gives the tests an independent cross-check of the reduced engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gates import gate_words, linear_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.bfs import peel
from repro.synth.plain_bfs import PlainBfsResult, plain_bfs


def build_linear_database(n_wires: int = 4) -> PlainBfsResult:
    """Exhaustive BFS over the affine group with NOT and CNOT gates.

    Its ``counts`` are Table 5 for n = 4 and its ``states_stored`` is the
    group order.
    """
    # 64 levels is far above the group's diameter (10 gates on four
    # wires); the search stops at its first empty level.
    generators = gate_words(n_wires, max_controls=1)
    return plain_bfs(n_wires, 64, generators=generators)


class LinearSynthesizer:
    """Optimal NOT/CNOT synthesis for linear reversible functions.

    Builds the exhaustive database on first use (about a second for
    n = 4) and synthesizes by gate peeling.
    """

    def __init__(self, n_wires: int = 4):
        self.n_wires = n_wires
        self._db: "PlainBfsResult | None" = None
        self._steps = [(g, g.to_word(n_wires), 1) for g in linear_gates(n_wires)]

    @property
    def database(self) -> PlainBfsResult:
        if self._db is None:
            self._db = build_linear_database(self.n_wires)
        return self._db

    def size(self, spec) -> int:
        """Optimal NOT/CNOT gate count for a linear function."""
        perm = Permutation.coerce(spec, self.n_wires)
        size = self.database.size_of(perm.word)
        if size is None:
            raise SynthesisError(
                f"{perm.spec()} is not a linear reversible function"
            )
        return size

    def synthesize(self, spec) -> Circuit:
        """A provably minimal NOT/CNOT circuit for a linear function."""
        perm = Permutation.coerce(spec, self.n_wires)
        size = self.size(perm)
        gates = peel(
            perm.word, size, self._steps, self.database.size_of, self.n_wires
        )
        return Circuit(gates=tuple(gates), n_wires=self.n_wires)

    def hardest_functions(self) -> list[Permutation]:
        """All linear functions attaining the maximal optimal size.

        For n = 4 these are the 138 ten-gate functions of Table 5; the
        paper exhibits one of them, a,b,c,d -> b⊕1, a⊕c⊕1, d⊕1, a.
        """
        db = self.database
        keys, values = db.table.items()
        hardest = keys[values == db.max_size]
        return [Permutation(int(w), self.n_wires) for w in np.sort(hardest)]
