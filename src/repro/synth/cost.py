"""Cost-aware optimal synthesis (paper Section 5, first extension).

The paper notes that "to account for different gate costs, one needs to
search for small circuits via increasing cost by one ... as opposed to
adding a gate to all maximal size optimal circuits."  This module
implements exactly that: a bucketed Dijkstra (uniform-cost search) over
equivalence classes, with integer per-gate costs.

The default cost model is the standard NCV quantum-cost table
(NOT = CNOT = 1, TOF = 5, TOF4 = 13), reflecting the paper's remark that
"generally, NOT is much simpler than CNOT, which in turn, is simpler
than Toffoli".  Circuits are peeled from the cost table by
:func:`repro.synth.bfs.peel` with each gate weighted by its cost.

The symmetry reduction remains sound because every cost model keyed on
the number of controls is invariant under wire relabeling and circuit
reversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import equivalence, packed
from repro.core.circuit import Circuit
from repro.core.gates import Gate, all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.synth.bfs import peel

#: Standard NCV quantum-cost per control count (Barenco et al. decompositions).
NCV_COST_BY_CONTROLS: dict[int, int] = {0: 1, 1: 1, 2: 5, 3: 13}

#: Uniform cost model -- makes cost-optimal equal gate-count-optimal.
UNIT_COST_BY_CONTROLS: dict[int, int] = {0: 1, 1: 1, 2: 1, 3: 1}


def gate_cost(gate: Gate, model: "dict[int, int] | None" = None) -> int:
    """Cost of one gate under a per-control-count model."""
    if model is None:
        model = NCV_COST_BY_CONTROLS
    return model[len(gate.controls)]


@dataclass
class CostDatabase:
    """Optimal *cost* (not gate count) per equivalence class, up to a bound.

    Attributes:
        n_wires: Wire count.
        max_cost: Exploration bound; classes costlier than this are absent.
        costs: Map canonical word -> minimal circuit cost.
        model: The per-control-count cost table used.
    """

    n_wires: int
    max_cost: int
    costs: dict[int, int]
    model: dict[int, int]

    def cost_of(self, word: int) -> "int | None":
        """Minimal cost of the function, or None when above the bound."""
        return self.costs.get(equivalence.canonical(word, self.n_wires))

    def counts_by_cost(self) -> dict[int, int]:
        """Number of equivalence classes per optimal cost (ablation data)."""
        histogram: dict[int, int] = {}
        for cost in self.costs.values():
            histogram[cost] = histogram.get(cost, 0) + 1
        return dict(sorted(histogram.items()))


def build_cost_database(
    n_wires: int,
    max_cost: int,
    model: "dict[int, int] | None" = None,
) -> CostDatabase:
    """Bucketed Dijkstra over equivalence classes by circuit cost.

    Buckets are processed in increasing cost; because every gate has
    positive cost, entries popped from bucket ``c`` are final (stale
    duplicates are skipped by comparing with the cost table).
    """
    import numpy as np

    from repro.core.packed_np import canonical_np, compose_np, inverse_np

    if model is None:
        model = NCV_COST_BY_CONTROLS
    if any(cost <= 0 for cost in model.values()):
        raise SynthesisError("gate costs must be positive integers")
    # Group gates by weight so each weight class is expanded in one
    # vectorized pass.
    by_weight: dict[int, list[int]] = {}
    for gate in all_gates(n_wires):
        by_weight.setdefault(gate_cost(gate, model), []).append(
            gate.to_word(n_wires)
        )
    weight_arrays = {
        weight: np.array(sorted(set(words)), dtype=np.uint64)
        for weight, words in by_weight.items()
    }

    identity = packed.identity(n_wires)
    costs: dict[int, int] = {identity: 0}
    buckets: dict[int, list[int]] = {0: [identity]}
    for cost in range(max_cost + 1):
        bucket = buckets.pop(cost, None)
        if not bucket:
            continue
        live = [canon for canon in set(bucket) if costs.get(canon) == cost]
        if not live:
            continue
        reps = np.array(sorted(live), dtype=np.uint64)
        sources = np.unique(np.concatenate([reps, inverse_np(reps, n_wires)]))
        for weight, gate_words in weight_arrays.items():
            new_cost = cost + weight
            if new_cost > max_cost:
                continue
            for gate_word in gate_words:
                candidates = np.unique(
                    canonical_np(compose_np(sources, gate_word, n_wires), n_wires)
                )
                for canon_candidate in candidates.tolist():
                    known = costs.get(canon_candidate)
                    if known is not None and known <= new_cost:
                        continue
                    costs[canon_candidate] = new_cost
                    buckets.setdefault(new_cost, []).append(canon_candidate)
    return CostDatabase(
        n_wires=n_wires, max_cost=max_cost, costs=costs, model=dict(model)
    )


class CostOptimalSynthesizer:
    """Exact minimum-cost synthesis for functions within the cost bound.

    Note the scaling difference from gate-count search: the number of
    classes grows with *cost*, so NCV bound C roughly corresponds to
    gate-count C when circuits are CNOT-dominated but only C/5 when
    Toffoli-dominated.
    """

    def __init__(
        self,
        n_wires: int = 4,
        max_cost: int = 12,
        model: "dict[int, int] | None" = None,
    ):
        self.n_wires = n_wires
        self.max_cost = max_cost
        self.model = dict(model) if model else dict(NCV_COST_BY_CONTROLS)
        self._db: "CostDatabase | None" = None
        self._steps = [
            (g, g.to_word(n_wires), gate_cost(g, self.model))
            for g in all_gates(n_wires)
        ]

    @property
    def database(self) -> CostDatabase:
        if self._db is None:
            self._db = build_cost_database(
                self.n_wires, self.max_cost, self.model
            )
        return self._db

    def cost(self, spec) -> int:
        """Minimal circuit cost of ``spec`` under the model."""
        perm = Permutation.coerce(spec, self.n_wires)
        cost = self.database.cost_of(perm.word)
        if cost is None:
            raise SynthesisError(
                f"function cost exceeds the search bound {self.max_cost}"
            )
        return cost

    def synthesize(self, spec) -> Circuit:
        """A provably minimum-cost circuit (peeled from the cost table)."""
        perm = Permutation.coerce(spec, self.n_wires)
        total = self.cost(perm)
        gates = peel(
            perm.word, total, self._steps, self.database.cost_of, self.n_wires
        )
        circuit = Circuit(gates=tuple(gates), n_wires=self.n_wires)
        if not circuit.implements(perm):
            raise AssertionError("cost-optimal peel produced a wrong circuit")
        return circuit
