"""Wide (n >= 5) optimal search (paper Section 5, last extension).

"A simple calculation shows that using CS1 it is possible to compute
all optimal 5-bit circuits with up to six gates."  The packed 64-bit
representation caps at four wires, so this module provides an
array-based engine for wider functions: a permutation on ``n`` wires is
a row of ``2^n`` uint8 values, a gate application is one numpy gather
(``gate_table[f]``), and breadth-first search proceeds exactly as in
Algorithm 2 minus the symmetry reduction (the plain-BFS regime of
Prasad et al., which is what fits a single-core budget at n = 5).

The engine is width-generic; on n = 3/4 it reproduces the packed
engine's function counts, which the tests use as cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gates import Gate, all_gates
from repro.errors import SynthesisError


def _gate_tables(n_wires: int) -> tuple[list[Gate], np.ndarray]:
    """The NCT library on ``n_wires`` wires as value-table rows."""
    gates = all_gates(n_wires)
    size = 1 << n_wires
    tables = np.empty((len(gates), size), dtype=np.uint8)
    for row, gate in enumerate(gates):
        for x in range(size):
            tables[row, x] = gate.apply(x)
    return gates, tables


@dataclass
class WideBfsResult:
    """Plain BFS over wide reversible functions.

    Attributes:
        n_wires: Wire count (any; intended for >= 5).
        k: Depth bound of the search.
        counts: Functions of each optimal size 0..k, ending at the last
            non-empty level when the search exhausted the group.
        known: Map ``bytes(truth table) -> optimal size``.
    """

    n_wires: int
    k: int
    counts: list[int]
    known: dict[bytes, int]

    def size_of(self, values) -> "int | None":
        """Optimal size of a function given as its value sequence."""
        row = np.asarray(list(values), dtype=np.uint8)
        return self.known.get(row.tobytes())

    @property
    def states_stored(self) -> int:
        return len(self.known)


def wide_bfs(
    n_wires: int, k: int, max_frontier: "int | None" = 4_000_000
) -> WideBfsResult:
    """Breadth-first enumeration of all functions of size <= k.

    ``max_frontier`` guards memory: the search stops early (raising
    ``SynthesisError``) if a level would exceed it.  At n = 5 the level
    sizes are 80 / ~3.1e3 / ~2.4e5 / ~1.9e7..., so k = 3 is comfortable
    and k = 4 is the practical single-machine limit.
    """
    size = 1 << n_wires
    _, tables = _gate_tables(n_wires)

    identity = np.arange(size, dtype=np.uint8)
    known: dict[bytes, int] = {identity.tobytes(): 0}
    counts = [1]
    frontier = identity.reshape(1, size)
    for depth in range(1, k + 1):
        expected = frontier.shape[0] * tables.shape[0]
        if max_frontier is not None and expected > max_frontier:
            raise SynthesisError(
                f"level {depth} would expand {expected:,} candidates "
                f"(> max_frontier={max_frontier:,}); lower k"
            )
        # Apply every gate after every frontier function: one gather per
        # gate over the whole frontier.
        candidate_blocks = [tables[g][frontier] for g in range(len(tables))]
        candidates = np.concatenate(candidate_blocks, axis=0)
        candidates = np.unique(candidates, axis=0)
        fresh_rows = []
        for row in candidates:
            key = row.tobytes()
            if key not in known:
                known[key] = depth
                fresh_rows.append(row)
        if not fresh_rows:
            break
        frontier = np.stack(fresh_rows)
        counts.append(len(fresh_rows))
    return WideBfsResult(n_wires=n_wires, k=k, counts=counts, known=known)


def wide_synthesize(result: WideBfsResult, values) -> Circuit:
    """A provably minimal circuit for a wide function of size <= k.

    Peels the last gate: if ``f = rest·λ`` then ``rest = λ(f(·))``,
    which must sit exactly one level lower.
    """
    gates, tables = _gate_tables(result.n_wires)
    row = np.asarray(list(values), dtype=np.uint8)
    size = result.known.get(row.tobytes())
    if size is None:
        raise SynthesisError(
            f"function is beyond the BFS depth k={result.k}"
        )
    chosen: list[Gate] = []
    remaining = size
    while remaining > 0:
        for index, gate in enumerate(gates):
            rest = tables[index][row]
            if result.known.get(rest.tobytes()) == remaining - 1:
                chosen.append(gate)
                row = rest
                remaining -= 1
                break
        else:
            raise SynthesisError("wide BFS table inconsistent")
    chosen.reverse()
    circuit = Circuit(gates=tuple(chosen), n_wires=result.n_wires)
    if circuit.truth_table() != list(values):
        raise AssertionError("wide synthesis produced a wrong circuit")
    return circuit
