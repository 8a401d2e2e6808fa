"""Plain breadth-first search (no symmetry reduction).

Prasad et al. (paper reference [13]) enumerated optimal 4-bit circuits by
straight BFS over *functions* -- no equivalence-class reduction -- reaching
26,000,000 circuits of up to 6 gates.  This module implements that
baseline so the value of the paper's ×48 reduction can be measured
head-to-head (states stored, time per level): compare
:func:`plain_bfs_counts` with the "Reduced Functions" column produced by
:func:`repro.synth.bfs.build_database`.  With the NOT/CNOT gates as its
generators, the same search enumerates the linear group of Table 5
(:mod:`repro.synth.linear`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.core import packed
from repro.core.gates import gate_words
from repro.core.packed_np import compose_np
from repro.hashing.table import LinearProbingTable


@dataclass
class PlainBfsResult:
    """Outcome of the non-reduced BFS.

    Attributes:
        n_wires: Wire count.
        k: Depth bound of the search.
        counts: ``counts[s]`` = number of *functions* of optimal size s
            (Table 4, middle column -- computed here without symmetry).
            It ends at the last non-empty level: below ``k`` when the
            search exhausted the group.
        table: Map function word -> optimal size (every function, not
            just class representatives).
    """

    n_wires: int
    k: int
    counts: list[int]
    table: LinearProbingTable

    def size_of(self, word: int) -> "int | None":
        """Optimal size of ``word`` when <= k, else None."""
        # repro: allow[unrouted-lookup] the plain-BFS table deliberately stores every raw function (no §3.2 reduction), so uncanonicalized keys are exact
        return self.table.get(word)

    @property
    def max_size(self) -> int:
        """The largest optimal size stored (10 for the 4-bit linear group)."""
        return len(self.counts) - 1

    @property
    def states_stored(self) -> int:
        """Total functions stored -- the baseline's memory footprint."""
        return len(self.table)


def plain_bfs(
    n_wires: int,
    k: int,
    generators: "npt.ArrayLike | None" = None,
    chunk: int = 1 << 18,
) -> PlainBfsResult:
    """BFS over raw functions up to size ``k``, stopping early at the
    first empty level.

    ``generators`` are the packed gate words, by default the NCT
    library.  Each chunk of the frontier is composed with every
    generator at once, then deduplicated, probed and inserted in one
    pass.  Memory grows with the *function* counts of Table 4 (×48
    versus the reduced engine), so useful depths are k <= 5 for n = 4 on
    commodity memory -- which is precisely the limitation the paper's
    symmetry reduction removes.
    """
    if generators is None:
        generators = gate_words(n_wires)
    generator_words = np.asarray(generators, dtype=np.uint64)
    identity = packed.identity(n_wires)
    table = LinearProbingTable(capacity_bits=10)
    table.insert(identity, 0)
    counts = [1]
    frontier = np.array([identity], dtype=np.uint64)
    for size in range(1, k + 1):
        fresh_pieces: list[np.ndarray] = []
        for start in range(0, frontier.shape[0], chunk):
            block = frontier[start : start + chunk, None]
            candidates = np.unique(compose_np(block, generator_words, n_wires))
            # repro: allow[unrouted-lookup] baseline BFS stores all raw functions; membership is checked on raw words by design
            fresh = candidates[~table.contains_batch(candidates)]
            if fresh.size:
                table.insert_batch(fresh, np.uint8(size))
                fresh_pieces.append(fresh)
        if not fresh_pieces:
            break
        frontier = np.concatenate(fresh_pieces)
        counts.append(int(frontier.shape[0]))
    return PlainBfsResult(n_wires=n_wires, k=k, counts=counts, table=table)


def plain_bfs_counts(n_wires: int, k: int) -> list[int]:
    """Just the per-size function counts (convenience for benchmarks)."""
    return plain_bfs(n_wires, k).counts
