"""Meet-in-the-middle optimal search (paper Algorithm 1).

Given a database of all classes of size <= k and the lists ``A_i`` of
*all* functions of size exactly ``i`` (i <= m), any function of size
s <= L = k + m is synthesized minimally:

* if size(f) <= k, the minimal circuit is peeled directly from the
  database;
* otherwise f = u·h with size(u) = i and size(h) <= k, so scanning the
  inverse-closed list ``A_i`` for the smallest ``i`` such that some
  v ∈ A_i makes size(v·f) <= k yields a provably minimal split
  (u = v⁻¹; see the correctness argument in the module tests and in
  Section 3.1 of the paper).

The list scan is fully vectorized: one numpy pass composes f with the
whole list and sizes the results with one ``sizes_batch`` call, which
drops most misses by a relabeling-invariant signature before it
canonicalizes (48 variants folded with element-wise minima) and
batch-probes the hash table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import packed
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.packed_np import compose_np, expand_classes_np
from repro.errors import SizeLimitExceededError
from repro.perf.trace import trace
from repro.synth.database import OptimalDatabase


def peel_minimal_circuit(
    word: int, db: OptimalDatabase, size: "int | None" = None
) -> Circuit:
    """Minimal circuit for a function of size <= k, by gate peeling.

    Repeatedly finds a gate that is the last gate of some minimal circuit
    (one must exist) and strips it.  ``size`` is the optimal size of
    ``word`` when the caller already knows it; otherwise it is looked up,
    and ``SizeLimitExceededError`` is raised when the function is not in
    the database.
    """
    if size is None:
        size = db.size_of(word)
    if size is None:
        raise SizeLimitExceededError(
            f"function of size > {db.k} cannot be peeled directly",
            lower_bound=db.k + 1,
        )
    with trace("search.peel", size=size):
        gates: list[Gate] = []
        current = word
        for remaining in range(size, 0, -1):
            gate, current = db.peel_last_gate(current, remaining)
            gates.append(gate)
        gates.reverse()
        return Circuit(gates=tuple(gates), n_wires=db.n_wires)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one synthesis query.

    Attributes:
        circuit: A minimal circuit for the query function.
        size: Its gate count (the optimal size).
        lists_scanned: How many lists ``A_i`` were composed against the
            query before the split was found (0 for the fast path).
        candidates_tested: Total list entries composed and looked up.
    """

    circuit: Circuit
    size: int
    lists_scanned: int
    candidates_tested: int


class MeetInTheMiddleSearch:
    """Algorithm 1: optimal synthesis for functions of size <= k + m.

    Args:
        db: The BFS database (size <= k).
        lists: ``lists[i - 1]`` holds all functions of size exactly ``i``;
            build them with :meth:`build_lists`.
    """

    def __init__(self, db: OptimalDatabase, lists: "list[np.ndarray] | None" = None):
        self.db = db
        self.lists = lists if lists is not None else []
        for i, lst in enumerate(self.lists, start=1):
            if lst.dtype != np.uint64:
                raise TypeError(f"list A_{i} must be uint64")

    @staticmethod
    def build_lists(db: OptimalDatabase, max_list_size: int) -> list[np.ndarray]:
        """Materialize ``A_1 .. A_max_list_size`` from the database.

        Each ``A_i`` is produced by expanding the equivalence classes of
        the stored canonical representatives of size ``i``; the result is
        sorted, duplicate-free, and closed under inversion.
        """
        if max_list_size > db.k:
            raise ValueError(
                f"lists of size {max_list_size} exceed database depth k={db.k}"
            )
        return [
            expand_classes_np(db.reps_by_size[i], db.n_wires)
            for i in range(1, max_list_size + 1)
        ]

    @property
    def max_size(self) -> int:
        """The largest size L this search can synthesize (k + m)."""
        return self.db.k + len(self.lists)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def minimal_circuit(self, word: int, cancel=None) -> Circuit:
        """A provably minimal circuit for ``word``; raises
        :class:`SizeLimitExceededError` when size > L."""
        return self.search(word, cancel=cancel).circuit

    def size_of(
        self, word: int, cancel=None, max_size: "int | None" = None
    ) -> int:
        """Optimal size of ``word`` (without reconstructing the circuit).

        ``max_size`` (default and at most L) is the largest size worth
        proving: the scan covers only A_1..A_{max_size-k}, and a
        function larger than ``max_size`` raises
        :class:`SizeLimitExceededError` with ``lower_bound = max_size +
        1``.  A smaller function is found at the same list and the same
        first hit as by the full scan.
        """
        limit = self.max_size
        if max_size is not None:
            limit = min(max_size, limit)
        fast = self.db.size_of(word)
        if fast is None:
            i, _v, h_size, _tested = self._scan_lists(
                word, cancel=cancel, max_size=limit
            )
            if i is not None:
                return i + h_size
        elif fast <= limit:
            return fast
        raise SizeLimitExceededError(
            f"function requires more than {limit} gates",
            lower_bound=limit + 1,
        )

    def search(self, word: int, cancel=None) -> SearchOutcome:
        """Full query returning the circuit plus search statistics.

        ``cancel`` is an optional zero-argument cooperative checkpoint
        (typically a bound ``CancelToken.checkpoint``): it is invoked
        between list scans and may abort the query by raising.  The
        scan itself never catches what it raises.
        """
        with trace("search.query"):
            return self._search(word, cancel=cancel)

    def _search(self, word: int, cancel=None) -> SearchOutcome:
        n = self.db.n_wires
        fast = self.db.size_of(word)
        if fast is not None:
            circuit = peel_minimal_circuit(word, self.db, fast)
            return SearchOutcome(
                circuit=circuit, size=fast, lists_scanned=0, candidates_tested=0
            )
        i, v, h_size, tested = self._scan_lists(word, cancel=cancel)
        if i is None:
            raise SizeLimitExceededError(
                f"function requires more than {self.max_size} gates "
                f"(proven by exhausted search)",
                lower_bound=self.max_size + 1,
            )
        # word = u·h with u = v⁻¹ of size i and h = v·word of size h_size.
        u = packed.inverse(v, n)
        h = packed.compose(v, word, n)
        head = peel_minimal_circuit(u, self.db, i)
        tail = peel_minimal_circuit(h, self.db, h_size)
        circuit = head.then(tail)
        if circuit.gate_count != i + h_size:
            raise AssertionError("reconstructed circuit has unexpected size")
        return SearchOutcome(
            circuit=circuit,
            size=i + h_size,
            lists_scanned=i,
            candidates_tested=tested,
        )

    def prove_lower_bound(self, word: int, cancel=None) -> int:
        """Exhaust the search and return the proven lower bound.

        Returns size(word) when it is within reach, else ``L + 1`` (the
        failure of the exhaustive scan proves size > L, paper Section 4.4's
        argument for oc7).
        """
        try:
            return self.size_of(word, cancel=cancel)
        except SizeLimitExceededError as exc:
            return exc.lower_bound

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan_lists(self, word: int, cancel=None, max_size: "int | None" = None):
        """Scan A_1, A_2, ... for the smallest split; returns
        ``(i, v, h_size, candidates_tested)`` or ``(None, None, None, t)``.

        ``max_size`` stops the scan after A_{max_size-k}: a function
        found there has size at most ``max_size``.

        ``cancel`` (when given) runs before each list is composed -- the
        cooperative preemption point for cancellable hard work: each
        ``A_i`` pass is one numpy call, so this is the finest boundary
        at which the scan can stop without losing vectorization.
        """
        n = self.db.n_wires
        word_u = np.uint64(word)
        lists = self.lists
        if max_size is not None:
            lists = lists[: max(0, max_size - self.db.k)]
        tested = 0
        with trace("search.scan"):
            for i, candidates_v in enumerate(lists, start=1):
                if cancel is not None:
                    cancel()
                if candidates_v.shape[0] == 0:
                    continue
                with trace("search.list", list=i):
                    h = compose_np(candidates_v, word_u, n)
                    sizes = self.db.sizes_batch(h)
                    tested += int(candidates_v.shape[0])
                    hits = np.flatnonzero(sizes != self.db.MISSING)
                if hits.size:
                    idx = int(hits[0])
                    return i, int(candidates_v[idx]), int(sizes[idx]), tested
        return None, None, None, tested
