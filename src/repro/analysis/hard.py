"""Searching for hard permutations (paper Section 4.5).

The paper ran a 12-hour search extending known 13- and 14-gate optimal
circuits with extra gates at both ends, looking (unsuccessfully) for a
permutation needing more than 14 gates.  This module reproduces the
method at our scale:

* :func:`extension_search` -- take seed functions of the maximal known
  size, prepend/append library gates, and measure the size of the result;
  report the hardest function found.
* :func:`full_enumeration` -- for n = 3 the question closes exactly: a
  complete BFS determines L(3) and the full distribution, the miniature
  of the paper's "computing all numbers in Table 4 exactly" future-work
  item.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import packed
from repro.core.gates import all_gates
from repro.errors import SizeLimitExceededError


@dataclass(frozen=True)
class HardSearchResult:
    """Outcome of a hard-permutation search.

    Attributes:
        hardest_size: The largest optimal size observed (or proven lower
            bound when the search engine's L was exceeded).
        hardest_word: A function attaining it.
        exceeded_bound: True when a function beyond the engine's reach was
            found (its exact size is then unknown, only >= hardest_size).
        candidates_examined: Extension candidates evaluated.
    """

    hardest_size: int
    hardest_word: int
    exceeded_bound: bool
    candidates_examined: int


def extension_search(
    search_engine,
    seeds: "list[int]",
    n_wires: int,
    max_candidates: "int | None" = None,
    cancel=None,
) -> HardSearchResult:
    """Extend seed functions by one gate at each end, keeping the hardest.

    ``search_engine`` must offer ``size_of(word)`` raising
    :class:`SizeLimitExceededError` beyond its bound.  Seeds should be
    functions of the largest size already in hand (the paper used its 13-
    and 14-gate circuits).

    ``cancel`` is an optional zero-argument cooperative checkpoint run
    before each candidate's (expensive) ``size_of`` query; it may abort
    the search by raising, and whatever it raises propagates untouched.
    """
    library = [g.to_word(n_wires) for g in all_gates(n_wires)]
    best_size = -1
    best_word = packed.identity(n_wires)
    exceeded = False
    examined = 0
    for seed in seeds:
        for gate_word in library:
            for candidate in (
                packed.compose(seed, gate_word, n_wires),  # gate appended
                packed.compose(gate_word, seed, n_wires),  # gate prepended
            ):
                if cancel is not None:
                    cancel()
                examined += 1
                try:
                    size = search_engine.size_of(candidate)
                    is_exceeded = False
                except SizeLimitExceededError as exc:
                    size = exc.lower_bound
                    is_exceeded = True
                if size > best_size or (size == best_size and is_exceeded):
                    best_size = size
                    best_word = candidate
                    exceeded = is_exceeded
                if max_candidates is not None and examined >= max_candidates:
                    return HardSearchResult(
                        hardest_size=best_size,
                        hardest_word=best_word,
                        exceeded_bound=exceeded,
                        candidates_examined=examined,
                    )
    return HardSearchResult(
        hardest_size=best_size,
        hardest_word=best_word,
        exceeded_bound=exceeded,
        candidates_examined=examined,
    )


@dataclass(frozen=True)
class FullEnumeration:
    """Exact answer to the hard-permutation question for small n.

    Attributes:
        n_wires: Wire count.
        counts: Exact functions per optimal size.
        max_size: L(n), the size of the hardest function.
        hardest_count: How many functions attain L(n).
    """

    n_wires: int
    counts: list[int]
    max_size: int
    hardest_count: int


def full_enumeration(n_wires: int = 3) -> FullEnumeration:
    """Complete BFS settling L(n) exactly (practical for n <= 3).

    For n = 3 this reproduces the classic full enumeration (the paper's
    reference [15]) in under a second.
    """
    import math

    from repro.engines import create_engine

    # Depth bound far above L(n); the BFS stops at its first empty level.
    counts = create_engine("plain-bfs", n_wires=n_wires, k=64).result.counts
    if sum(counts) != math.factorial(1 << n_wires):
        raise AssertionError("enumeration did not cover the full group")
    return FullEnumeration(
        n_wires=n_wires,
        counts=counts,
        max_size=len(counts) - 1,
        hardest_count=counts[-1],
    )
