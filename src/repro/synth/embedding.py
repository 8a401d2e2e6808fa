"""Synthesis of partially-specified (don't-care) reversible functions.

Benchmark functions like ``rd32`` arise by *embedding* an irreversible
Boolean function into a permutation: constant input lines are fixed,
garbage outputs are unconstrained, and every unconstrained row is a
don't-care.  The choice of completion strongly affects the optimal gate
count, so a synthesis tool must search over completions -- exactly what
this module does on top of the optimal synthesizer.

Two regimes:

* **Exhaustive** -- with ``t`` unspecified rows there are ``t!``
  completions; for ``t! <= exhaustive_limit`` all of them are sized
  against the database and a provably minimal-over-completions circuit
  is returned.  When none is in the database, the full searches size
  only a capped number, and the answer stays exact only if the cap
  covered them all or the best reached the floor ``k + 1``.
* **Sampled** -- beyond that, *distinct* random completions are drawn
  (seeded, reproducible, without replacement) and the best found is
  returned, flagged as a bound.  When the draw nevertheless covers all
  ``t!`` completions the answer is exact and reported as such.

Either regime picks completions as *index orders*: row ``i`` of a
``uint8[m, t]`` table says which free output each free row takes.  The
table depends only on ``t`` (exhaustive) or on ``(seed, t, samples)``
(sampled), so it is memoized, and every candidate's packed word is
built from it with one gather, shift and OR.  A :class:`Permutation`
is made only for the winner and for the completions pass 2 sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.core.circuit import Circuit
from repro.core.packed import NIBBLE_BITS, NIBBLE_MASK
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.rng.mt19937 import MersenneTwister


#: Largest ``t!`` sized exhaustively by default: every completion of up
#: to 7 free rows.
EXHAUSTIVE_LIMIT = 5040


@dataclass(frozen=True)
class PartialSpec:
    """A partially specified reversible function.

    Attributes:
        outputs: Length-``2^n`` sequence; entry ``x`` is the required
            output for input ``x``, or ``None`` for a don't-care row.
        n_wires: Wire count.
    """

    outputs: tuple
    n_wires: int

    def __post_init__(self):
        size = 1 << self.n_wires
        if len(self.outputs) != size:
            raise SynthesisError(
                f"partial spec needs {size} rows, got {len(self.outputs)}"
            )
        fixed = [v for v in self.outputs if v is not None]
        if len(set(fixed)) != len(fixed):
            raise SynthesisError("specified outputs repeat a value")
        if any(not 0 <= v < size for v in fixed):
            raise SynthesisError("specified output out of range")

    @property
    def free_inputs(self) -> list[int]:
        """Input rows whose output is unconstrained."""
        return [x for x, v in enumerate(self.outputs) if v is None]

    @property
    def free_outputs(self) -> list[int]:
        """Output values not used by any specified row."""
        used = {v for v in self.outputs if v is not None}
        return [v for v in range(1 << self.n_wires) if v not in used]

    def n_completions(self) -> int:
        """Number of permutations consistent with the spec (t!)."""
        import math

        return math.factorial(len(self.free_inputs))

    def complete(self, assignment: "list[int]") -> Permutation:
        """The permutation with free rows filled by ``assignment``."""
        values = list(self.outputs)
        for row, value in zip(self.free_inputs, assignment):
            values[row] = value
        return Permutation.from_values(values)

    def completions(self):
        """Iterate over all consistent permutations (t! of them)."""
        for assignment in permutations(self.free_outputs):
            yield self.complete(list(assignment))

    def matches(self, perm: Permutation) -> bool:
        """True iff ``perm`` agrees with every specified row."""
        return all(
            v is None or perm(x) == v for x, v in enumerate(self.outputs)
        )


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of a don't-care synthesis run.

    Attributes:
        circuit: The best circuit found.
        permutation: The completion it implements.
        size: Its gate count.
        exhaustive: True when every completion was sized or proven
            no smaller than the chosen one (so ``size`` is the true
            optimum over don't-cares), False for sampled or capped runs.
        completions_tried: How many completions were evaluated.
    """

    circuit: Circuit
    permutation: Permutation
    size: int
    exhaustive: bool
    completions_tried: int


def synthesize_partial(
    spec: PartialSpec,
    synthesizer,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    samples: int = 200,
    seed: int = 5489,
    extra_candidates: "list[Permutation] | None" = None,
    cancel=None,
) -> EmbeddingResult:
    """Minimal circuit over all completions of a partial specification.

    ``synthesizer`` is an :class:`repro.synth.OptimalSynthesizer` (or
    anything with ``size_or_bound``, ``synthesize`` and ``database``).
    Completions beyond the synthesizer's reach L are skipped (they
    cannot beat an in-reach optimum unless everything is out of reach,
    in which case ``SynthesisError`` is raised).

    ``extra_candidates`` lets callers seed structurally informed
    completions (e.g. the natural reversible extension of a Boolean
    function) that uniform sampling of a huge ``t!`` space would miss.
    They are sized ahead of the drawn completions, the last one given
    first; candidates inconsistent with the spec are rejected.

    ``cancel`` is an optional cooperative checkpoint (e.g. a
    :meth:`repro.service.tasks.CancelToken.checkpoint` bound method)
    called before the completions are drawn, before and after the
    batched database pass and, in the full searches, before each
    ``A_i`` list; it may raise to abort.  A search whose deadline has
    already passed thus stops before it pays for a draw.

    The full searches (pass 2) size at most ``samples // 10`` of the
    completions that are not in the database, and the result is
    ``exhaustive`` only when that cap covered all of them or the best
    one reached the floor ``k + 1`` that nothing deferred can beat.
    """
    if cancel is not None:
        cancel()
    completions, exhaustive = _candidate_words(
        spec, samples, seed, exhaustive_limit
    )
    # Extras go ahead of the completions, the last one given first.
    extras = list(reversed(extra_candidates or []))
    for candidate in extras:
        if not spec.matches(candidate):
            raise SynthesisError(
                "extra candidate contradicts the partial specification"
            )
    words = np.concatenate([
        np.array([perm.word for perm in extras], dtype=np.uint64),
        completions,
    ])
    if not _all_bijections(words, spec.n_wires):
        raise AssertionError("a completion word is not a permutation")

    # Pass 1: the database fast path, one batched size lookup for every
    # candidate.  If any completion has size <= k this finds the true
    # minimum over the candidate set (skipped completions all have size
    # > k >= best).  The first minimum in candidate order wins, and a
    # size-0 hit ends the visit there, so ``tried`` matches a
    # one-by-one scan.
    database = getattr(synthesizer, "database", None)
    if cancel is not None:
        cancel()
    best_perm = None
    best_size = None
    tried = len(words)
    if database is not None and len(words):
        sizes = database.sizes_batch(words)
        first = int(np.argmin(sizes))
        if sizes[first] != database.MISSING:
            best_size = int(sizes[first])
            best_perm = Permutation(int(words[first]), spec.n_wires)
            if best_size == 0:
                tried = first + 1
    if cancel is not None:
        cancel()
    # Pass 2 (only when nothing was within the fast path): full
    # meet-in-the-middle queries on a bounded number of completions, as
    # branch and bound.  Pass 1 proved every candidate larger than k,
    # so one of size k + 1 cannot be beaten and ends the search.
    # Until then each completion is sized only as deep as could beat the
    # best so far; a smaller one is found at the same list and hit as by
    # an unbounded scan, so the first minimum is the same.
    if best_perm is None:
        floor = 0 if database is None else database.k + 1
        capped = [
            Permutation(int(word), spec.n_wires)
            for word in words[: max(1, samples // 10)]
        ]
        for perm in capped:
            if best_size == floor:
                break
            max_size = None if best_size is None else best_size - 1
            size, exact = synthesizer.size_or_bound(
                perm, cancel=cancel, max_size=max_size
            )
            if exact:
                best_perm, best_size = perm, size
        # Completions past the cap were never sized: only the floor or
        # a cap that covered them all keeps the answer exhaustive.
        exhaustive = exhaustive and (
            best_size == floor or len(capped) == len(words)
        )
    if best_perm is None:
        raise SynthesisError(
            "every evaluated completion exceeds the synthesizer's reach; "
            "raise k or max_list_size"
        )
    circuit = synthesizer.synthesize(best_perm)
    if not spec.matches(best_perm) or not circuit.implements(best_perm):
        raise AssertionError("embedding produced an inconsistent result")
    return EmbeddingResult(
        circuit=circuit,
        permutation=best_perm,
        size=best_size,
        exhaustive=exhaustive,
        completions_tried=tried,
    )


#: Most index-order tables each memo keeps.  A sampled table holds
#: ``samples * t`` bytes at most: under 80 KiB at the wire's bound of
#: 5,040 samples.
ORDER_MEMO_SIZE = 64


def _frozen_orders(rows: list, t: int) -> np.ndarray:
    """``rows`` as a read-only ``uint8[len(rows), t]`` table (memoized
    tables are shared by every caller)."""
    orders = np.array(rows, dtype=np.uint8).reshape(len(rows), t)
    orders.setflags(write=False)
    return orders


@functools.lru_cache(maxsize=ORDER_MEMO_SIZE)
def _all_orders(t: int) -> np.ndarray:
    """Every order of ``range(t)``, in :meth:`PartialSpec.completions`
    order (lexicographic): ``t!`` rows, one empty row for ``t = 0``."""
    return _frozen_orders(list(permutations(range(t))), t)


@functools.lru_cache(maxsize=ORDER_MEMO_SIZE)
def _drawn_orders(seed: int, t: int, samples: int) -> np.ndarray:
    """Up to ``samples`` *distinct* random orders of ``range(t)``, in
    draw order.

    A Fisher-Yates shuffle's swaps depend only on the MT19937 stream,
    so shuffling ``range(t)`` gives the index order in which a shuffle
    of the ``t`` free outputs lands them, and two shuffles of the free
    outputs repeat exactly when their orders do.  The draw is thus a
    pure function of ``(seed, t, samples)``, and every spec with the
    same seed and free-row count reuses it.  Duplicates are discarded
    rather than spent against the budget; redraws are bounded at
    ``8 * samples`` attempts, so a pathological duplicate streak
    degrades to fewer orders instead of an unbounded loop.
    """
    rng = MersenneTwister(seed)
    seen: set = set()
    rows: list = []
    attempts = 0
    while len(rows) < samples and attempts < 8 * samples:
        attempts += 1
        order = list(range(t))
        rng.shuffle(order)
        key = tuple(order)
        if key not in seen:
            seen.add(key)
            rows.append(key)
    return _frozen_orders(rows, t)


def _candidate_words(
    spec: PartialSpec, samples: int, seed: int, exhaustive_limit: int = 0
) -> "tuple[np.ndarray, bool]":
    """Packed words of the completions to size, and whether they are
    all ``t!`` of them.

    When ``t! <= max(exhaustive_limit, samples)`` every completion is
    returned, in :meth:`PartialSpec.completions` order -- the caller's
    answer is then exact, not a bound; otherwise up to ``samples``
    distinct random ones (:func:`_drawn_orders`).  Free row
    ``free_inputs[i]`` of the completion with order ``o`` takes
    ``free_outputs[o[i]]``: one gather, shift and OR builds every word.
    """
    t = len(spec.free_inputs)
    total = spec.n_completions()
    exhaustive = total <= exhaustive_limit or total <= samples
    orders = _all_orders(t) if exhaustive else _drawn_orders(seed, t, samples)
    base = 0
    for row, value in enumerate(spec.outputs):
        if value is not None:
            base |= value << (NIBBLE_BITS * row)
    free_outputs = np.array(spec.free_outputs, dtype=np.uint64)
    shifts = np.array(
        [NIBBLE_BITS * row for row in spec.free_inputs], dtype=np.uint64
    )
    words = np.bitwise_or.reduce(
        free_outputs[orders] << shifts, axis=1, initial=np.uint64(base)
    )
    return words, exhaustive


def _all_bijections(words: np.ndarray, n_wires: int) -> bool:
    """True iff every word packs a permutation of ``range(2**n_wires)``."""
    size = 1 << n_wires
    shifts = np.arange(0, NIBBLE_BITS * size, NIBBLE_BITS, dtype=np.uint64)
    values = (words[:, None] >> shifts) & np.uint64(NIBBLE_MASK)
    seen = np.bitwise_or.reduce(np.uint64(1) << values, axis=1)
    return bool(np.all(seen == (1 << size) - 1))


def natural_reversible_extension(
    truth_table: "list[int]", n_inputs: int, n_wires: int = 4
) -> Permutation:
    """The canonical completion: y = x ⊕ (f(inputs) << out_wire).

    Applying the output-XOR update on *every* row (regardless of the
    constant wires' values) is always a bijection, and for structured
    functions it is often the optimal completion -- e.g. AND's natural
    extension is exactly the Toffoli gate.
    """
    if len(truth_table) != 1 << n_inputs:
        raise SynthesisError("truth table length does not match n_inputs")
    if n_inputs >= n_wires:
        raise SynthesisError("need at least one output wire")
    out_wire = n_wires - 1
    input_mask = (1 << n_inputs) - 1
    values = [
        x ^ ((truth_table[x & input_mask] & 1) << out_wire)
        for x in range(1 << n_wires)
    ]
    return Permutation.from_values(values)
