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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.rng.mt19937 import MersenneTwister


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
    exhaustive_limit: int = 5040,
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
    function) that uniform sampling of a huge ``t!`` space would miss;
    candidates inconsistent with the spec are rejected.

    ``cancel`` is an optional cooperative checkpoint (e.g. a
    :meth:`repro.service.tasks.CancelToken.checkpoint` bound method)
    called before and after the batched database pass and, in the full
    searches, before each ``A_i`` list; it may raise to abort.

    The full searches (pass 2) size at most ``samples // 10`` of the
    completions that are not in the database, and the result is
    ``exhaustive`` only when that cap covered all of them or the best
    one reached the floor ``k + 1`` that nothing deferred can beat.
    """
    best_perm = None
    best_size = None
    tried = 0
    exhaustive = spec.n_completions() <= exhaustive_limit
    if exhaustive:
        candidates = list(spec.completions())
    else:
        candidates, exhaustive = _sampled_completions(spec, samples, seed)
    for candidate in extra_candidates or []:
        if not spec.matches(candidate):
            raise SynthesisError(
                "extra candidate contradicts the partial specification"
            )
        candidates.insert(0, candidate)

    # Pass 1: the database fast path, one batched size lookup for every
    # candidate.  If any completion has size <= k this finds the true
    # minimum over the candidate set (skipped completions all have size
    # > k >= best).  Candidates are still visited in order, so the first
    # minimum, the size-0 early exit and ``tried`` match a one-by-one scan.
    database = getattr(synthesizer, "database", None)
    if cancel is not None:
        cancel()
    sizes: "list[int | None]" = [None] * len(candidates)
    if database is not None and candidates:
        words = np.array([perm.word for perm in candidates], dtype=np.uint64)
        sizes = [
            None if size == database.MISSING else size
            for size in database.sizes_batch(words).tolist()
        ]
    if cancel is not None:
        cancel()
    deferred = []
    for perm, size in zip(candidates, sizes):
        tried += 1
        if size is None:
            deferred.append(perm)
            continue
        if best_size is None or size < best_size:
            best_perm, best_size = perm, size
            if size == 0:
                break
    # Pass 2 (only when nothing was within the fast path): full
    # meet-in-the-middle queries on a bounded number of completions, as
    # branch and bound.  Pass 1 proved every deferred completion larger
    # than k, so one of size k + 1 cannot be beaten and ends the search.
    # Until then each completion is sized only as deep as could beat the
    # best so far; a smaller one is found at the same list and hit as by
    # an unbounded scan, so the first minimum is the same.
    if best_perm is None:
        floor = 0 if database is None else database.k + 1
        capped = deferred[: max(1, samples // 10)]
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
            best_size == floor or len(capped) == len(deferred)
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


def _sampled_completions(
    spec: PartialSpec, samples: int, seed: int
) -> "tuple[list[Permutation], bool]":
    """Up to ``samples`` *distinct* random completions of ``spec``.

    Returns ``(completions, exhausted)``.  Shuffles draw permutations
    of the free outputs with replacement, so duplicates are discarded
    rather than spent against the budget; when the whole ``t!`` space
    fits inside ``samples`` the completions are enumerated directly and
    ``exhausted`` is True -- the caller's answer is then exact, not a
    bound.  Redraws are bounded, so a pathological duplicate streak
    degrades to fewer samples instead of an unbounded loop.
    """
    total = spec.n_completions()
    if total <= samples:
        return list(spec.completions()), True
    rng = MersenneTwister(seed)
    free_outputs = spec.free_outputs
    seen: set = set()
    out: "list[Permutation]" = []
    attempts = 0
    max_attempts = 8 * samples
    while len(out) < samples and attempts < max_attempts:
        attempts += 1
        assignment = list(free_outputs)
        rng.shuffle(assignment)
        key = tuple(assignment)
        if key in seen:
            continue
        seen.add(key)
        out.append(spec.complete(assignment))
    return out, False


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
