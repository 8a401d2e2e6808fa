"""``compile_spec``: a Boolean function form in, an optimal circuit out.

The pipeline behind the ``repro compile`` CLI and the daemon's
``compile`` op::

    spec form --(normalize)--> MultiOutputSpec / affine permutation
              --(embed)------> EmbeddingPlan (wires + PartialSpec)
              --(search)-----> best completion over the don't-cares
              --(engine)-----> circuit, via any repro.engines engine

Guarantee taxonomy (see ``docs/COMPILE.md``):

* ``optimal`` -- the completion search was exhaustive and proved its
  answer minimal over every consistent completion *and* the engine's
  answer for the winner is provably minimal.  The circuit is
  gate-minimal over all functions matching the spec.
* ``upper_bound`` -- the completion space was sampled, the capped full
  searches left a completion unsized, or the engine itself only
  guarantees a bound.  The circuit is correct on every
  specified row; its size may not be globally minimal.

Engines exposing the optimal synthesizer's fast surface (``database`` +
``size_or_bound`` on ``engine.impl``) get the full exhaustive/sampled
completion search of :func:`repro.synth.embedding.synthesize_partial`
-- sizing thousands of completions costs microseconds each against the
database.  Other engines (heuristic, SAT, portfolio, ...) evaluate a small
deterministic candidate set instead: every completion when the space is
tiny, otherwise the structurally informed seeds (natural XOR extension,
lexicographic base).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.permutation import Permutation
from repro.engines import (
    GUARANTEE_OPTIMAL,
    GUARANTEE_UPPER_BOUND,
    METRIC_GATES,
    SynthesisRequest,
    SynthesisResult,
)
from repro.errors import SynthesisError
from repro.perf.trace import trace
from repro.synth.embedding import EXHAUSTIVE_LIMIT, synthesize_partial

from repro.specs.embed import EmbeddingPlan, plan_embedding

#: Candidate-evaluation cap for engines without a database fast path.
GENERIC_CANDIDATE_CAP = 8


@dataclass(frozen=True)
class CompileResult:
    """The outcome of compiling one spec form.

    Attributes:
        spec: The compiled form (a :mod:`repro.specs.ir` dataclass).
        plan: The :class:`repro.specs.embed.EmbeddingPlan` used.
        permutation: The completion the circuit implements.
        engine: Registry name of the engine that synthesized it.
        size/circuit/depth/cost: The circuit and its metrics.
        guarantee: ``"optimal"`` or ``"upper_bound"`` (see module doc).
        exhaustive: Whether every consistent completion was sized or
            proven no smaller than the chosen one.
        completions_tried: How many completions were evaluated.
        seconds: Wall time (excluded from :meth:`to_wire`).
    """

    spec: object
    plan: EmbeddingPlan
    permutation: Permutation
    engine: str
    size: int
    circuit: str
    depth: "int | None"
    cost: "int | None"
    guarantee: str
    exhaustive: bool
    completions_tried: int
    seconds: float

    def output_of(self, assignment: int) -> int:
        """Re-simulate: the function value the circuit computes for an
        input assignment, read back in the caller's terms."""
        x = 0
        for i, wire in enumerate(self.plan.input_wires):
            x |= ((assignment >> i) & 1) << wire
        for wire, value in self.plan.constant_wires:
            x |= value << wire
        y = self.permutation(x)
        return sum(
            ((y >> wire) & 1) << j
            for j, wire in enumerate(self.plan.output_wires)
        )

    def to_wire(self) -> dict:
        """Deterministic JSON-ready body: what the daemon sends, byte
        for byte (under sorted-keys encoding)."""
        embedding = self.plan.to_wire()
        embedding["spec"] = self.permutation.spec()
        embedding["word"] = f"{self.permutation.word:#x}"
        embedding["exhaustive"] = self.exhaustive
        embedding["completions_tried"] = self.completions_tried
        return {
            "kind": self.spec.kind,
            "engine": self.engine,
            "size": self.size,
            "circuit": self.circuit,
            "guarantee": self.guarantee,
            "metric": METRIC_GATES,
            "depth": self.depth,
            "cost": self.cost,
            "embedding": embedding,
        }


def compile_spec(
    spec,
    engine,
    *,
    n_wires: int = 4,
    samples: int = 200,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    seed: int = 5489,
    cancel=None,
) -> CompileResult:
    """Compile a function form to a circuit through ``engine``.

    Args:
        spec: Any :mod:`repro.specs.ir` form.
        engine: A prepared :class:`repro.engines.api.Engine`.
        n_wires: Circuit width to embed into (1..4).
        samples: Sampled-regime budget for the completion search.
        exhaustive_limit: Largest ``t!`` enumerated exhaustively.
        seed: Seed for the sampled regime (deterministic).
        cancel: Optional cooperative checkpoint (raises to abort --
            the daemon passes a
            :class:`repro.service.tasks.CancelToken`'s).  The database
            path calls it before it draws completions, around its
            database pass and before each ``A_i`` list of a full
            search; other engines get it between completion evaluations
            and as ``options["cancel"]``.

    Raises:
        SpecError: The spec cannot be embedded into ``n_wires``.
        SynthesisError: No evaluated completion was within reach.
    """
    started = time.perf_counter()
    with trace("compile.embed", kind=spec.kind):
        plan = plan_embedding(spec, n_wires)
    impl = getattr(engine, "impl", None)
    if (
        impl is not None
        and getattr(impl, "database", None) is not None
        and hasattr(impl, "size_or_bound")
    ):
        result = _compile_with_database(
            spec, plan, engine, impl,
            samples=samples, exhaustive_limit=exhaustive_limit, seed=seed,
            cancel=cancel, started=started,
        )
    else:
        result = _compile_generic(
            spec, plan, engine, cancel=cancel, started=started,
        )
    if not plan.partial.matches(result.permutation):
        raise SynthesisError(
            "compiled circuit contradicts the spec on a specified row"
        )  # pragma: no cover - guarded by construction
    return result


def _compile_with_database(
    spec, plan, engine, impl, *, samples, exhaustive_limit, seed,
    cancel, started,
) -> CompileResult:
    """The full completion search against a warm database."""
    with trace("compile.search", kind=spec.kind):
        emb = synthesize_partial(
            plan.partial,
            impl,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            seed=seed,
            extra_candidates=list(plan.extras),
            cancel=cancel,
        )
    # The engine's own guarantee bounds the claim: a database-backed
    # engine that is not provably minimal (none today) would cap this
    # at upper_bound too.
    engine_optimal = engine.capabilities.guarantee == GUARANTEE_OPTIMAL
    guarantee = (
        GUARANTEE_OPTIMAL
        if emb.exhaustive and engine_optimal
        else GUARANTEE_UPPER_BOUND
    )
    shaped = SynthesisResult.from_circuit(
        engine.name,
        emb.circuit,
        emb.permutation.spec(),
        guarantee=guarantee,
        seconds=0.0,
    )
    return CompileResult(
        spec=spec,
        plan=plan,
        permutation=emb.permutation,
        engine=engine.name,
        size=emb.size,
        circuit=shaped.circuit,
        depth=shaped.depth,
        cost=shaped.cost,
        guarantee=guarantee,
        exhaustive=emb.exhaustive,
        completions_tried=emb.completions_tried,
        seconds=time.perf_counter() - started,
    )


def _generic_candidates(plan) -> "tuple[list[Permutation], bool]":
    """Candidates for engines with no cheap size oracle.

    Returns ``(candidates, full)`` -- ``full`` True when the list
    covers every consistent completion.
    """
    partial = plan.partial
    if partial.n_completions() <= GENERIC_CANDIDATE_CAP:
        return list(partial.completions()), True
    base = partial.complete(list(partial.free_outputs))
    seen: set = set()
    candidates = []
    for perm in list(plan.extras) + [base]:
        if perm.word not in seen:
            seen.add(perm.word)
            candidates.append(perm)
    return candidates, False


def _compile_generic(spec, plan, engine, *, cancel, started) -> CompileResult:
    """Evaluate a capped candidate set through an arbitrary engine."""
    candidates, full = _generic_candidates(plan)
    best: "SynthesisResult | None" = None
    best_perm: "Permutation | None" = None
    tried = 0
    failures = 0
    last_error: "SynthesisError | None" = None
    all_exact = True
    with trace("compile.search", kind=spec.kind, engine=engine.name):
        for perm in candidates:
            if cancel is not None:
                cancel()
            tried += 1
            options = {"cancel": cancel} if cancel is not None else {}
            try:
                result = engine.synthesize(SynthesisRequest(
                    spec=perm, n_wires=plan.n_wires, options=options,
                ))
            except SynthesisError as exc:
                failures += 1
                last_error = exc
                continue
            if result.guarantee != GUARANTEE_OPTIMAL:
                all_exact = False
            if best is None or result.size < best.size:
                best, best_perm = result, perm
    if best is None or best_perm is None:
        raise last_error if last_error is not None else SynthesisError(
            "no completion candidate could be synthesized"
        )
    guarantee = (
        GUARANTEE_OPTIMAL
        if full and failures == 0 and all_exact
        else GUARANTEE_UPPER_BOUND
    )
    return CompileResult(
        spec=spec,
        plan=plan,
        permutation=best_perm,
        engine=engine.name,
        size=best.size,
        circuit=best.circuit,
        depth=best.depth,
        cost=best.cost,
        guarantee=guarantee,
        exhaustive=full and failures == 0,
        completions_tried=tried,
        seconds=time.perf_counter() - started,
    )


__all__ = ["GENERIC_CANDIDATE_CAP", "CompileResult", "compile_spec"]
