"""The unified synthesis contract: one request, one result, any engine.

Every synthesis engine in this repository -- the paper's optimal
meet-in-the-middle search (Algorithm 1), the plain-BFS baseline of
Prasad et al., the MMD transformation heuristic, SAT iterative
deepening, depth-optimal layer search (§5), the exhaustive linear
(NOT/CNOT) engine (§4.3), the wide n >= 5 engine, and the Clifford
stabilizer engine -- answers the same question with a different
trade-off.  This module gives them one vocabulary:

* :class:`SynthesisRequest` -- a specification plus engine-independent
  constraints.
* :class:`SynthesisResult` -- circuit, size, depth, NCV cost (via
  :func:`repro.synth.cost.gate_cost`), the optimality guarantee, the
  engine that answered, and the wall time spent.
* :class:`EngineCapabilities` / :class:`Engine` -- the protocol every
  adapter in :mod:`repro.engines` implements.

Results are wire-friendly: :meth:`SynthesisResult.to_wire` is a
deterministic JSON-ready dict (timing excluded), so a daemon-served
answer is byte-identical to a direct in-process one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.synth.cost import gate_cost

#: Guarantee labels used across engines.
GUARANTEE_OPTIMAL = "optimal"
GUARANTEE_HEURISTIC = "heuristic"
#: A valid circuit whose size is only an upper bound on the optimum --
#: the label of service responses degraded under deadline pressure or an
#: open circuit breaker (see repro.service.resilience).
GUARANTEE_UPPER_BOUND = "upper_bound"

#: Optimization metrics engines may target.
METRIC_GATES = "gates"
METRIC_DEPTH = "depth"


@dataclass(frozen=True)
class SynthesisRequest:
    """One synthesis question, engine-agnostic.

    Attributes:
        spec: The specification.  Permutation engines accept anything
            :meth:`repro.core.permutation.Permutation.coerce` does (a
            ``Permutation``, a spec string, a value sequence, or a
            packed word with ``n_wires``); the wide engine additionally
            accepts value rows longer than 16; the Clifford engine
            expects a :class:`repro.stabilizer.tableau.CliffordTableau`.
        n_wires: Wire count, when the spec alone does not determine it
            (packed words).  ``None`` lets the engine use its own width.
        options: Per-request knobs (engine-specific, rarely needed).
    """

    spec: Any
    n_wires: "int | None" = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def permutation(self, default_wires: int) -> Permutation:
        """Coerce the spec to a :class:`Permutation` (the common case)."""
        return Permutation.coerce(self.spec, self.n_wires or default_wires)


@dataclass(frozen=True)
class SynthesisResult:
    """One synthesis answer, engine-agnostic.

    Attributes:
        engine: Registry name of the engine that answered.
        spec: Normalized textual spec (bracketed values for permutation
            engines, a tableau key for Clifford).
        size: Gate count of the returned circuit.
        circuit: Textual circuit (the paper's syntax for NCT engines,
            generator labels for Clifford).
        guarantee: ``"optimal"`` (provably minimal under ``metric``) or
            ``"heuristic"`` (an upper bound).
        metric: What the engine minimized: ``"gates"`` or ``"depth"``.
        depth: Layer depth of the circuit (None for non-NCT circuits).
        cost: NCV quantum cost via :func:`repro.synth.cost.gate_cost`
            (None for non-NCT circuits).
        seconds: Wall time of the synthesis call (excluded from
            :meth:`to_wire` so wire results stay deterministic).
        extra: Engine-specific facts (search statistics, portfolio tier,
            SAT conflicts, ...).  Values must be JSON-representable.
        circuit_obj: The in-memory :class:`Circuit`, when the engine
            produced one (None for Clifford label sequences).
    """

    engine: str
    spec: str
    size: int
    circuit: str
    guarantee: str
    metric: str
    depth: "int | None"
    cost: "int | None"
    seconds: float
    extra: dict[str, Any] = field(default_factory=dict)
    circuit_obj: "Circuit | None" = None

    @staticmethod
    def from_circuit(
        engine: str,
        circuit: Circuit,
        spec: str,
        *,
        guarantee: str,
        seconds: float,
        metric: str = METRIC_GATES,
        extra: "dict[str, Any] | None" = None,
    ) -> "SynthesisResult":
        """Build a result from an NCT circuit, deriving the metrics.

        Gates outside the NCV cost model (4+ controls, produced by the
        wide engine on n >= 5 wires) leave ``cost`` as None.
        """
        try:
            cost = sum(gate_cost(g) for g in circuit.gates)
        except KeyError:
            cost = None
        return SynthesisResult(
            engine=engine,
            spec=spec,
            size=circuit.gate_count,
            circuit=str(circuit),
            guarantee=guarantee,
            metric=metric,
            depth=circuit.depth(),
            cost=cost,
            seconds=seconds,
            extra=dict(extra or {}),
            circuit_obj=circuit,
        )

    def to_wire(self) -> dict[str, Any]:
        """Deterministic JSON-ready view (no timing, no live objects).

        The service daemon sends exactly this dict, so daemon-served
        results are byte-identical to direct adapter calls.
        """
        wire: dict[str, Any] = {
            "engine": self.engine,
            "spec": self.spec,
            "size": self.size,
            "circuit": self.circuit,
            "guarantee": self.guarantee,
            "metric": self.metric,
            "depth": self.depth,
            "cost": self.cost,
        }
        if self.extra:
            wire["extra"] = dict(self.extra)
        return wire


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can do, for routing and the ``repro engines`` matrix.

    Attributes:
        guarantee: Default guarantee of its results.
        metric: The metric it optimizes.
        spec_kind: ``"permutation"`` or ``"tableau"``.
        max_wires: Largest width the engine accepts (0 = unbounded).
        reach: Human description of coverage limits.
        servable: Whether the daemon will route queries to this engine.
        cancellable: Whether the engine honors a cooperative
            cancellation checkpoint passed as ``options["cancel"]``
            (see :mod:`repro.service.tasks`); the daemon passes every
            named-engine request its cancel token's checkpoint, and only
            engines declaring this can be preempted mid-query.
    """

    guarantee: str
    metric: str = METRIC_GATES
    spec_kind: str = "permutation"
    max_wires: int = 4
    reach: str = ""
    servable: bool = False
    cancellable: bool = False


class Engine:
    """Protocol every engine adapter implements.

    Subclasses define ``name`` (the registry id), ``capabilities``, and
    :meth:`synthesize`; :meth:`prepare` warms any lazy state (databases,
    search lists) and returns ``self`` so construction stays cheap.
    """

    name: str = ""
    capabilities: EngineCapabilities

    def prepare(self) -> "Engine":
        """Build or load expensive state ahead of the first query."""
        return self

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        """Answer one request; raises :class:`repro.errors.SynthesisError`
        (or a subclass) when the spec is out of this engine's reach."""
        raise NotImplementedError


__all__ = [
    "GUARANTEE_HEURISTIC",
    "GUARANTEE_OPTIMAL",
    "GUARANTEE_UPPER_BOUND",
    "METRIC_DEPTH",
    "METRIC_GATES",
    "Engine",
    "EngineCapabilities",
    "SynthesisRequest",
    "SynthesisResult",
]
