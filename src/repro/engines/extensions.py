"""Adapters for the paper's Section 5 extensions: depth, linear, wide,
Clifford.

Each wraps an existing specialized synthesizer in the unified
:class:`repro.engines.api.Engine` protocol.  The linear and depth
engines are exact within their domains; the wide engine trades the
packed-word representation for array rows to go past four wires; the
Clifford engine works on stabilizer tableaux rather than permutations.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.core import spec as spec_mod
from repro.engines.api import (
    GUARANTEE_OPTIMAL,
    METRIC_DEPTH,
    Engine,
    EngineCapabilities,
    SynthesisRequest,
    SynthesisResult,
)
from repro.errors import SynthesisError
from repro.synth.depth import DepthOptimalSynthesizer
from repro.synth.linear import LinearSynthesizer
from repro.synth.wide import WideBfsResult, wide_bfs, wide_synthesize


class DepthEngine(Engine):
    """Provably depth-minimal synthesis (layers of disjoint-support gates)."""

    name = "depth"

    def __init__(self, n_wires: int = 4, max_depth: int = 4) -> None:
        self.impl = DepthOptimalSynthesizer(n_wires=n_wires, max_depth=max_depth)
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            metric=METRIC_DEPTH,
            max_wires=4,
            reach=f"optimal depth <= {max_depth}",
            servable=True,
        )

    def prepare(self) -> "DepthEngine":
        self.impl.database
        return self

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(self.impl.n_wires)
        started = time.perf_counter()
        circuit = self.impl.synthesize(perm)
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            circuit,
            perm.spec(),
            guarantee=GUARANTEE_OPTIMAL,
            metric=METRIC_DEPTH,
            seconds=seconds,
            extra={"optimal_depth": circuit.depth()},
        )


class LinearEngine(Engine):
    """Exhaustive NOT/CNOT synthesis over the affine group (Table 5)."""

    name = "linear"

    def __init__(self, n_wires: int = 4) -> None:
        self.impl = LinearSynthesizer(n_wires=n_wires)
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach="NOT/CNOT-computable (affine) functions only",
            servable=True,
        )

    def prepare(self) -> "LinearEngine":
        self.impl.database
        return self

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(self.impl.n_wires)
        started = time.perf_counter()
        circuit = self.impl.synthesize(perm)
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            circuit,
            perm.spec(),
            guarantee=GUARANTEE_OPTIMAL,
            seconds=seconds,
            extra={"library": "NOT/CNOT"},
        )


class WideEngine(Engine):
    """Array-row BFS for wide functions (n >= 5, paper Section 5).

    Specs are value sequences of length ``2**n_wires`` (spec strings and
    :class:`Permutation` objects also work for n <= 4).
    """

    name = "wide"

    def __init__(
        self,
        n_wires: int = 5,
        k: int = 3,
        max_frontier: "int | None" = 4_000_000,
    ) -> None:
        self.n_wires = n_wires
        self.k = k
        self.max_frontier = max_frontier
        self._result: "WideBfsResult | None" = None
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=0,
            reach=f"any width, optimal size <= k = {k}",
        )

    def prepare(self) -> "WideEngine":
        if self._result is None:
            self._result = wide_bfs(self.n_wires, self.k, self.max_frontier)
        return self

    @property
    def result(self) -> WideBfsResult:
        self.prepare()
        assert self._result is not None
        return self._result

    def _values_of(self, request: SynthesisRequest) -> list[int]:
        spec: Any = request.spec
        if hasattr(spec, "values") and hasattr(spec, "n_wires"):  # Permutation
            return list(spec.values)
        if isinstance(spec, str):
            return list(spec_mod.parse_spec(spec))
        if isinstance(spec, int):
            raise SynthesisError(
                "the wide engine takes value sequences, not packed words"
            )
        return [int(v) for v in spec]

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        values = self._values_of(request)
        if len(values) != (1 << self.n_wires):
            raise SynthesisError(
                f"wide engine built for {self.n_wires} wires expects "
                f"{1 << self.n_wires} values, got {len(values)}"
            )
        started = time.perf_counter()
        circuit = wide_synthesize(self.result, values)
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            circuit,
            spec_mod.format_spec(values),
            guarantee=GUARANTEE_OPTIMAL,
            seconds=seconds,
            extra={"states_stored": self.result.states_stored},
        )


class CliffordEngine(Engine):
    """Exhaustive optimal Clifford synthesis over {H, S, S-dagger, CNOT}.

    Specs are :class:`repro.stabilizer.tableau.CliffordTableau` objects;
    results carry generator labels (no NCT depth/cost metrics).
    """

    name = "clifford"

    def __init__(self, n_qubits: int = 2) -> None:
        # Import lazily relative to the registry, but eagerly for the
        # adapter: constructing the engine means stabilizer work is coming.
        from repro.stabilizer.synthesis import CliffordSynthesizer

        self.impl = CliffordSynthesizer(n_qubits)
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            spec_kind="tableau",
            max_wires=2,
            reach="the full Clifford group on n <= 2 qubits",
        )

    def prepare(self) -> "CliffordEngine":
        self.impl.sizes
        return self

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        from repro.stabilizer.tableau import CliffordTableau

        tableau = request.spec
        if not isinstance(tableau, CliffordTableau):
            raise SynthesisError(
                "the clifford engine takes CliffordTableau specs, "
                f"got {type(tableau).__name__}"
            )
        started = time.perf_counter()
        labels: Sequence[str] = self.impl.synthesize(tableau)
        seconds = time.perf_counter() - started
        return SynthesisResult(
            engine=self.name,
            spec=f"tableau:{tableau.key()}",
            size=len(labels),
            circuit=" ".join(labels) if labels else "(identity)",
            guarantee=GUARANTEE_OPTIMAL,
            metric="gates",
            depth=None,
            cost=None,
            seconds=seconds,
            extra={"n_qubits": self.impl.n_qubits},
        )


__all__ = [
    "CliffordEngine",
    "DepthEngine",
    "LinearEngine",
    "WideEngine",
]
