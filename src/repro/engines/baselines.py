"""Adapters for the comparison baselines: plain BFS, MMD, SAT.

These are the engines the paper measures itself against (Section 1 and
Table 6): the unreduced BFS of Prasad et al., the transformation-based
heuristic of Miller, Maslov & Dueck, and SAT iterative deepening.
"""

from __future__ import annotations

import time

from repro.core.circuit import Circuit
from repro.core.gates import all_gates
from repro.engines.api import (
    GUARANTEE_HEURISTIC,
    GUARANTEE_OPTIMAL,
    Engine,
    EngineCapabilities,
    SynthesisRequest,
    SynthesisResult,
)
from repro.errors import SizeLimitExceededError, SynthesisError
from repro.synth.bfs import peel
from repro.synth.heuristic import mmd_best_of_both, mmd_synthesize
from repro.synth.plain_bfs import PlainBfsResult, plain_bfs
from repro.sat.synth import sat_synthesize


class PlainBfsEngine(Engine):
    """Unreduced BFS baseline: every raw function of size <= k, stored.

    Memory grows x48 versus the reduced engine (the point of the
    comparison), so the practical depth is k <= 5 on four wires.
    """

    name = "plain-bfs"

    def __init__(self, n_wires: int = 4, k: int = 4) -> None:
        self.n_wires = n_wires
        self.k = k
        self._result: "PlainBfsResult | None" = None
        self._steps = [(g, g.to_word(n_wires), 1) for g in all_gates(n_wires)]
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach=f"optimal size <= k = {k} (no symmetry reduction)",
        )

    def prepare(self) -> "PlainBfsEngine":
        if self._result is None:
            self._result = plain_bfs(self.n_wires, self.k)
        return self

    @property
    def result(self) -> PlainBfsResult:
        self.prepare()
        assert self._result is not None
        return self._result

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(self.n_wires)
        if perm.n_wires != self.n_wires:
            raise SynthesisError(
                f"plain-bfs engine built for {self.n_wires} wires, "
                f"got a {perm.n_wires}-wire spec"
            )
        started = time.perf_counter()
        table = self.result
        size = table.size_of(perm.word)
        if size is None:
            raise SizeLimitExceededError(
                f"function requires more than {self.k} gates "
                "(plain BFS exhausted)",
                lower_bound=self.k + 1,
            )
        # The table stores sizes only; reconstruct by gate peeling, as in
        # the reduced engine but over raw words.
        gates = peel(perm.word, size, self._steps, table.size_of, self.n_wires)
        circuit = Circuit(gates=tuple(gates), n_wires=self.n_wires)
        if not circuit.implements(perm):
            raise AssertionError("plain BFS peel produced a wrong circuit")
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            circuit,
            perm.spec(),
            guarantee=GUARANTEE_OPTIMAL,
            seconds=seconds,
            extra={"states_stored": table.states_stored},
        )


class HeuristicEngine(Engine):
    """MMD transformation-based heuristic: always succeeds, never proves.

    The default runs both sweep directions and keeps the smaller
    circuit; ``variant`` may pin ``"bidirectional"``/``"unidirectional"``.
    """

    name = "heuristic"

    def __init__(self, variant: str = "best") -> None:
        if variant not in ("best", "bidirectional", "unidirectional"):
            raise SynthesisError(f"unknown MMD variant {variant!r}")
        self.variant = variant
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_HEURISTIC,
            max_wires=4,
            reach="every function (upper bound only)",
            servable=True,
        )

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(4)
        started = time.perf_counter()
        if self.variant == "best":
            outcome = mmd_best_of_both(perm)
            circuit, bidirectional = outcome.circuit, outcome.bidirectional
        else:
            bidirectional = self.variant == "bidirectional"
            circuit = mmd_synthesize(perm, bidirectional=bidirectional)
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            circuit,
            perm.spec(),
            guarantee=GUARANTEE_HEURISTIC,
            seconds=seconds,
            extra={"bidirectional": bidirectional},
        )


class SatEngine(Engine):
    """SAT iterative deepening: provably optimal, exponentially slow.

    The first satisfiable gate count is the optimal size; the adapter
    reports the UNSAT depths and total conflicts alongside the circuit.
    """

    name = "sat"

    def __init__(
        self,
        max_gates: int = 8,
        conflict_budget: "int | None" = None,
        time_budget: "float | None" = None,
    ) -> None:
        self.max_gates = max_gates
        self.conflict_budget = conflict_budget
        self.time_budget = time_budget
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach=f"optimal size <= {max_gates} (wall time grows steeply)",
            cancellable=True,
        )

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(4)
        started = time.perf_counter()
        # Per-request budgets override the constructor defaults: a
        # ``time_budget`` bounds the solve's wall clock and a ``cancel``
        # checkpoint is called at every conflict.
        time_budget = request.options.get("time_budget", self.time_budget)
        cancel = request.options.get("cancel")
        outcome = sat_synthesize(
            perm,
            max_gates=self.max_gates,
            conflict_budget_per_depth=self.conflict_budget,
            time_budget=time_budget,
            cancel=cancel,
        )
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            outcome.circuit,
            perm.spec(),
            guarantee=GUARANTEE_OPTIMAL,
            seconds=seconds,
            extra={
                "depths_tried": outcome.depths_tried,
                "total_conflicts": outcome.total_conflicts,
            },
        )


__all__ = [
    "HeuristicEngine",
    "PlainBfsEngine",
    "SatEngine",
]
