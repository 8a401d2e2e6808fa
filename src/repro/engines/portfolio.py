"""The escalation engine: fast upper bound first, proof when affordable.

Strategy (one query, one thread, tiers in order):

1. Run the MMD heuristic (milliseconds) for an upper bound ``U`` and a
   working circuit.
2. Ask the optimal meet-in-the-middle engine.  Within reach it answers
   exactly; out of reach it *proves* a lower bound ``LB``.
3. If ``LB == U`` the heuristic circuit is already provably minimal --
   the scan's failure is the proof (the paper's Section 4.4 argument).
4. Otherwise, when ``U - 1 <= sat_gate_limit``, close the gap with SAT
   at fixed sizes ``LB .. U-1``.  The first satisfiable size is
   optimal; all-UNSAT proves the heuristic circuit optimal.  Under a
   conflict budget an UNSAT answer may only mean the budget ran out, so
   after one, no answer is tagged optimal.

One cooperative checkpoint, ``request.options["cancel"]`` (the daemon
passes the request's ``CancelToken.checkpoint``), reaches the optimal
scan between ``A_i`` lists and the SAT solver at every conflict.
Whatever it raises propagates to the caller.

Every result records which tier answered (``extra["tier"]``), so
callers can see whether they paid for a proof or got a fast bound.  The
registry also serves this engine under the name ``race``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engines.api import (
    GUARANTEE_HEURISTIC,
    GUARANTEE_OPTIMAL,
    Engine,
    EngineCapabilities,
    SynthesisRequest,
    SynthesisResult,
)
from repro.engines.baselines import HeuristicEngine
from repro.engines.optimal import OptimalEngine
from repro.errors import SizeLimitExceededError, UnsatisfiableError
from repro.perf.trace import trace
from repro.sat.synth import sat_synthesize_fixed_size
from repro.synth.synthesizer import SynthesisHandle


class PortfolioEngine(Engine):
    """Heuristic upper bound -> optimal search -> SAT gap closing."""

    name = "portfolio"

    def __init__(
        self,
        n_wires: int = 4,
        k: int = 6,
        max_list_size: "int | None" = None,
        cache_dir: Any = None,
        verbose: bool = False,
        sat_gate_limit: int = 6,
        conflict_budget: "int | None" = None,
        handle: "SynthesisHandle | None" = None,
    ) -> None:
        self.heuristic = HeuristicEngine()
        # A warm handle (the daemon's) means the optimal tier never
        # re-prepares the database.
        self.optimal = OptimalEngine(
            n_wires=n_wires,
            k=k,
            max_list_size=max_list_size,
            cache_dir=cache_dir,
            verbose=verbose,
            handle=handle,
        )
        self.sat_gate_limit = sat_gate_limit
        self.conflict_budget = conflict_budget
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach=(
                "every function; the answer degrades to a heuristic upper "
                "bound when all proof tiers are out of reach"
            ),
            servable=True,
            cancellable=True,
        )

    def prepare(self) -> "PortfolioEngine":
        self.optimal.prepare()
        return self

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(self.optimal.impl.n_wires)
        cancel = request.options.get("cancel")
        started = time.perf_counter()
        with trace("portfolio.tier", tier="heuristic"):
            upper = self.heuristic.synthesize(
                SynthesisRequest(spec=perm, n_wires=perm.n_wires)
            )
        try:
            with trace("portfolio.tier", tier="optimal"):
                exact = self.optimal.synthesize(
                    SynthesisRequest(
                        spec=perm,
                        n_wires=perm.n_wires,
                        options={"cancel": cancel},
                    )
                )
        except SizeLimitExceededError as exc:
            return self._close_gap(
                perm, upper, exc.lower_bound, started, cancel
            )
        return self._finish(
            exact, started, tier="optimal", upper_bound=upper.size
        )

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    def _close_gap(
        self,
        perm: Any,
        upper: SynthesisResult,
        lower_bound: int,
        started: float,
        cancel: Any,
    ) -> SynthesisResult:
        """The optimal scan proved size >= lower_bound; the heuristic
        circuit has upper.size gates.  Squeeze or give up gracefully."""
        bounds: dict[str, Any] = {
            "upper_bound": upper.size, "lower_bound": lower_bound,
        }
        if upper.size <= lower_bound:
            # The bound meets the heuristic circuit: provably minimal.
            return self._finish(
                upper, started, tier="heuristic",
                guarantee=GUARANTEE_OPTIMAL, **bounds,
            )
        if upper.size - 1 > self.sat_gate_limit:
            # SAT at these sizes is hopeless; return the honest bound.
            return self._finish(upper, started, tier="heuristic", **bounds)
        # Exact UNSAT with no budget; possibly budget exhaustion
        # otherwise, which voids every optimality claim after it.
        inconclusive = False
        for n_gates in range(lower_bound, upper.size):
            try:
                with trace("portfolio.tier", tier="sat", n_gates=n_gates):
                    circuit = sat_synthesize_fixed_size(
                        perm,
                        n_gates,
                        conflict_budget=self.conflict_budget,
                        cancel=cancel,
                    )
            except UnsatisfiableError:
                inconclusive = inconclusive or self.conflict_budget is not None
                continue
            return SynthesisResult.from_circuit(
                self.name,
                circuit,
                upper.spec,
                guarantee=(
                    GUARANTEE_HEURISTIC if inconclusive else GUARANTEE_OPTIMAL
                ),
                seconds=time.perf_counter() - started,
                extra={"tier": "sat", **bounds},
            )
        # No smaller circuit exists (or the budget ran out trying).
        return self._finish(
            upper,
            started,
            tier="heuristic",
            guarantee=(
                GUARANTEE_HEURISTIC if inconclusive else GUARANTEE_OPTIMAL
            ),
            **bounds,
        )

    def _finish(
        self,
        inner: SynthesisResult,
        started: float,
        *,
        tier: str,
        guarantee: "str | None" = None,
        **extra: Any,
    ) -> SynthesisResult:
        """Re-badge an inner tier's result as the portfolio's answer."""
        seconds = time.perf_counter() - started
        merged = dict(inner.extra)
        merged["tier"] = tier
        merged.update(extra)
        return SynthesisResult(
            engine=self.name,
            spec=inner.spec,
            size=inner.size,
            circuit=inner.circuit,
            guarantee=guarantee if guarantee is not None else inner.guarantee,
            metric=inner.metric,
            depth=inner.depth,
            cost=inner.cost,
            seconds=seconds,
            extra=merged,
            circuit_obj=inner.circuit_obj,
        )


__all__ = ["PortfolioEngine"]
