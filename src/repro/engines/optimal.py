"""Adapter for the paper's optimal meet-in-the-middle engine.

Wraps :class:`repro.synth.synthesizer.OptimalSynthesizer` (Algorithm 1
over the Algorithm 2 database) in the :class:`repro.engines.api.Engine`
protocol.  Layers above the engine boundary (service daemon, shard
cluster, CLI) that need the concrete synthesizer take it from
``create_engine("optimal", ...)`` as ``engine.impl`` or a warm
``engine.handle()`` -- the ``engine-layering`` check flags direct
imports of ``OptimalSynthesizer`` elsewhere.
"""

from __future__ import annotations

import time
from typing import Any

from repro.engines.api import (
    GUARANTEE_OPTIMAL,
    Engine,
    EngineCapabilities,
    SynthesisRequest,
    SynthesisResult,
)
from repro.perf.trace import trace
from repro.synth.synthesizer import OptimalSynthesizer, SynthesisHandle


class OptimalEngine(Engine):
    """Provably gate-minimal synthesis for n <= 4 (reach L = k + m)."""

    name = "optimal"

    def __init__(
        self,
        n_wires: int = 4,
        k: int = 6,
        max_list_size: "int | None" = None,
        cache_dir: Any = None,
        verbose: bool = False,
        handle: "SynthesisHandle | None" = None,
    ) -> None:
        # A warm handle (e.g. the daemon's own) rehydrates the engine
        # without rebuilding the BFS database; the other construction
        # parameters are then implied by the handle and ignored.
        if handle is not None:
            self.impl = OptimalSynthesizer.from_handle(handle)
        else:
            self.impl = OptimalSynthesizer(
                n_wires=n_wires,
                k=k,
                max_list_size=max_list_size,
                cache_dir=cache_dir,
                verbose=verbose,
            )
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach=f"optimal size <= L = {self.impl.max_size}",
            servable=True,
            cancellable=True,
        )

    def prepare(self) -> "OptimalEngine":
        self.impl.prepare()
        return self

    def handle(self) -> SynthesisHandle:
        """Warm, shareable handle (service daemon and worker pool)."""
        return self.impl.handle()

    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        perm = request.permutation(self.impl.n_wires)
        started = time.perf_counter()
        # A cooperative checkpoint may ride in ``options["cancel"]``
        # (the portfolio passes its own); the scan calls it between A_i
        # lists.
        cancel = request.options.get("cancel")
        with trace("engine.synthesize", engine=self.name):
            outcome = self.impl.search(perm, cancel=cancel)
        seconds = time.perf_counter() - started
        return SynthesisResult.from_circuit(
            self.name,
            outcome.circuit,
            perm.spec(),
            guarantee=GUARANTEE_OPTIMAL,
            seconds=seconds,
            extra={
                "lists_scanned": outcome.lists_scanned,
                "candidates_tested": outcome.candidates_tested,
            },
        )


__all__ = ["OptimalEngine"]
