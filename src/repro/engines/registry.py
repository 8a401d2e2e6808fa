"""Lazy engine registry: names in, adapters out, imports on demand.

Engines are registered as ``name -> (module, class)`` strings so that
listing names costs nothing and :func:`create_engine` only imports the
module actually asked for -- the SAT encoder, the stabilizer tableaux,
and the numpy BFS machinery stay unloaded until a query needs them.

Engine classes take keyword options; :func:`create_engine` filters the
caller's options down to what the class's constructor declares, so a
generic caller (the CLI, the daemon) can pass its full knob set to any
engine without each class having to swallow ``**kwargs``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from importlib import import_module
from typing import Any

from repro.engines.api import Engine, EngineCapabilities
from repro.errors import SynthesisError
from repro.perf.trace import trace


@dataclass(frozen=True)
class EngineSpec:
    """One registry row: the engine class (``factory``, a name in
    ``module``), plus a summary."""

    name: str
    module: str
    factory: str
    summary: str


_SPECS: dict[str, EngineSpec] = {}


def register_engine(name: str, module: str, factory: str, summary: str) -> None:
    """Register an engine class by dotted module path (no import)."""
    if name in _SPECS:
        raise ValueError(f"duplicate engine name: {name}")
    _SPECS[name] = EngineSpec(name=name, module=module, factory=factory, summary=summary)


def engine_names() -> list[str]:
    """All registered engine names, sorted (no modules imported)."""
    return sorted(_SPECS)


def engine_summary(name: str) -> str:
    """The one-line summary of a registered engine (no import)."""
    return _spec(name).summary


def _spec(name: str) -> EngineSpec:
    spec = _SPECS.get(name)
    if spec is None:
        raise SynthesisError(
            f"unknown engine {name!r}; known engines: {', '.join(engine_names())}"
        )
    return spec


def _engine_class(name: str) -> "type[Engine]":
    spec = _spec(name)
    module = import_module(spec.module)
    return getattr(module, spec.factory)


def create_engine(name: str, **options: Any) -> Engine:
    """Instantiate an engine by name (lazy import, cheap construction).

    Options the class's constructor does not declare are dropped, so
    generic callers may pass one uniform knob set (``n_wires``, ``k``,
    ``max_list_size``, ``cache_dir``, ``verbose``, ...) to every engine.
    Heavy state (databases, lists) is built lazily or via ``prepare()``.
    """
    with trace("engine.create", engine=name):
        engine_class = _engine_class(name)
        parameters = inspect.signature(engine_class).parameters
        accepts_any = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_any:
            options = {k: v for k, v in options.items() if k in parameters}
        return engine_class(**options)


def engine_capabilities(name: str) -> EngineCapabilities:
    """Capabilities of an engine (imports its module, builds nothing)."""
    return create_engine(name).capabilities


def servable_engine_names() -> list[str]:
    """Engines the service daemon is willing to route queries to."""
    return [n for n in engine_names() if engine_capabilities(n).servable]


# ---------------------------------------------------------------------------
# Built-in engines.  Registration is data-only; nothing below imports the
# heavy modules until create_engine() is called with the matching name.
# ---------------------------------------------------------------------------
register_engine(
    "optimal", "repro.engines.optimal", "OptimalEngine",
    "meet-in-the-middle search over the BFS database (paper Algorithm 1)",
)
register_engine(
    "plain-bfs", "repro.engines.baselines", "PlainBfsEngine",
    "raw-function BFS baseline without the x48 symmetry reduction",
)
register_engine(
    "heuristic", "repro.engines.baselines", "HeuristicEngine",
    "MMD transformation-based heuristic (fast, not optimal)",
)
register_engine(
    "sat", "repro.engines.baselines", "SatEngine",
    "SAT iterative deepening (optimal but slow; the Table 6 baseline)",
)
register_engine(
    "depth", "repro.engines.extensions", "DepthEngine",
    "depth-optimal layer search (paper section 5)",
)
register_engine(
    "linear", "repro.engines.extensions", "LinearEngine",
    "exhaustive NOT/CNOT search over the affine group (paper section 4.3)",
)
register_engine(
    "wide", "repro.engines.extensions", "WideEngine",
    "array-based BFS for n >= 5 wires (paper section 5)",
)
register_engine(
    "clifford", "repro.engines.extensions", "CliffordEngine",
    "exhaustive Clifford/stabilizer synthesis over {H, S, S-dagger, CNOT}",
)
register_engine(
    "portfolio", "repro.engines.portfolio", "PortfolioEngine",
    "MMD upper bound, then optimal search, then SAT; reports the tier",
)
# The escalation engine's former name, still sent by wire clients.
register_engine(
    "race", "repro.engines.portfolio", "PortfolioEngine",
    "alias of portfolio (MMD bound, optimal search, SAT gap closing)",
)


__all__ = [
    "EngineSpec",
    "create_engine",
    "engine_capabilities",
    "engine_names",
    "engine_summary",
    "register_engine",
    "servable_engine_names",
]
