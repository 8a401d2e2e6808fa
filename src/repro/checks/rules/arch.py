"""Architecture boundary rules: protected names stay behind their layer.

The *shape* of the architecture -- which layer may import which -- is
declared once in :class:`~repro.checks.config.CheckConfig`
(``arch_layers`` / ``arch_allow``) and enforced whole-program by the
``layer-violation`` rule under ``repro check --graph``.  What remains
here are the two *protected-name* boundaries that need per-file syntax,
not graph reachability, and therefore run in every mode including
single-file:

* ``engine-layering`` -- concrete synthesizers
  (``OptimalSynthesizer``, ``mmd_synthesize``, ...) may only be
  imported inside ``repro/engines/`` and the packages defining them;
  everything above goes through ``repro.engines``
  (``create_engine`` / ``Engine.synthesize``) so every caller gets the
  same result contract, caching hooks, and capability metadata.

* ``store-layering`` -- numpy persistence primitives (``np.load``,
  ``np.savez``, ``np.memmap``, ...) may only be called inside
  ``repro/store/``; anything else bypasses header validation, the
  checksum, and the crash-safe rename discipline.

Unlike the layer DAG, these apply to lazy (function-scoped) imports
too: deferring an import does not make a forbidden dependency legal,
it only hides it from the import graph.
"""

from __future__ import annotations

import ast

from repro.checks.astutil import call_root
from repro.checks.config import CheckConfig
from repro.checks.registry import FileContext, Rule, register

#: Module aliases recognized as numpy at the root of a call chain.
_NUMPY_NAMES = frozenset({"np", "numpy"})


@register
class EngineLayeringRule(Rule):
    """Direct imports of concrete engine classes above the engine layer."""

    id = "engine-layering"
    family = "layering"
    description = (
        "concrete synthesis engines (OptimalSynthesizer, mmd_synthesize, "
        "...) may only be imported inside repro/engines/ and the packages "
        "defining them; everything above goes through repro.engines"
    )
    scope_field = None

    def applies_to(self, path: str, config: CheckConfig) -> bool:
        if any(fragment in path for fragment in config.layering_allowed):
            return False
        return super().applies_to(path, config)

    def check(self, ctx: FileContext):
        flagged = frozenset(ctx.config.layering_engine_names)
        if not flagged:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            for alias in node.names:
                if alias.name in flagged:
                    yield ctx.finding(
                        self, node,
                        f"direct import of concrete engine "
                        f"{alias.name!r}; route through repro.engines "
                        "(create_engine / Engine.synthesize) instead",
                    )


@register
class StoreLayeringRule(Rule):
    """numpy persistence primitives called outside the store boundary."""

    id = "store-layering"
    family = "layering"
    description = (
        "numpy persistence primitives (np.load, np.savez, np.memmap, ...) "
        "may only be called inside repro/store/; everything else goes "
        "through repro.store"
    )
    scope_field = None

    def applies_to(self, path: str, config: CheckConfig) -> bool:
        if any(fragment in path for fragment in config.store_allowed):
            return False
        return super().applies_to(path, config)

    def check(self, ctx: FileContext):
        flagged = frozenset(ctx.config.store_persistence_calls)
        if not flagged:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in flagged:
                continue
            if call_root(func) not in _NUMPY_NAMES:
                continue
            yield ctx.finding(
                self, node,
                f"direct numpy persistence call 'np.{func.attr}' outside "
                "the store boundary; route through repro.store "
                "(map_database / write_rdb) instead",
            )


__all__ = ["EngineLayeringRule", "StoreLayeringRule"]
