"""determinism: no hidden nondeterminism in compute paths.

The synthesis engine's results must be reproducible: the paper's tables
are exact counts, the service's result cache assumes a query's answer
never changes, and the benchmark harness compares byte-identical
outputs.  Any unseeded RNG or wall-clock read in a compute path breaks
that silently.

Flagged inside the configured scope (``repro/core``, ``repro/synth``,
``repro/engines``, ...):

* module-level ``random.*`` draws (global, unseeded RNG state);
* ``numpy.random`` legacy global functions (``np.random.seed``,
  ``np.random.shuffle``, ...) and ``default_rng()``/``RandomState()``
  called *without* a seed;
* wall-clock reads: ``time.time``, ``datetime.now``/``utcnow``/
  ``today`` (monotonic timers stay allowed -- they measure, they do not
  leak into results);
* entropy sources: ``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets.*``.

Observability code (``repro/service/metrics.py`` by default) is exempt
via config -- metrics legitimately timestamp things.
"""

from __future__ import annotations

import ast

from repro.checks.registry import FileContext, Rule, register

#: Module-level functions of ``random`` that draw from the global RNG.
_RANDOM_GLOBAL_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "getrandbits", "seed", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
    "randbytes",
})

#: Legacy numpy global-state RNG functions.
_NP_RANDOM_GLOBAL_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "shuffle", "permutation", "choice", "bytes", "uniform", "normal",
})

#: Wall-clock reads (exact dotted names after alias resolution).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime",
})

#: Entropy sources.
_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: datetime constructors that read the clock.
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})


def _dotted(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _alias_map(tree: ast.Module) -> dict[str, str]:
    """name-in-file -> canonical dotted prefix, from import statements."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


@register
class DeterminismRule(Rule):
    """Unseeded randomness and wall-clock reads in compute paths."""

    id = "nondeterminism"
    family = "determinism"
    description = (
        "no unseeded random / wall-clock / entropy calls in synthesis and "
        "worker compute paths (results must be reproducible)"
    )
    scope_field = "determinism_scope"

    def applies_to(self, path: str, config) -> bool:
        if any(fragment in path for fragment in config.determinism_exempt):
            return False
        return super().applies_to(path, config)

    def check(self, ctx: FileContext):
        aliases = _alias_map(ctx.tree)
        allowed_time = frozenset(ctx.config.allowed_time_functions)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            resolved_head = aliases.get(head, head)
            resolved = f"{resolved_head}.{rest}" if rest else resolved_head
            finding = self._classify(node, resolved, allowed_time)
            if finding is not None:
                yield ctx.finding(self, node, finding)

    def _classify(
        self, node: ast.Call, resolved: str, allowed_time: frozenset
    ) -> "str | None":
        parts = resolved.split(".")
        # random.<fn> on the module's global RNG.
        if parts[0] == "random" and len(parts) == 2 \
                and parts[1] in _RANDOM_GLOBAL_FNS:
            return (
                f"{resolved}() draws from the global unseeded RNG; use an "
                "explicitly seeded random.Random / MersenneTwister instance"
            )
        # numpy legacy global RNG, any alias depth: numpy.random.<fn>.
        if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            fn = parts[2]
            if fn in _NP_RANDOM_GLOBAL_FNS:
                return (
                    f"numpy.random.{fn}() mutates numpy's global RNG state; "
                    "pass an explicitly seeded numpy.random.Generator"
                )
            if fn in ("default_rng", "RandomState") and not node.args \
                    and not node.keywords:
                return (
                    f"numpy.random.{fn}() without a seed is nondeterministic; "
                    "pass an explicit seed"
                )
        if resolved in _WALL_CLOCK:
            return (
                f"{resolved}() reads the wall clock inside a compute path; "
                "use time.monotonic()/perf_counter() for timing, or plumb "
                "timestamps in from the caller"
            )
        if resolved.startswith("time.") and resolved not in allowed_time \
                and resolved not in _WALL_CLOCK and len(parts) == 2:
            # Unknown time.* function: conservatively ignore (strptime etc.)
            return None
        if resolved in _ENTROPY or parts[0] == "secrets":
            return (
                f"{resolved}() is an entropy source; compute paths must be "
                "reproducible from explicit seeds"
            )
        # datetime.datetime.now() / datetime.now() after from-import.
        if parts[0] == "datetime" and parts[-1] in _DATETIME_NOW:
            return (
                f"{resolved}() reads the wall clock; plumb timestamps in "
                "from the caller"
            )
        return None


__all__ = ["DeterminismRule"]
