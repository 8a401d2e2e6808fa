"""Declarative architecture spec: the layer DAG in :class:`CheckConfig`.

One spec replaces the two ad-hoc layering rules the checker used to
carry: each layer names the path fragments it owns, and ``arch_allow``
lists which *lower* layers its modules may import at module scope.
Lazy (function-scoped) imports are exempt from the DAG -- they are the
sanctioned pattern for upward references that must not exist at import
time (the CLI's lazy subcommand imports, perf suites driving the
daemon) -- but they still appear in ``repro arch`` output as soft
edges, and the protected-name rules (``engine-layering``,
``store-layering``) apply to them like everywhere else.

Entry syntax (the defaults in :class:`~repro.checks.config.CheckConfig`
are the repository's DAG; tests build small ones)::

    CheckConfig(
        arch_layers=(
            "core: repro/core/ repro/hashing/",
            "engines: repro/engines/",
        ),
        arch_allow=("engines -> core",),
    )

A module matches the layer owning the longest fragment that appears in
its path; unmatched modules are unconstrained.  Malformed entries are
reported as findings by the ``layer-violation`` rule rather than
crashing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks.config import CheckConfig


@dataclass(frozen=True)
class ArchSpec:
    """Parsed layer DAG plus the protected-name boundary data."""

    #: Layer name -> path fragments it owns.
    layers: "dict[str, tuple[str, ...]]" = field(default_factory=dict)
    #: Layer name -> layers its modules may import at module scope
    #: (its own layer is always allowed).
    allow: "dict[str, tuple[str, ...]]" = field(default_factory=dict)
    #: Entries that failed to parse, as human-readable messages.
    problems: tuple[str, ...] = ()

    @staticmethod
    def from_config(config: CheckConfig) -> "ArchSpec":
        layers: "dict[str, tuple[str, ...]]" = {}
        allow: "dict[str, tuple[str, ...]]" = {}
        problems: "list[str]" = []
        for entry in config.arch_layers:
            name, sep, rest = entry.partition(":")
            name = name.strip()
            fragments = tuple(rest.split())
            if not sep or not name or not fragments:
                problems.append(
                    f"malformed arch-layers entry {entry!r}: "
                    "expected 'name: fragment [fragment ...]'"
                )
                continue
            if name in layers:
                problems.append(f"duplicate arch-layers entry {name!r}")
                continue
            layers[name] = fragments
        for entry in config.arch_allow:
            name, sep, rest = entry.partition("->")
            name = name.strip()
            deps = tuple(rest.split())
            if not sep or not name:
                problems.append(
                    f"malformed arch-allow entry {entry!r}: "
                    "expected 'layer -> dep [dep ...]'"
                )
                continue
            unknown = [d for d in (name, *deps) if d not in layers]
            if unknown:
                problems.append(
                    f"arch-allow entry {entry!r} names unknown "
                    f"layer(s): {', '.join(unknown)}"
                )
                continue
            allow[name] = deps
        return ArchSpec(
            layers=layers, allow=allow, problems=tuple(problems)
        )

    def layer_of(self, path: str) -> "str | None":
        """The layer owning ``path`` (longest matching fragment wins)."""
        best: "str | None" = None
        best_len = 0
        for name, fragments in self.layers.items():
            for fragment in fragments:
                if fragment in path and len(fragment) > best_len:
                    best = name
                    best_len = len(fragment)
        return best

    def edge_allowed(self, src_layer: str, dst_layer: str) -> bool:
        """True when modules of ``src_layer`` may import ``dst_layer``."""
        if src_layer == dst_layer:
            return True
        return dst_layer in self.allow.get(src_layer, ())


__all__ = ["ArchSpec"]
