"""Whole-program rules: deadlock cycles, cross-module taint, layer DAG.

These are :class:`~repro.checks.registry.ProjectRule` subclasses -- they
register like any rule (so ``--select``, suppressions and ``--list-rules``
treat them uniformly) but only produce findings under
``repro check --graph``, when the runner has built a
:class:`~repro.checks.graph.project.ProjectContext`.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.findings import Finding, Severity
from repro.checks.graph.archspec import ArchSpec
from repro.checks.graph.masks import run_cross_mask
from repro.checks.graph.project import LockEdge, ProjectContext
from repro.checks.registry import ProjectRule, register


def _finding(
    rule: ProjectRule,
    path: str,
    line: int,
    col: int,
    message: str,
    severity: Severity = Severity.ERROR,
) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id=rule.id,
        family=rule.family,
        message=message,
        severity=severity,
    )


def _schedule(cycle: "list[LockEdge]") -> str:
    """Render a deadlock cycle as a hold-then-acquire schedule."""
    steps = []
    for edge in cycle:
        where = f"{edge.function} ({edge.path}:{edge.line})"
        via = " via caller" if edge.via_caller else ""
        steps.append(
            f"holds {edge.held}{via}, acquires {edge.acquired} in {where}"
        )
    return "; ".join(steps)


@register
class LockOrderCycleRule(ProjectRule):
    """Cycles in the held-while-acquiring relation are deadlock schedules."""

    id = "lock-order-cycle"
    family = "lock-discipline"
    description = (
        "two or more locks are acquired in conflicting orders across the "
        "call graph: concurrent threads can deadlock (requires --graph)"
    )
    scope_field = "lock_scope"

    def check_project(self, project: ProjectContext) -> "Iterator[Finding]":
        config = project.config
        for cycle in project.index.lock_cycles():
            anchor = next(
                (
                    edge for edge in cycle
                    if config.in_scope(edge.path, config.lock_scope)
                ),
                None,
            )
            if anchor is None:
                continue  # every participant is outside the lock scope
            locks = " -> ".join(
                [edge.held for edge in cycle] + [cycle[0].held]
            )
            yield _finding(
                self, anchor.path, anchor.line, anchor.col,
                f"lock-order cycle {locks}: {_schedule(cycle)}; impose a "
                "single acquisition order or collapse to one lock",
            )


@register
class CrossUnmaskedOpRule(ProjectRule):
    """Packed-word taint that only a call-boundary view can see."""

    id = "cross-unmasked-op"
    family = "mask64"
    description = (
        "unmasked growth arithmetic on a packed word returned by another "
        "function; found via interprocedural summaries (requires --graph)"
    )
    scope_field = "mask64_scope"

    def check_project(self, project: ProjectContext) -> "Iterator[Finding]":
        for finding in run_cross_mask(project, self):
            yield Finding(
                path=finding.path,
                line=finding.line,
                col=finding.col,
                rule_id=self.id,
                family=self.family,
                message=finding.message,
                severity=finding.severity,
            )


@register
class LayerViolationRule(ProjectRule):
    """Module-scope imports must follow the declared layer DAG."""

    id = "layer-violation"
    family = "layering"
    description = (
        "top-level import crosses the layer DAG declared in "
        "CheckConfig arch_layers/arch_allow, or modules form an "
        "import cycle (requires --graph)"
    )
    scope_field = None

    def check_project(self, project: ProjectContext) -> "Iterator[Finding]":
        spec = ArchSpec.from_config(project.config)
        for problem in spec.problems:
            yield _finding(
                self, "src/repro/checks/config.py", 1, 0, problem,
                severity=Severity.WARNING,
            )
        index = project.index
        for edge in index.import_edges:
            if not edge.top_level:
                continue  # lazy imports are the sanctioned upward pattern
            dst_path = index.modules.get(edge.dst)
            if dst_path is None:
                continue  # external dependency: out of the DAG's remit
            src_layer = spec.layer_of(edge.path)
            dst_layer = spec.layer_of(dst_path)
            if src_layer is None or dst_layer is None:
                continue
            if spec.edge_allowed(src_layer, dst_layer):
                continue
            yield _finding(
                self, edge.path, edge.line, 0,
                f"layer violation: {src_layer} module {edge.src} imports "
                f"{dst_layer} module {edge.dst} at module scope; allowed "
                f"dependencies of {src_layer} are: "
                f"{', '.join(spec.allow.get(src_layer, ())) or '(none)'}. "
                "Use a function-scoped import if the reference is "
                "genuinely lazy, or extend arch-allow",
            )
        for cycle in index.import_cycles():
            anchor_path = index.modules.get(cycle[0])
            if anchor_path is None:  # pragma: no cover - modules are indexed
                continue
            yield _finding(
                self, anchor_path, 1, 0,
                "import cycle among project modules: "
                + " -> ".join(cycle + [cycle[0]])
                + "; break it with a lazy import or an interface module",
            )


__all__ = [
    "CrossUnmaskedOpRule",
    "LayerViolationRule",
    "LockOrderCycleRule",
]
