"""Rule registry: declarative registration and lookup of check rules.

A rule is a class with ``id``, ``family``, ``description``, an optional
``scope_field`` naming the :class:`~repro.checks.config.CheckConfig`
attribute that scopes it, and a ``check(ctx)`` method yielding
:class:`~repro.checks.findings.Finding` objects.  Registration is a
decorator so adding a rule is one import away::

    @register
    class MyRule(Rule):
        id = "my-rule"
        family = "api-misuse"
        description = "..."

        def check(self, ctx):
            ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.config import CheckConfig
from repro.checks.findings import Finding, Severity


@dataclass
class FileContext:
    """Everything a rule needs to inspect one source file."""

    path: str
    source: str
    tree: ast.Module
    #: ``(line, col, text)`` for every comment token in the file.
    comments: list = field(default_factory=list)
    config: CheckConfig = field(default_factory=CheckConfig)

    def finding(
        self,
        rule: "Rule",
        node: "ast.AST | tuple[int, int]",
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a finding anchored at an AST node or ``(line, col)``."""
        if isinstance(node, tuple):
            line, col = node
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col,
            rule_id=rule.id,
            family=rule.family,
            message=message,
            severity=severity,
        )


class Rule:
    """Base class for check rules; subclass and :func:`register`."""

    #: Stable identifier used in suppressions and ``--select``.
    id: str = ""
    #: Family grouping (mask64, lock-discipline, determinism, ...).
    family: str = ""
    #: One-line human description shown by ``repro check --list-rules``.
    description: str = ""
    #: Name of the CheckConfig attribute holding this rule's path scope,
    #: or None to run on every file.
    scope_field: "str | None" = None
    #: True for whole-program rules (run once per project under
    #: ``--graph``, not once per file).
    project: bool = False

    def applies_to(self, path: str, config: CheckConfig) -> bool:
        """True when the rule should run on ``path``."""
        if self.scope_field is None:
            return config.in_scope(path, ())
        return config.in_scope(path, getattr(config, self.scope_field))

    def check(self, ctx: FileContext):
        """Yield findings for one file; overridden by subclasses."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Rule {self.id} ({self.family})>"


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Project rules never run in the per-file loop (:meth:`check` yields
    nothing); under ``repro check --graph`` the runner builds one
    :class:`~repro.checks.graph.project.ProjectContext` and calls
    :meth:`check_project` once.  Findings are still anchored at file
    locations, so inline suppressions and per-rule scopes apply
    normally.
    """

    project = True

    def check(self, ctx: FileContext):
        return iter(())

    def check_project(self, project):
        """Yield findings for the whole project; overridden."""
        raise NotImplementedError


_REGISTRY: "dict[str, Rule]" = {}


def register(rule_cls):
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not rule.id or not rule.family:
        raise ValueError(f"rule {rule_cls.__name__} must define id and family")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (import side effect loads
    the built-in rule modules)."""
    import repro.checks.rules  # noqa: F401  (registers built-ins)

    return [rule for _, rule in sorted(_REGISTRY.items())]


def get_rule(rule_id: str) -> "Rule | None":
    """Look up one rule by id (None when unknown)."""
    import repro.checks.rules  # noqa: F401

    return _REGISTRY.get(rule_id)


def select_rules(select: "tuple[str, ...] | list[str] | None") -> list[Rule]:
    """Rules matching ``select`` entries (ids or family names); all rules
    when ``select`` is falsy.  Unknown entries raise ``ValueError``."""
    rules = all_rules()
    if not select:
        return rules
    wanted = set(select)
    known = {r.id for r in rules} | {r.family for r in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule or family: {', '.join(sorted(unknown))}"
        )
    return [r for r in rules if r.id in wanted or r.family in wanted]


__all__ = [
    "FileContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "select_rules",
]
