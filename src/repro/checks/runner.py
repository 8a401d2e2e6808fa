"""Check runner: file discovery, rule dispatch, suppression filtering.

Entry points:

* :func:`check_paths` -- run rules over files/directories, as the
  ``repro check`` CLI does.  With ``graph=True`` the per-file pass is
  followed by a whole-program pass: every parsed file is folded into a
  :class:`~repro.checks.graph.project.ProjectIndex` and the registered
  :class:`~repro.checks.registry.ProjectRule` rules run once over it;
* :func:`check_source` -- run per-file rules over an in-memory source
  string (used by the self-tests; ``path`` still matters because rule
  scopes match on it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.checks.config import CheckConfig
from repro.checks.findings import Finding, Severity
from repro.checks.registry import (
    FileContext,
    ProjectRule,
    Rule,
    select_rules,
)
from repro.checks.suppressions import (
    Suppression,
    apply_suppressions,
    extract_comments,
    parse_suppressions,
)


@dataclass
class CheckReport:
    """Aggregated result of one check run."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed: "list[Finding]" = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def merge(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked

    def sort(self) -> None:
        self.findings.sort(key=Finding.sort_key)
        self.suppressed.sort(key=Finding.sort_key)


def iter_python_files(paths: "list[str | Path]") -> "list[Path]":
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: set = set()
    result: "list[Path]" = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            try:
                key = candidate.resolve()
            except OSError:  # pragma: no cover - unresolvable path
                key = candidate
            if key not in seen:
                seen.add(key)
                result.append(candidate)
    return result


def _check_file(
    source: str,
    posix: str,
    config: CheckConfig,
    rules: "list[Rule]",
) -> "tuple[CheckReport, ast.Module | None, list[Suppression]]":
    """Per-file pass for one source: report plus reusable artifacts."""
    report = CheckReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as exc:
        report.findings.append(Finding(
            path=posix,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id="parse-error",
            family="checks",
            message=f"file does not parse: {exc.msg}",
            severity=Severity.ERROR,
        ))
        return report, None, []
    comments = extract_comments(source)
    ctx = FileContext(
        path=posix, source=source, tree=tree, comments=comments, config=config
    )
    raw: "list[Finding]" = []
    for rule in rules:
        if rule.project:
            continue  # whole-program rules run after the per-file loop
        if not rule.applies_to(posix, config):
            continue
        raw.extend(rule.check(ctx))
    suppressions, problems = parse_suppressions(
        source, comments, posix, tree=tree
    )
    kept, suppressed = apply_suppressions(raw, suppressions)
    report.findings.extend(kept)
    report.findings.extend(problems)
    report.suppressed.extend(suppressed)
    report.sort()
    return report, tree, suppressions


def check_source(
    source: str,
    path: str = "<string>",
    config: "CheckConfig | None" = None,
    select: "tuple[str, ...] | list[str] | None" = None,
) -> CheckReport:
    """Run the (selected) per-file rules over one in-memory source string.

    ``path`` participates in scope matching, so tests pass values like
    ``src/repro/core/example.py`` to trigger scoped rules.
    """
    if config is None:
        config = CheckConfig()
    rules = select_rules(select)
    posix = path.replace("\\", "/")
    report, _, _ = _check_file(source, posix, config, rules)
    return report


def _run_project_rules(
    rules: "list[Rule]",
    sources: "dict[str, str]",
    trees: "dict[str, ast.Module]",
    suppression_map: "dict[str, list[Suppression]]",
    config: CheckConfig,
) -> CheckReport:
    """Whole-program pass: build the project index, run ProjectRules."""
    from repro.checks.graph.project import build_project

    report = CheckReport()
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if not project_rules:
        return report
    project = build_project(sources.items(), config, trees=trees)
    for rule in project_rules:
        raw = [
            finding for finding in rule.check_project(project)
            if rule.applies_to(finding.path, config)
        ]
        for finding in raw:
            covered = any(
                s.covers(finding)
                for s in suppression_map.get(finding.path, [])
            )
            if covered:
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return report


def check_paths(
    paths: "list[str | Path]",
    config: "CheckConfig | None" = None,
    select: "tuple[str, ...] | list[str] | None" = None,
    graph: bool = False,
) -> CheckReport:
    """Run the (selected) rules over files and directory trees.

    ``config`` defaults to :class:`CheckConfig` (the checker's policy);
    ``graph=True`` adds the whole-program pass.
    """
    if config is None:
        config = CheckConfig()
    rules = select_rules(select)
    report = CheckReport()
    sources: "dict[str, str]" = {}
    trees: "dict[str, ast.Module]" = {}
    suppression_map: "dict[str, list[Suppression]]" = {}
    for path in iter_python_files(paths):
        posix = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            report.findings.append(Finding(
                path=posix, line=1, col=0,
                rule_id="read-error", family="checks",
                message=f"cannot read file: {exc}",
                severity=Severity.ERROR,
            ))
            report.files_checked += 1
            continue
        file_report, tree, suppressions = _check_file(
            source, posix, config, rules
        )
        report.merge(file_report)
        if graph:
            sources[posix] = source
            if tree is not None:
                trees[posix] = tree
            suppression_map[posix] = suppressions
    if graph:
        report.merge(_run_project_rules(
            rules, sources, trees, suppression_map, config
        ))
    report.sort()
    return report


__all__ = [
    "CheckReport",
    "check_paths",
    "check_source",
    "iter_python_files",
]
