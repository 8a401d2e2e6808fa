"""Domain-aware static analysis for the repro codebase.

The paper's packed-word arithmetic (Section 3.3) is only correct when
every intermediate value is truncated to 64 bits -- in C the hardware
does it, in Python nothing does, so an unmasked ``<<``/``+``/``~`` on a
packed word is a silent correctness bug.  Likewise the service daemon's
lock-guarded shared state and the reproducibility guarantees of the
synthesis engine are invariants no general-purpose linter understands.

``repro.checks`` is a small AST-based framework that encodes those
invariants as lint rules:

* **mask64** -- arithmetic on values derived from packed 64-bit words
  must flow through ``mask64``/an explicit ``& MASK64``.
* **lock-discipline** -- shared attributes must not be mutated both
  inside and outside ``with self._lock`` blocks, and blocking calls must
  not be made while a lock is held.
* **determinism** -- no unseeded randomness or wall-clock reads in
  synthesis/worker compute paths.
* **api-misuse** -- bare ``except:``, mutable default arguments, and
  canonical-table lookups not routed through a canonical representative.
* **todo-tracking** -- ``TODO``/``FIXME``/``XXX`` comments must carry a
  tracking reference.

With ``--graph`` a whole-program pass (:mod:`repro.checks.graph`) adds
cross-module rules on top of the per-file ones: ``lock-order-cycle``
(an interprocedural deadlock detector), ``cross-unmasked-op`` (mask64
taint that survives call boundaries), and ``layer-violation`` (the
declarative architecture DAG in :class:`CheckConfig`, the checker's one
policy).  The ``repro arch`` subcommand dumps the underlying import/lock
graphs.

Run it as ``repro check <paths>`` (or ``python -m repro check``).
Findings are suppressed inline with ``# repro: allow[rule-id] reason``;
the reason is mandatory.  See ``docs/CHECKS.md`` for the full rule
reference.
"""

from __future__ import annotations

from repro.checks.config import CheckConfig
from repro.checks.findings import Finding, Severity
from repro.checks.registry import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register,
)
from repro.checks.report import render_json, render_sarif, render_text
from repro.checks.runner import (
    CheckReport,
    check_paths,
    check_source,
)

__all__ = [
    "CheckConfig",
    "CheckReport",
    "Finding",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rules",
    "check_paths",
    "check_source",
    "get_rule",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
]
