"""Whole-program analysis layer for :mod:`repro.checks`.

Per-file rules see one AST at a time; the invariants they guard are
whole-program facts.  This package folds each parsed file into a symbol
index (:mod:`~repro.checks.graph.index`) and derives three artifacts
(:mod:`~repro.checks.graph.project`):

* the **import graph** -- module-level dependency edges, split into
  top-level (import-time) and lazy (function-scoped) edges;
* the **call graph** -- direct calls, ``self.method`` resolution within
  a class, and ``self.attr.method`` resolution through constructor
  assignments recorded in the index;
* the **lock-acquisition graph** -- which locks are held at each call
  site, propagated interprocedurally along the call graph into a
  held-while-acquiring relation.

Three rule families run on top (:mod:`~repro.checks.graph.rules`):
``lock-order-cycle`` (a real deadlock detector), ``cross-unmasked-op``
(mask64 taint that survives call boundaries via function summaries),
and ``layer-violation`` (the declarative architecture DAG in
:class:`~repro.checks.config.CheckConfig`, which also rejects import
cycles).

Entry points: ``repro check --graph`` and ``repro arch``.
"""

from __future__ import annotations

from repro.checks.graph.index import FileIndex, build_file_index
from repro.checks.graph.project import ProjectContext, ProjectIndex, build_project

__all__ = [
    "FileIndex",
    "ProjectContext",
    "ProjectIndex",
    "build_file_index",
    "build_project",
]
