"""Project index: whole-program graphs derived from per-file indexes.

:func:`build_project` turns a set of parsed files into one
:class:`ProjectIndex`, which lazily derives:

* **import graph** -- module -> module edges with line numbers, split
  into top-level (import-time) and lazy (function-scoped) edges;
* **call graph** -- resolved call edges.  Resolution is deliberately
  conservative: a call links to a definition only when the receiver is
  provably known (module-local names, import aliases, ``self.method``
  within the class and its project-local bases, ``self.attr.method``
  through a recorded ``self.attr = ClassName(...)`` assignment, and
  ``Class(...)`` constructors).  Anything else stays unresolved rather
  than guessing -- false edges would manufacture false deadlocks;
* **lock graph** -- the held-while-acquiring relation: an edge
  ``A -> B`` means some execution path holds lock ``A`` while acquiring
  lock ``B``.  Locks held at a call site propagate into the callee
  (transitively, to a fixpoint), so an acquisition in a callee three
  frames down still sees the caller's locks.  A cycle in this relation
  is a deadlock schedule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.checks.config import CheckConfig
from repro.checks.graph.index import (
    CallSite,
    FileIndex,
    FunctionInfo,
    build_file_index,
)


@dataclass(frozen=True)
class ImportGraphEdge:
    """One module-level dependency edge."""

    src: str
    dst: str
    path: str
    line: int
    top_level: bool


@dataclass(frozen=True)
class CallEdge:
    """One resolved call edge between project-defined functions."""

    caller: str  #: module-qualified, e.g. ``repro.service.daemon.TCPDaemon.stop``
    callee: str
    path: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class LockEdge:
    """``held`` was held while ``acquired`` was acquired."""

    held: str
    acquired: str
    function: str
    path: str
    line: int
    col: int
    #: True when ``held`` arrived from a caller rather than this function.
    via_caller: bool


@dataclass
class _Function:
    """A project-qualified function with its defining file."""

    info: FunctionInfo
    index: FileIndex

    @property
    def qualified(self) -> str:
        return f"{self.index.module}.{self.info.qualname}"


class ProjectIndex:
    """All per-file indexes plus the derived whole-program graphs."""

    def __init__(self, files: "dict[str, FileIndex]", config: CheckConfig):
        self.files = files
        self.config = config
        #: module name -> defining file path.
        self.modules: "dict[str, str]" = {
            idx.module: path for path, idx in sorted(files.items())
        }
        self._functions: "dict[str, _Function] | None" = None
        self._import_edges: "list[ImportGraphEdge] | None" = None
        self._call_edges: "list[CallEdge] | None" = None
        self._lock_edges: "list[LockEdge] | None" = None

    # -- symbol tables -------------------------------------------------
    @property
    def functions(self) -> "dict[str, _Function]":
        """module-qualified name -> function, over every indexed file."""
        if self._functions is None:
            table: "dict[str, _Function]" = {}
            for _, idx in sorted(self.files.items()):
                for info in idx.functions:
                    table[f"{idx.module}.{info.qualname}"] = _Function(info, idx)
            self._functions = table
        return self._functions

    def classes_of(self, idx: FileIndex) -> "dict[str, str]":
        """Class name -> module-qualified name, for one file."""
        return {c.name: f"{idx.module}.{c.name}" for c in idx.classes}

    # -- import graph --------------------------------------------------
    @property
    def import_edges(self) -> "list[ImportGraphEdge]":
        """Module dependency edges (internal modules only as sources)."""
        if self._import_edges is None:
            edges: "list[ImportGraphEdge]" = []
            for path, idx in sorted(self.files.items()):
                seen: "set[tuple[str, int, bool]]" = set()
                for imp in idx.imports:
                    targets = [imp.module]
                    if imp.name is not None:
                        # ``from pkg import submodule`` binds a module.
                        dotted = f"{imp.module}.{imp.name}"
                        if dotted in self.modules:
                            targets.append(dotted)
                    for dst in targets:
                        if dst == idx.module:
                            continue
                        key = (dst, imp.line, imp.top_level)
                        if key in seen:
                            continue
                        seen.add(key)
                        edges.append(ImportGraphEdge(
                            src=idx.module, dst=dst, path=path,
                            line=imp.line, top_level=imp.top_level,
                        ))
            self._import_edges = edges
        return self._import_edges

    def import_cycles(self) -> "list[list[str]]":
        """Cycles among project modules along top-level import edges.

        A submodule's edge to its own ancestor package is skipped:
        ``from repro.core import packed`` inside ``repro.core.spec`` is
        satisfied from ``sys.modules`` while the package initializes --
        the idiomatic re-export pattern, not a hazard.  The dotted edge
        to the actual sibling (``repro.core.packed``) still counts.
        """
        adjacency: "dict[str, set[str]]" = {m: set() for m in self.modules}
        for edge in self.import_edges:
            if not edge.top_level or edge.dst not in adjacency:
                continue
            if edge.src == edge.dst or edge.src.startswith(edge.dst + "."):
                continue
            adjacency[edge.src].add(edge.dst)
        return [sorted(scc) for scc in _sccs(adjacency) if len(scc) > 1] + [
            [m] for m, deps in sorted(adjacency.items()) if m in deps
        ]

    # -- alias / call resolution ---------------------------------------
    def _alias_table(self, idx: FileIndex) -> "dict[str, str]":
        """Local binding name -> dotted project symbol or module."""
        table: "dict[str, str]" = {}
        for imp in idx.imports:
            if imp.name is None:
                table[imp.alias] = imp.module
            else:
                table[imp.alias] = f"{imp.module}.{imp.name}"
        return table

    def _resolve_symbol(self, idx: FileIndex, name: str) -> "str | None":
        """Module-local name -> qualified function/class, if defined here
        or bound by an import that lands on a project definition."""
        local = f"{idx.module}.{name}"
        if local in self.functions:
            return local
        if name in self.classes_of(idx):
            return local
        alias = self._alias_table(idx).get(name)
        if alias is None:
            return None
        if alias in self.functions:
            return alias
        # ``from m import C`` where C is a class defined in m.
        mod, _, terminal = alias.rpartition(".")
        target_path = self.modules.get(mod)
        if target_path is not None:
            target_idx = self.files[target_path]
            if terminal in self.classes_of(target_idx):
                return alias
        if alias in self.modules:
            return alias
        return None

    def _method_of(self, qual_cls: "str | None", method: str) -> "str | None":
        """``module.Class`` + method name -> qualified method, walking
        project-local base classes."""
        seen: "set[str]" = set()
        while qual_cls is not None and qual_cls not in seen:
            seen.add(qual_cls)
            candidate = f"{qual_cls}.{method}"
            if candidate in self.functions:
                return candidate
            mod, _, cls_name = qual_cls.rpartition(".")
            path = self.modules.get(mod)
            if path is None:
                return None
            idx = self.files[path]
            cls = next((c for c in idx.classes if c.name == cls_name), None)
            if cls is None or not cls.bases:
                return None
            qual_cls = self._resolve_symbol(idx, cls.bases[0].split(".")[-1])
        return None

    def resolve_call(
        self, idx: FileIndex, func: FunctionInfo, site: CallSite
    ) -> "str | None":
        """Resolve one call site to a qualified project function."""
        parts = site.callee.split(".")
        if len(parts) == 1:
            target = self._resolve_symbol(idx, parts[0])
            if target is None:
                return None
            if target in self.functions:
                return target
            # Constructor: ``C()`` runs ``C.__init__``.
            return self._method_of(target, "__init__")
        if parts[0] == "self" and func.cls is not None:
            qual_cls = f"{idx.module}.{func.cls}"
            if len(parts) == 2:
                return self._method_of(qual_cls, parts[1])
            if len(parts) == 3:
                # self.attr.method via a recorded constructor assignment.
                cls = next(
                    (c for c in idx.classes if c.name == func.cls), None
                )
                if cls is None:
                    return None
                ctor = cls.attr_types.get(parts[1])
                if ctor is None:
                    return None
                attr_cls = self._resolve_symbol(idx, ctor.split(".")[-1])
                if attr_cls is None:
                    return None
                return self._method_of(attr_cls, parts[2])
            return None
        if len(parts) == 2:
            base, method = parts
            # ``module_alias.func(...)``
            alias = self._alias_table(idx).get(base)
            if alias is not None and alias in self.modules:
                candidate = f"{alias}.{method}"
                if candidate in self.functions:
                    return candidate
                mod_idx = self.files[self.modules[alias]]
                if method in self.classes_of(mod_idx):
                    return self._method_of(candidate, "__init__")
                return None
            # ``ClassName.method(...)`` on a local or imported class.
            target = self._resolve_symbol(idx, base)
            if (
                target is not None
                and target not in self.functions
                and target not in self.modules
            ):
                return self._method_of(target, method)
        return None

    # -- call graph ----------------------------------------------------
    @property
    def call_edges(self) -> "list[CallEdge]":
        """Every resolved call edge in the project."""
        if self._call_edges is None:
            edges: "list[CallEdge]" = []
            for path, idx in sorted(self.files.items()):
                for info in idx.functions:
                    caller = f"{idx.module}.{info.qualname}"
                    for site in info.calls:
                        callee = self.resolve_call(idx, info, site)
                        if callee is None:
                            continue
                        edges.append(CallEdge(
                            caller=caller, callee=callee, path=path,
                            line=site.line, col=site.col, held=site.held,
                        ))
            self._call_edges = edges
        return self._call_edges

    # -- lock graph ----------------------------------------------------
    @property
    def lock_edges(self) -> "list[LockEdge]":
        """The held-while-acquiring relation, interprocedural."""
        if self._lock_edges is None:
            self._lock_edges = self._build_lock_edges()
        return self._lock_edges

    def _build_lock_edges(self) -> "list[LockEdge]":
        # Fixpoint: locks held at every call site flow into the callee's
        # entry set; monotone over finite lock sets, so it terminates.
        entry_held: "dict[str, set[str]]" = {}
        calls_into: "dict[str, list[CallEdge]]" = {}
        for edge in self.call_edges:
            calls_into.setdefault(edge.callee, []).append(edge)
        changed = True
        while changed:
            changed = False
            for callee, edges in calls_into.items():
                combined: "set[str]" = set()
                for edge in edges:
                    combined.update(edge.held)
                    combined.update(entry_held.get(edge.caller, ()))
                current = entry_held.setdefault(callee, set())
                if not combined <= current:
                    current |= combined
                    changed = True

        lock_edges: "list[LockEdge]" = []
        seen: "set[tuple[str, str, str]]" = set()
        for path, idx in sorted(self.files.items()):
            for info in idx.functions:
                qualified = f"{idx.module}.{info.qualname}"
                inherited = entry_held.get(qualified, set())
                for acq in info.acquires:
                    for held in sorted(set(acq.held) | inherited):
                        if held == acq.lock:
                            continue  # with A: with A: -- same token
                        key = (held, acq.lock, qualified)
                        if key in seen:
                            continue
                        seen.add(key)
                        lock_edges.append(LockEdge(
                            held=held, acquired=acq.lock,
                            function=qualified, path=path,
                            line=acq.line, col=acq.col,
                            via_caller=held not in acq.held,
                        ))
        return lock_edges

    def lock_cycles(self) -> "list[list[LockEdge]]":
        """Deadlock schedules: cycles in the held-while-acquiring graph.

        Returns one witness edge list per strongly-connected component,
        ordered lock-by-lock around the cycle.
        """
        adjacency: "dict[str, set[str]]" = {}
        by_pair: "dict[tuple[str, str], LockEdge]" = {}
        for edge in self.lock_edges:
            adjacency.setdefault(edge.held, set()).add(edge.acquired)
            adjacency.setdefault(edge.acquired, set())
            by_pair.setdefault((edge.held, edge.acquired), edge)
        cycles: "list[list[LockEdge]]" = []
        for scc in _sccs(adjacency):
            if len(scc) < 2:
                continue
            ordered = sorted(scc)
            witness: "list[LockEdge]" = []
            # Walk a cycle through the SCC: from each member, step to the
            # next member (any in-SCC successor) until back at the start.
            node = ordered[0]
            visited: "set[str]" = set()
            while node not in visited:
                visited.add(node)
                successor = min(
                    s for s in adjacency[node] if s in scc
                )
                witness.append(by_pair[(node, successor)])
                node = successor
            # The walk may carry a lead-in before it closes; trim to the
            # edge whose held lock is where the final acquisition lands.
            closing = witness[-1].acquired
            for i, edge in enumerate(witness):
                if edge.held == closing:
                    witness = witness[i:]
                    break
            cycles.append(witness)
        return cycles


@dataclass
class ProjectContext:
    """What a project-level rule receives: the index, the config, and
    lazy access to sources/ASTs for rules that need to re-analyze
    function bodies (the cross-mask taint pass)."""

    index: ProjectIndex
    config: CheckConfig
    get_source: "Callable[[str], str | None]"
    _trees: "dict[str, ast.Module]" = field(default_factory=dict)

    def get_tree(self, path: str) -> "ast.Module | None":
        if path in self._trees:
            return self._trees[path]
        source = self.get_source(path)
        if source is None:
            return None
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
        self._trees[path] = tree
        return tree


def build_project(
    sources: "Iterable[tuple[str, str]]",
    config: CheckConfig,
    trees: "dict[str, ast.Module] | None" = None,
) -> ProjectContext:
    """Index ``(path, source)`` pairs into a :class:`ProjectContext`.

    ``trees`` supplies already-parsed ASTs (the runner has them from the
    per-file pass); missing entries are parsed here.  Files matching the
    config's global ``exclude`` fragments and files that fail to parse
    are left out of the index.
    """
    files: "dict[str, FileIndex]" = {}
    source_map: "dict[str, str]" = {}
    tree_map: "dict[str, ast.Module]" = dict(trees or {})
    for path, source in sources:
        posix = path.replace("\\", "/")
        if any(fragment in posix for fragment in config.exclude):
            continue
        source_map[posix] = source
        tree = tree_map.get(posix) or tree_map.get(path)
        if tree is None:
            try:
                tree = ast.parse(source, filename=posix)
            except SyntaxError:
                continue
            tree_map[posix] = tree
        files[posix] = build_file_index(posix, tree, config.lock_names)
    project = ProjectIndex(files, config)
    context = ProjectContext(
        index=project,
        config=config,
        get_source=lambda p: source_map.get(p),
    )
    context._trees.update(tree_map)
    return context


def _sccs(adjacency: "dict[str, set[str]]") -> "list[list[str]]":
    """Tarjan's strongly-connected components, iterative."""
    index_of: "dict[str, int]" = {}
    lowlink: "dict[str, int]" = {}
    on_stack: "set[str]" = set()
    stack: "list[str]" = []
    result: "list[list[str]]" = []
    counter = 0

    for root in sorted(adjacency):
        if root in index_of:
            continue
        work: "list[tuple[str, Iterable[str]]]" = [
            (root, iter(sorted(adjacency[root])))
        ]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in adjacency:
                    continue
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: "list[str]" = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


__all__ = [
    "CallEdge",
    "ImportGraphEdge",
    "LockEdge",
    "ProjectContext",
    "ProjectIndex",
    "build_project",
]
