"""Per-file symbol index: the unit the whole-program pass is built from.

One :class:`FileIndex` captures everything the graph layer needs to know
about a file *without* keeping its AST around: the module name derived
from its path, import-alias bindings, class/function definitions, call
sites (with the locks held at each one), lock acquisitions (with the
locks already held), and ``self.attr = ClassName(...)`` constructor
assignments used to resolve attribute method calls.

The index is a pure value, built from an AST by :func:`build_file_index`
and assembled into a project by :mod:`repro.checks.graph.project`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.astutil import expr_text, is_lock_expr


@dataclass(frozen=True)
class ImportEdge:
    """One import binding: ``import m`` or ``from m import n as a``."""

    module: str
    name: "str | None"
    alias: str
    line: int
    top_level: bool


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``callee`` is the raw dotted text (``self._batcher.put``,
    ``mask64``); resolution to a defined function happens at project
    level.  ``held`` is the tuple of lock tokens held locally at the
    call site, in acquisition order.
    """

    callee: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <lock>:`` entry, with the locks already held."""

    lock: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    cls: "str | None"
    name: str
    line: int
    params: tuple[str, ...]
    calls: tuple[CallSite, ...]
    acquires: tuple[LockAcquire, ...]


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: bases and constructor-assigned attr types."""

    name: str
    line: int
    bases: tuple[str, ...]
    #: ``self.<attr> = <Ctor>(...)`` assignments seen in any method:
    #: attr name -> raw dotted constructor text, resolved at project level.
    attr_types: "dict[str, str]" = field(default_factory=dict)


@dataclass(frozen=True)
class FileIndex:
    """Everything the graph layer keeps about one source file."""

    path: str
    module: str
    imports: tuple[ImportEdge, ...]
    functions: tuple[FunctionInfo, ...]
    classes: tuple[ClassInfo, ...]


def module_name_for(path: str) -> str:
    """Dotted module name derived from a posix path.

    Everything after the last ``src/`` segment (the repo's package
    root); the whole relative path otherwise, so scripts and benchmarks
    become ``scripts.foo``-style pseudo-modules that simply never match
    a ``repro``-scoped layer.
    """
    posix = path.replace("\\", "/")
    if "/src/" in posix:
        posix = posix.rsplit("/src/", 1)[1]
    elif posix.startswith("src/"):
        posix = posix[len("src/"):]
    posix = posix.removesuffix(".py")
    parts = [p for p in posix.split("/") if p and p not in (".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else posix


def _resolve_relative(
    module: "str | None", level: int, current: str, is_package: bool
) -> "str | None":
    """Absolute module for a ``from . import x``-style relative import."""
    if level == 0:
        return module
    parts = current.split(".")
    package = parts if is_package else parts[:-1]
    # level 1 = current package, 2 = its parent, ...
    if len(package) < level - 1 or (len(package) == 0 and module is None):
        return None
    base = package[: len(package) - (level - 1)]
    if module:
        return ".".join(base + [module]) if base else module
    return ".".join(base) if base else None


class _FunctionScan(ast.NodeVisitor):
    """Walk one function body collecting calls, lock acquisitions, and
    ``self.attr = Ctor(...)`` assignments, tracking held locks.

    Nested function/lambda bodies are not descended into: they execute
    later, under whatever locks *their* callers hold (same semantics as
    the per-file lock rules).
    """

    def __init__(
        self,
        lock_names: tuple[str, ...],
        lock_token: "LockTokenizer",
    ) -> None:
        self.lock_names = lock_names
        self.lock_token = lock_token
        self.lock_stack: "list[str]" = []
        self.calls: "list[CallSite]" = []
        self.acquires: "list[LockAcquire]" = []
        self.attr_ctors: "dict[str, str]" = {}

    def visit_With(self, node: ast.With) -> None:
        acquired: "list[str]" = []
        for item in node.items:
            if not is_lock_expr(item.context_expr, self.lock_names):
                continue
            raw = expr_text(item.context_expr)
            if raw is None:
                continue
            token = self.lock_token(raw)
            self.acquires.append(LockAcquire(
                lock=token,
                line=item.context_expr.lineno,
                col=item.context_expr.col_offset,
                held=tuple(self.lock_stack),
            ))
            acquired.append(token)
            self.lock_stack.append(token)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.lock_stack.pop()

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        callee = expr_text(node.func)
        if callee is not None:
            self.calls.append(CallSite(
                callee=callee,
                line=node.lineno,
                col=node.col_offset,
                held=tuple(self.lock_stack),
            ))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            ctor = expr_text(node.value.func)
            if ctor is not None:
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self.attr_ctors[target.attr] = ctor
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


class LockTokenizer:
    """Canonicalize a raw lock expression to a project-unique token.

    ``self._lock`` inside class ``C`` of module ``m`` becomes
    ``m.C._lock`` (shared across the class's methods); a module-level
    name becomes ``m.NAME``; anything else is scoped to the enclosing
    function (``m.C.f:<raw>``) so unrelated receivers never alias.
    """

    def __init__(self, module: str, cls: "str | None", func: str) -> None:
        self.module = module
        self.cls = cls
        self.func = func

    def __call__(self, raw: str) -> str:
        parts = raw.split(".")
        if parts[0] == "self" and self.cls is not None and len(parts) == 2:
            return f"{self.module}.{self.cls}.{parts[1]}"
        if len(parts) == 1:
            return f"{self.module}.{parts[0]}"
        qual = f"{self.cls}.{self.func}" if self.cls else self.func
        return f"{self.module}.{qual}:{raw}"


def _params_of(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> tuple[str, ...]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def build_file_index(
    path: str,
    tree: ast.Module,
    lock_names: tuple[str, ...],
) -> FileIndex:
    """Extract the :class:`FileIndex` of one parsed file."""
    posix = path.replace("\\", "/")
    module = module_name_for(posix)
    is_package = posix.endswith("__init__.py")
    imports: "list[ImportEdge]" = []
    functions: "list[FunctionInfo]" = []
    classes: "list[ClassInfo]" = []

    def scan_imports(node: ast.stmt, top_level: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append(ImportEdge(
                    module=alias.name,
                    name=None,
                    alias=alias.asname or alias.name.split(".")[0],
                    line=node.lineno,
                    top_level=top_level,
                ))
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(
                node.module, node.level, module, is_package
            )
            if target is None:
                return
            for alias in node.names:
                imports.append(ImportEdge(
                    module=target,
                    name=alias.name,
                    alias=alias.asname or alias.name,
                    line=node.lineno,
                    top_level=top_level,
                ))

    def scan_function(
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        cls: "ClassInfo | None",
    ) -> None:
        tokenizer = LockTokenizer(
            module, cls.name if cls else None, func.name
        )
        scan = _FunctionScan(lock_names, tokenizer)
        for stmt in func.body:
            scan.visit(stmt)
        qualname = f"{cls.name}.{func.name}" if cls else func.name
        functions.append(FunctionInfo(
            qualname=qualname,
            cls=cls.name if cls else None,
            name=func.name,
            line=func.lineno,
            params=_params_of(func),
            calls=tuple(scan.calls),
            acquires=tuple(scan.acquires),
        ))
        if cls is not None:
            cls.attr_types.update(scan.attr_ctors)

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            scan_imports(node, top_level=node in tree.body)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node, None)
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                text for text in (expr_text(b) for b in node.bases)
                if text is not None
            )
            info = ClassInfo(name=node.name, line=node.lineno, bases=bases)
            classes.append(info)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(item, info)

    return FileIndex(
        path=posix,
        module=module,
        imports=tuple(imports),
        functions=tuple(functions),
        classes=tuple(classes),
    )


__all__ = [
    "CallSite",
    "ClassInfo",
    "FileIndex",
    "FunctionInfo",
    "ImportEdge",
    "LockAcquire",
    "LockTokenizer",
    "build_file_index",
    "module_name_for",
]
