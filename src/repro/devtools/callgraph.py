"""Project-wide symbol table and call graph for the purity analyzer.

The per-file rules (:mod:`repro.devtools.rules`) see one module at a
time; the purity contract ("every sweep cell is a pure function of its
config") is a *whole-program* property -- a wall-clock read three
calls deep is invisible per file.  This module builds the global view:

* **Module discovery** -- every ``.py`` file under the lint paths,
  with its dotted module name derived by walking up through
  ``__init__.py`` packages (so the same code indexes ``src/repro`` and
  a test fixture package in a tmpdir alike).
* **Symbol table** -- every module-level function, class, and method
  gets a stable qualified name (``repro.netsim.bgp.propagate``,
  ``repro.netsim.anycast.AnycastPrefix.routing``); module-level
  variable names are recorded so the effect pass can tell a global
  mutation from a local one.
* **Call graph** -- for every function, each call site is resolved to
  project functions where the code gives us the means: absolute and
  relative imports (reusing :class:`~repro.devtools.imports.ImportMap`),
  module-local names, ``self``/``cls`` methods (following project base
  classes), annotation-guided receiver types (parameter annotations,
  class attribute types, annotated locals, constructor assignments,
  project return annotations), and -- as a last resort -- methods whose
  name is defined by exactly one project class and is not a common
  container-method name.

Python being Python, this is a *best-effort may-analysis*: dynamic
dispatch the resolver cannot see produces missing edges, and the
unique-name fallback can produce extra ones.  The effect pass inherits
both properties; the runtime sanitizer (:mod:`repro.devtools.sanitize`)
exists to catch what the static side misses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .imports import ImportMap
from .registry import SourceError, read_source
from .runner import iter_python_files

#: Method names so common on builtin containers that a name-based
#: fallback would mostly produce phantom edges (``config.get`` is a
#: dict, not :class:`RngFactory`).  Calls to these resolve only
#: through a typed receiver.
AMBIENT_METHODS = frozenset(
    {
        "add", "append", "clear", "copy", "count", "discard", "extend",
        "get", "index", "insert", "items", "join", "keys", "pop",
        "popitem", "remove", "reverse", "setdefault", "sort", "split",
        "strip", "update", "values", "write", "read", "close", "open",
        "format", "encode", "decode", "startswith", "endswith", "sum",
        "mean", "min", "max", "all", "any", "flush", "seek", "tell",
    }
)


@dataclass(frozen=True, slots=True)
class CallEdge:
    """One resolved call site: *caller* invokes *callee* at a line."""

    caller: str
    callee: str
    line: int
    col: int


@dataclass(slots=True)
class FunctionInfo:
    """One project function or method."""

    qualname: str
    module: str
    path: str
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    #: Qualified name of the project class this returns, if its return
    #: annotation resolves to one.
    returns_class: str | None = None


@dataclass(slots=True)
class ClassInfo:
    """One project class: methods, bases, and attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base-class qualnames that resolved to project classes.
    bases: tuple[str, ...] = ()
    #: Method name -> function qualname (own methods only; lookup
    #: walks :attr:`bases`).
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name -> project-class qualname, from class-body
    #: annotations and ``self.x = Ctor(...)`` / ``self.x: T`` in
    #: method bodies.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module and its locally visible names."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    imports: ImportMap
    #: Module-level variable names (assignment targets at module scope).
    global_names: frozenset[str] = frozenset()


def module_name_for(path: Path) -> tuple[str, bool]:
    """(dotted module name, is_package) for *path*.

    The package root is found by walking up while ``__init__.py``
    exists, so ``src/repro/netsim/bgp.py`` maps to
    ``repro.netsim.bgp`` without hard-coding a layout, and a fixture
    package in a tmpdir maps the same way.
    """
    path = path.resolve()
    parts = [path.stem]
    is_package = path.name == "__init__.py"
    if is_package:
        parts = [path.parent.name]
        current = path.parent.parent
    else:
        current = path.parent
        if (current / "__init__.py").exists():
            parts.insert(0, current.name)
            current = current.parent
        else:
            return path.stem, False
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        current = current.parent
    if is_package and len(parts) == 1:
        pass  # top-level package
    return ".".join(p for p in parts if p), is_package


def _module_globals(tree: ast.Module) -> frozenset[str]:
    """Names bound by assignment at module scope."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.If, ast.Try)):
            # One level of conditional module-level assignment is
            # common (version guards); recurse shallowly.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        names.update(_target_names(target))
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    names.update(_target_names(sub.target))
    return frozenset(names)


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """The dotted name an annotation spells, unwrapping strings,
    ``X | None`` unions, and ``Optional``-style subscripts' heads."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(
        annotation.op, ast.BitOr
    ):
        # ``X | None`` (or ``None | X``): take the non-None side.
        left = _annotation_name(annotation.left)
        if left is not None and left != "None":
            return left
        return _annotation_name(annotation.right)
    if isinstance(annotation, ast.Subscript):
        return None  # dict[...] / list[...] heads are containers
    chain: list[str] = []
    current: ast.expr = annotation
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    chain.append(current.id)
    return ".".join(reversed(chain))


def _container_value_annotation(
    annotation: ast.expr | None,
) -> str | None:
    """For ``dict[K, V]`` / ``list[V]`` annotations, the dotted name of
    the value type (so ``probers[letter]`` resolves to the prober
    class)."""
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if not isinstance(annotation, ast.Subscript):
        return None
    head = _annotation_name(annotation.value)
    if head not in ("dict", "Dict", "list", "List", "tuple", "Tuple",
                    "Mapping", "MutableMapping", "Sequence"):
        return None
    inner = annotation.slice
    if isinstance(inner, ast.Tuple) and inner.elts:
        return _annotation_name(inner.elts[-1])
    return _annotation_name(inner)


@dataclass(slots=True)
class ProjectIndex:
    """The whole-program view: modules, symbols, and the call graph."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: caller qualname -> resolved call edges, in source order.
    calls: dict[str, list[CallEdge]] = field(default_factory=dict)
    #: Files that could not be read or parsed: (path, message).
    errors: list[tuple[str, str]] = field(default_factory=list)
    #: method name -> sorted qualnames of classes defining it.
    _methods_by_name: dict[str, list[str]] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, paths: Sequence[str]) -> "ProjectIndex":
        """Index every Python file under *paths* and link the call
        graph.  Files :func:`~repro.devtools.registry.read_source`
        cannot read or parse are recorded in :attr:`errors` and
        skipped."""
        index = cls()
        for file_path in iter_python_files(paths):
            name = file_path.as_posix()
            try:
                _, tree = read_source(name)
            except SourceError as exc:
                index.errors.append((name, str(exc)))
                continue
            module, is_package = module_name_for(file_path)
            if module in index.modules:
                continue  # first spelling wins (duplicate path args)
            index.modules[module] = ModuleInfo(
                name=module,
                path=name,
                tree=tree,
                is_package=is_package,
                imports=ImportMap.from_tree(
                    tree, module=module, is_package=is_package
                ),
                global_names=_module_globals(tree),
            )
            index._collect_symbols(index.modules[module])
        index._link_classes()
        index._link_calls()
        return index

    def _collect_symbols(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    path=module.path,
                    line=node.lineno,
                    node=node,
                )
            elif isinstance(node, ast.ClassDef):
                class_qualname = f"{module.name}.{node.name}"
                info = ClassInfo(
                    qualname=class_qualname,
                    module=module.name,
                    node=node,
                )
                self.classes[class_qualname] = info
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method_qualname = f"{class_qualname}.{item.name}"
                        info.methods[item.name] = method_qualname
                        self.functions[method_qualname] = FunctionInfo(
                            qualname=method_qualname,
                            module=module.name,
                            path=module.path,
                            line=item.lineno,
                            node=item,
                            class_qualname=class_qualname,
                        )
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        annotated = _annotation_name(item.annotation)
                        if annotated is not None:
                            # Resolved against project classes later,
                            # once every module is indexed.
                            info.attr_types[item.target.id] = annotated

    # -- linking -------------------------------------------------------

    def _resolve_class_name(
        self, module: ModuleInfo, dotted: str
    ) -> str | None:
        """A dotted name written in *module* -> project class qualname."""
        head, _, rest = dotted.partition(".")
        target = module.imports.bindings.get(head)
        if target is not None:
            candidate = target + (f".{rest}" if rest else "")
        else:
            candidate = f"{module.name}.{dotted}"
        if candidate in self.classes:
            return candidate
        if dotted in self.classes:
            return dotted
        return None

    def _link_classes(self) -> None:
        for info in self.classes.values():
            module = self.modules[info.module]
            bases: list[str] = []
            for base in info.node.bases:
                dotted = _annotation_name(base)
                if dotted is None:
                    continue
                resolved = self._resolve_class_name(module, dotted)
                if resolved is not None:
                    bases.append(resolved)
            info.bases = tuple(bases)
            # Re-resolve the textual attribute annotations now that the
            # full class table exists, and add ``self.x = Ctor(...)``.
            resolved_attrs: dict[str, str] = {}
            for attr, dotted in info.attr_types.items():
                resolved = self._resolve_class_name(module, dotted)
                if resolved is not None:
                    resolved_attrs[attr] = resolved
            for method_name in info.methods:
                function = self.functions[info.methods[method_name]]
                self._collect_self_attr_types(
                    module, function.node, resolved_attrs
                )
            info.attr_types = resolved_attrs
        for function in self.functions.values():
            module = self.modules[function.module]
            returns = _annotation_name(function.node.returns)
            if returns is not None:
                function.returns_class = self._resolve_class_name(
                    module, returns
                )
        for qualname, info in sorted(self.classes.items()):
            for method_name in info.methods:
                self._methods_by_name.setdefault(method_name, []).append(
                    qualname
                )

    def _collect_self_attr_types(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        out: dict[str, str],
    ) -> None:
        for statement in ast.walk(node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign) and len(
                statement.targets
            ) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if attr in out:
                continue
            if isinstance(statement, ast.AnnAssign):
                dotted = _annotation_name(statement.annotation)
                if dotted is not None:
                    resolved = self._resolve_class_name(module, dotted)
                    if resolved is not None:
                        out[attr] = resolved
                        continue
            if (
                value is not None
                and isinstance(value, ast.Call)
            ):
                dotted = _annotation_name(value.func)
                if dotted is not None:
                    resolved = self._resolve_class_name(module, dotted)
                    if resolved is not None:
                        out[attr] = resolved

    # -- call resolution -----------------------------------------------

    def _link_calls(self) -> None:
        for qualname in sorted(self.functions):
            function = self.functions[qualname]
            module = self.modules[function.module]
            resolver = _FunctionResolver(self, module, function)
            self.calls[qualname] = resolver.edges()

    def method_on(self, class_qualname: str, method: str) -> str | None:
        """Function qualname of *method* on a class, following project
        base classes depth-first."""
        seen: set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def unique_method(self, method: str) -> str | None:
        """The single project method of this name, if exactly one
        class defines it and the name is not container-ambient."""
        if method in AMBIENT_METHODS or method.startswith("__"):
            return None
        owners = self._methods_by_name.get(method, [])
        if len(owners) != 1:
            return None
        return self.classes[owners[0]].methods[method]

    def callees_of(self, qualname: str) -> list[CallEdge]:
        return self.calls.get(qualname, [])

    # -- SCC condensation ----------------------------------------------

    def sccs(self) -> list[list[str]]:
        """Strongly connected components of the call graph in reverse
        topological order (callees before callers), via iterative
        Tarjan -- so the effect pass can run one bottom-up sweep."""
        index_counter = 0
        stack: list[str] = []
        on_stack: set[str] = set()
        indices: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        result: list[list[str]] = []

        for root in sorted(self.functions):
            if root in indices:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    indices[node] = lowlink[node] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack.add(node)
                edges = [
                    e.callee
                    for e in self.callees_of(node)
                    if e.callee in self.functions
                ]
                advanced = False
                while edge_index < len(edges):
                    callee = edges[edge_index]
                    edge_index += 1
                    if callee not in indices:
                        work[-1] = (node, edge_index)
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node] = min(
                            lowlink[node], indices[callee]
                        )
                if advanced:
                    continue
                work[-1] = (node, edge_index)
                if edge_index >= len(edges):
                    work.pop()
                    if lowlink[node] == indices[node]:
                        component: list[str] = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        result.append(sorted(component))
                    if work:
                        parent, _ = work[-1]
                        lowlink[parent] = min(
                            lowlink[parent], lowlink[node]
                        )
        return result


class _FunctionResolver:
    """Resolves one function's call sites against the project index."""

    def __init__(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        function: FunctionInfo,
    ) -> None:
        self.index = index
        self.module = module
        self.function = function
        #: Filled by :meth:`_infer_local_types`; starts empty because
        #: inference itself resolves calls (for project return types)
        #: and those lookups must see the bindings made so far.
        self.local_types: dict[str, str] = {}
        self._infer_local_types()

    # Local inference: parameter annotations, annotated locals, and
    # constructor assignments give receiver types for method calls.
    def _infer_local_types(self) -> None:
        types = self.local_types
        node = self.function.node
        args = node.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ):
            dotted = _annotation_name(arg.annotation)
            if dotted is not None:
                resolved = self.index._resolve_class_name(
                    self.module, dotted
                )
                if resolved is not None:
                    types[arg.arg] = resolved
        if self.function.class_qualname is not None:
            all_args = [*args.posonlyargs, *args.args]
            if all_args:
                first = all_args[0].arg
                if first in ("self", "cls"):
                    types[first] = self.function.class_qualname
        for statement in ast.walk(node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign) and len(
                statement.targets
            ) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target = statement.target
                value = statement.value
                if isinstance(target, ast.Name):
                    dotted = _annotation_name(statement.annotation)
                    if dotted is not None:
                        resolved = self.index._resolve_class_name(
                            self.module, dotted
                        )
                        if resolved is not None:
                            types.setdefault(target.id, resolved)
                            continue
            if not isinstance(target, ast.Name) or value is None:
                continue
            inferred = self._class_of_value(value)
            if inferred is not None:
                types.setdefault(target.id, inferred)

    def _class_of_value(self, value: ast.expr) -> str | None:
        """Project class an expression evaluates to, if inferable."""
        if isinstance(value, ast.Call):
            dotted = _annotation_name(value.func)
            if dotted is not None:
                resolved = self.index._resolve_class_name(
                    self.module, dotted
                )
                if resolved is not None:
                    return resolved
            for callee in self._resolve_call(value.func):
                returns = self.index.functions[callee].returns_class
                if returns is not None:
                    return returns
            return None
        return self._class_of(value)

    def _class_of(self, expr: ast.expr) -> str | None:
        """Project class of a receiver expression, if inferable."""
        if isinstance(expr, ast.Name):
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._class_of(expr.value)
            if owner is not None:
                info = self.index.classes.get(owner)
                while info is not None:
                    if expr.attr in info.attr_types:
                        return info.attr_types[expr.attr]
                    # Property-style access through a method with a
                    # project return annotation.
                    method = info.methods.get(expr.attr)
                    if method is not None:
                        return self.index.functions[
                            method
                        ].returns_class
                    info = (
                        self.index.classes.get(info.bases[0])
                        if info.bases
                        else None
                    )
            return None
        if isinstance(expr, ast.Call):
            return self._class_of_value(expr)
        if isinstance(expr, ast.Subscript):
            # ``probers[letter]`` with ``probers`` an annotated
            # container local: use the container's value type.
            if isinstance(expr.value, ast.Name):
                annotation = self._local_annotation(expr.value.id)
                dotted = _container_value_annotation(annotation)
                if dotted is not None:
                    return self.index._resolve_class_name(
                        self.module, dotted
                    )
        return None

    def _local_annotation(self, name: str) -> ast.expr | None:
        node = self.function.node
        for arg in (
            *node.args.posonlyargs, *node.args.args,
            *node.args.kwonlyargs,
        ):
            if arg.arg == name:
                return arg.annotation
        for statement in ast.walk(node):
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == name
            ):
                return statement.annotation
        return None

    def _resolve_dotted(self, dotted: str) -> list[str]:
        """A fully resolved dotted path -> project function targets."""
        if dotted in self.index.functions:
            return [dotted]
        if dotted in self.index.classes:
            init = self.index.method_on(dotted, "__init__")
            return [init] if init is not None else []
        return []

    def _resolve_call(self, func: ast.expr) -> list[str]:
        if isinstance(func, ast.Name):
            name = func.id
            # Module-local function or class shadows imports.
            local = f"{self.module.name}.{name}"
            targets = self._resolve_dotted(local)
            if targets:
                return targets
            imported = self.module.imports.bindings.get(name)
            if imported is not None:
                return self._resolve_dotted(imported)
            return []
        if isinstance(func, ast.Attribute):
            # Fully dotted references through imports or module-local
            # classes (``bgp.propagate``, ``AnycastPrefix.routing``).
            dotted = _annotation_name(func)
            if dotted is not None:
                resolved = self.module.imports.resolve(func)
                if resolved is not None:
                    targets = self._resolve_dotted(resolved)
                    if targets:
                        return targets
                targets = self._resolve_dotted(
                    f"{self.module.name}.{dotted}"
                )
                if targets:
                    return targets
            # Typed receiver.
            owner = self._class_of(func.value)
            if owner is not None:
                method = self.index.method_on(owner, func.attr)
                return [method] if method is not None else []
            # Unique project method name (non-ambient).
            unique = self.index.unique_method(func.attr)
            if unique is not None:
                return [unique]
            return []
        return []

    def edges(self) -> list[CallEdge]:
        found: list[CallEdge] = []
        seen: set[tuple[str, int, int]] = set()
        for node in ast.walk(self.function.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self._resolve_call(node.func):
                key = (callee, node.lineno, node.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                found.append(
                    CallEdge(
                        caller=self.function.qualname,
                        callee=callee,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
        found.sort(key=lambda e: (e.line, e.col, e.callee))
        return found
