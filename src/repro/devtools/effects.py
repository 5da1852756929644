"""Per-function effect summaries and interprocedural propagation.

The effect lattice is a flat powerset over six kinds of impurity, each
chosen because it has broken (or would break) the jobs=1 == jobs=N
bit-identity contract at least once:

* ``WALL_CLOCK`` -- reads the host clock (``time.time`` & co.).
* ``UNSEEDED_RNG`` -- draws randomness outside the seeded
  ``repro.util.rng`` streams.
* ``GLOBAL_MUTATION`` -- writes module-level state or closure cells,
  so one call's history leaks into the next.
* ``ENV_READ`` -- reads ``os.environ``; output depends on the shell.
* ``FS_WRITE`` -- writes the filesystem.
* ``NONDET_ITERATION`` -- consumes a bare set's arbitrary order.

:func:`direct_effects` extracts each function's *own* effects from its
AST.  Clock reads, unseeded draws and bare-set iteration are decided
by the per-file DET rules' own classifiers
(:func:`~repro.devtools.rules.nondeterministic_reference` and
:func:`~repro.devtools.rules.set_iterations`), so a reference or
iteration that DET001, DET003 or DET004 flags in ``src`` gives its
function the matching effect.  :class:`EffectAnalysis` then
propagates summaries bottom-up over the call graph's SCC
condensation: a function has an effect if it performs it directly or
calls -- transitively -- something that does.

Every acquired effect carries a *witness*: either the direct origin
(file/line/detail) or the call edge through which it arrived.  Witness
assignment is origin-once -- a function's witness for an effect is set
when the effect is first acquired and never overwritten -- which makes
witness chains acyclic even inside recursion cycles, so
:meth:`EffectAnalysis.witness_path` always terminates at a direct
origin.

An *allowlist* (see :mod:`repro.devtools.purity`) kills an effect at a
function's boundary: the function may perform it, but its summary does
not expose it to callers.  The analysis records which (function,
effect) grants actually fired so stale entries can be flagged.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .callgraph import CallEdge, FunctionInfo, ModuleInfo, ProjectIndex
from .rules import nondeterministic_reference, set_iterations


class Effect(enum.Enum):
    """One kind of impurity tracked by the purity analyzer."""

    WALL_CLOCK = "WALL_CLOCK"
    UNSEEDED_RNG = "UNSEEDED_RNG"
    GLOBAL_MUTATION = "GLOBAL_MUTATION"
    ENV_READ = "ENV_READ"
    FS_WRITE = "FS_WRITE"
    NONDET_ITERATION = "NONDET_ITERATION"


#: ``os.environ``-family references; anything under these reads the
#: process environment.  ``repro.util.env.read_env`` is the sanctioned
#: (allowlisted) choke point for the whole package.
_ENV_READS = ("os.environ", "os.environb", "os.getenv")

#: Callables that write the filesystem outright.
_FS_WRITERS = frozenset(
    {
        "os.remove", "os.unlink", "os.rename", "os.replace", "os.mkdir",
        "os.makedirs", "os.rmdir", "os.removedirs", "os.symlink",
        "os.link", "os.truncate", "os.chmod", "os.chown",
        "shutil.rmtree", "shutil.move", "shutil.copy", "shutil.copy2",
        "shutil.copyfile", "shutil.copytree", "shutil.copymode",
        "tempfile.mkdtemp", "tempfile.mkstemp",
        "tempfile.NamedTemporaryFile", "tempfile.TemporaryDirectory",
        "numpy.save", "numpy.savez", "numpy.savez_compressed",
        "numpy.savetxt",
    }
)

#: ``Path``-style method names distinctive enough to flag without a
#: typed receiver (``.write`` itself is too ambient -- any buffer has
#: one -- so ``open(..., "w")`` is the signal for file handles).
_FS_WRITE_METHODS = frozenset(
    {"write_text", "write_bytes", "unlink", "touch", "rmdir", "symlink_to",
     "hardlink_to", "lchmod"}
)

#: Method names that mutate a container in place; a call on a
#: module-global receiver is a global mutation.
_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "setdefault", "sort", "reverse", "update",
    }
)


#: The effect a reference gives its function, by the DET rule that
#: :func:`nondeterministic_reference` assigns it to.
_EFFECT_OF_RULE = {
    "DET001": Effect.UNSEEDED_RNG,
    "DET003": Effect.WALL_CLOCK,
}

#: Callback a scanner uses to record one effect at one node.
_Note = Callable[[Effect, ast.AST, str], None]


@dataclass(frozen=True, slots=True)
class Origin:
    """Where an effect is performed directly."""

    path: str
    line: int
    col: int
    detail: str


@dataclass(frozen=True, slots=True)
class Witness:
    """How a function acquired an effect: exactly one of *origin*
    (performed here) or *edge* (inherited through a call)."""

    origin: Origin | None = None
    edge: CallEdge | None = None


def _local_bindings(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound in *node*'s scope (parameters and targets), minus
    those re-exported to module scope via ``global``."""
    bound: set[str] = set()
    globals_declared: set[str] = set()
    args = node.args
    for arg in (
        *args.posonlyargs, *args.args, *args.kwonlyargs,
    ):
        bound.add(arg.arg)
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            globals_declared.update(sub.names)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                bound.update(_names_in_target(target))
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            bound.update(_names_in_target(sub.target))
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            bound.update(_names_in_target(sub.target))
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    bound.update(_names_in_target(item.optional_vars))
        elif isinstance(sub, ast.comprehension):
            bound.update(_names_in_target(sub.target))
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, ast.NamedExpr) and isinstance(
            sub.target, ast.Name
        ):
            bound.add(sub.target.id)
    return bound - globals_declared


def _names_in_target(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _names_in_target(element)
    elif isinstance(target, ast.Starred):
        yield from _names_in_target(target.value)


def _mutation_base(target: ast.expr) -> str | None:
    """The root Name of a ``x[...] = `` / ``x.attr = `` target chain."""
    current = target
    saw_access = False
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        saw_access = True
        current = current.value
    if saw_access and isinstance(current, ast.Name):
        return current.id
    return None


class _DirectScanner:
    """Extracts one function's own effects from its AST."""

    def __init__(self, module: ModuleInfo, function: FunctionInfo) -> None:
        self.module = module
        self.function = function
        self.locals = _local_bindings(function.node)
        #: parent map restricted to the function subtree, for
        #: reference-head detection.
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(function.node):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def origin(self, node: ast.AST, detail: str) -> Origin:
        return Origin(
            path=self.function.path,
            line=getattr(node, "lineno", self.function.line),
            col=getattr(node, "col_offset", 0) + 1,
            detail=detail,
        )

    def scan(self) -> dict[Effect, Origin]:
        found: dict[Effect, Origin] = {}

        def note(effect: Effect, node: ast.AST, detail: str) -> None:
            # Origin-once: keep the first (outermost-walk-order)
            # witness per effect; one is enough to act on.
            if effect not in found:
                found[effect] = self.origin(node, detail)

        for node in ast.walk(self.function.node):
            if isinstance(node, (ast.Name, ast.Attribute)):
                self._scan_reference(node, note)
            elif isinstance(node, ast.Call):
                self._scan_call(node, note)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._scan_store(node, note)
            elif isinstance(node, ast.Nonlocal):
                note(
                    Effect.GLOBAL_MUTATION,
                    node,
                    f"writes closure cell(s) {', '.join(node.names)} "
                    "via nonlocal",
                )
            for iterated, where in set_iterations(node):
                note(
                    Effect.NONDET_ITERATION,
                    iterated,
                    f"bare set iterated by {where} (arbitrary order)",
                )
        return found

    # -- reference-based effects ---------------------------------------

    def _scan_reference(self, node: ast.expr, note: _Note) -> None:
        parent = self.parents.get(node)
        if isinstance(parent, ast.Attribute):
            return  # only resolve the head of each dotted chain
        full = self.module.imports.resolve(node)
        if full is None:
            return
        call = (
            parent
            if isinstance(parent, ast.Call) and parent.func is node
            else None
        )
        found = nondeterministic_reference(full, call)
        if found is not None:
            code, finding = found
            note(_EFFECT_OF_RULE[code], node, finding)
        elif any(
            full == head or full.startswith(head + ".")
            for head in _ENV_READS
        ):
            note(
                Effect.ENV_READ,
                node,
                f"`{full}` reads the process environment",
            )
        elif full in _FS_WRITERS:
            note(Effect.FS_WRITE, node, f"`{full}` writes the filesystem")

    # -- call-based effects --------------------------------------------

    def _scan_call(self, node: ast.Call, note: _Note) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_mode(node)
            if mode is not None and any(c in mode for c in "wax+"):
                note(
                    Effect.FS_WRITE,
                    node,
                    f"`open(..., {mode!r})` opens a file for writing",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in _FS_WRITE_METHODS:
            note(
                Effect.FS_WRITE,
                node,
                f"`.{func.attr}(...)` writes the filesystem",
            )
        if func.attr in _MUTATORS and isinstance(func.value, ast.Name):
            name = func.value.id
            if self._is_module_global(name):
                note(
                    Effect.GLOBAL_MUTATION,
                    node,
                    f"`.{func.attr}(...)` mutates module global "
                    f"`{name}` in place",
                )
        # ``json.dump`` / ``pickle.dump`` take an open file: writing.
        full = self.module.imports.resolve(func)
        if full in ("json.dump", "pickle.dump", "marshal.dump"):
            note(
                Effect.FS_WRITE, node, f"`{full}` writes to a file object"
            )

    @staticmethod
    def _open_mode(call: ast.Call) -> str | None:
        mode: ast.expr | None = None
        if len(call.args) >= 2:
            mode = call.args[1]
        else:
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if mode is None:
            return "r"  # open() defaults to read-only
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: out of static reach

    # -- store-based effects -------------------------------------------

    def _scan_store(
        self, node: ast.Assign | ast.AugAssign | ast.AnnAssign, note: _Note
    ) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]
        for target in targets:
            # Rebinding a module global requires a ``global`` decl,
            # which _local_bindings already subtracts -- so a bare
            # Name store is global iff declared global here.
            if isinstance(target, ast.Name):
                if (
                    target.id not in self.locals
                    and target.id in self.module.global_names
                    and self._declared_global(target.id)
                ):
                    note(
                        Effect.GLOBAL_MUTATION,
                        node,
                        f"rebinds module global `{target.id}`",
                    )
                continue
            base = _mutation_base(target)
            if base is not None and self._is_module_global(base):
                note(
                    Effect.GLOBAL_MUTATION,
                    node,
                    f"writes into module global `{base}`",
                )

    def _declared_global(self, name: str) -> bool:
        for sub in ast.walk(self.function.node):
            if isinstance(sub, ast.Global) and name in sub.names:
                return True
        return False

    def _is_module_global(self, name: str) -> bool:
        return (
            name in self.module.global_names and name not in self.locals
        )


def direct_effects(
    index: ProjectIndex, function: FunctionInfo
) -> dict[Effect, Origin]:
    """The effects *function* performs in its own body."""
    module = index.modules[function.module]
    return _DirectScanner(module, function).scan()


@dataclass(slots=True)
class EffectAnalysis:
    """Interprocedural effect summaries over a :class:`ProjectIndex`.

    ``summaries[qualname]`` maps each effect the function exposes (its
    own plus everything inherited through resolved calls, minus
    allowlisted grants) to the witness through which it was first
    acquired.  ``used_grants`` records which allowlist entries fired.
    """

    index: ProjectIndex
    summaries: dict[str, dict[Effect, Witness]] = field(default_factory=dict)
    used_grants: set[tuple[str, Effect]] = field(default_factory=set)

    @classmethod
    def run(
        cls,
        index: ProjectIndex,
        allowlist: Mapping[tuple[str, Effect], str] | None = None,
    ) -> "EffectAnalysis":
        """Compute summaries bottom-up over the SCC condensation.

        *allowlist* maps (function qualname, effect) to a justification
        string; matching effects are killed at that function's boundary
        and the grant recorded in :attr:`used_grants`.
        """
        analysis = cls(index=index)
        blocked = dict(allowlist or {})

        def acquire(
            qualname: str, effect: Effect, witness: Witness
        ) -> bool:
            summary = analysis.summaries[qualname]
            if effect in summary:
                return False
            if (qualname, effect) in blocked:
                analysis.used_grants.add((qualname, effect))
                return False
            summary[effect] = witness
            return True

        for component in index.sccs():
            for qualname in component:
                analysis.summaries[qualname] = {}
                own = direct_effects(
                    index, index.functions[qualname]
                )
                for effect, origin in own.items():
                    acquire(qualname, effect, Witness(origin=origin))
            # Fixpoint over the component: effects can flow around a
            # recursion cycle, but each member acquires each effect at
            # most once, so this terminates in <= |effects| rounds.
            changed = True
            while changed:
                changed = False
                for qualname in component:
                    for edge in index.callees_of(qualname):
                        callee_summary = analysis.summaries.get(
                            edge.callee
                        )
                        if callee_summary is None:
                            continue
                        for effect in callee_summary:
                            if acquire(
                                qualname, effect, Witness(edge=edge)
                            ):
                                changed = True
        return analysis

    def effects_of(self, qualname: str) -> dict[Effect, Witness]:
        return self.summaries.get(qualname, {})

    def witness_path(
        self, qualname: str, effect: Effect
    ) -> tuple[str, ...]:
        """The call chain from *qualname* down to the direct origin of
        *effect*, rendered one ``qualname (file:line)`` hop per
        element, ending with the offending operation itself."""
        hops: list[str] = []
        current = qualname
        seen: set[str] = set()
        while True:
            if current in seen:  # defensive; origin-once prevents this
                hops.append(f"{current} (cycle)")
                return tuple(hops)
            seen.add(current)
            witness = self.summaries.get(current, {}).get(effect)
            if witness is None:
                hops.append(f"{current} (witness lost)")
                return tuple(hops)
            function = self.index.functions[current]
            if witness.origin is not None:
                hops.append(
                    f"{current} ({function.path}:{witness.origin.line}): "
                    f"{witness.origin.detail}"
                )
                return tuple(hops)
            assert witness.edge is not None
            hops.append(
                f"{current} ({function.path}:{witness.edge.line}) calls "
                f"{witness.edge.callee}"
            )
            current = witness.edge.callee
