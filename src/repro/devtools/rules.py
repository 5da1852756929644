"""The determinism (DET) and correctness (COR) rule set.

Each rule encodes one invariant the golden-equivalence fixture and
``scripts/check_determinism.py`` depend on.  Scopes differ: RNG and
wall-clock discipline binds simulation/analysis code (``src``), while
mutable default arguments are a bug anywhere.  See
``docs/architecture.md`` ("Correctness tooling") for the rationale
behind each rule and the suppression syntax.

Two decisions are shared with the purity analyzer
(:mod:`repro.devtools.effects`), so the per-file and interprocedural
checks cannot disagree: :func:`nondeterministic_reference` (does a
resolved reference read the host clock or draw unseeded randomness?)
and :func:`set_iterations` (does a node consume a bare set's order?).
:data:`RULES` lists one instance of every rule, in code order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .registry import Rule, SourceFile, Violation

#: ``numpy.random`` attributes that are safe to reference: generator
#: and bit-generator *types* (construction requires an explicit seed
#: to be useful) rather than module-level draw functions.
_NUMPY_RANDOM_TYPES = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Callables that read the wall clock (or a process-relative clock
#: whose origin is wall-time dependent).  Referencing one at all is a
#: violation -- passing ``time.time`` as a callback is as harmful as
#: calling it.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Container methods whose argument acts as a key/membership token.
_TOKEN_SINKS = frozenset(
    {"add", "discard", "remove", "get", "setdefault", "pop", "__contains__"}
)

#: Builtins that realise an iterable into an ordered sequence.
_ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

#: The advice each per-file rule appends to a shared finding.
_RNG_ADVICE = "draw from a seeded repro.util.rng stream instead"
_CLOCK_ADVICE = (
    "simulation time must come from TimeGrid / scenario timestamps"
)


def nondeterministic_reference(
    full: str, call: ast.Call | None
) -> tuple[str, str] | None:
    """Whether a resolved reference reads the host clock or draws
    unseeded randomness: ``(rule code, finding)`` or ``None``.

    *full* is the reference's absolute dotted path and *call* the Call
    it is the callee of, if any (an argless ``default_rng()`` seeds
    from the OS; one with arguments is seeded).  The code is
    ``DET003`` for a clock read and ``DET001`` for randomness.
    """
    if full in _WALL_CLOCK:
        return "DET003", f"`{full}` reads the host clock"
    if full == "random" or full.startswith("random."):
        return "DET001", f"`{full}` uses the process-global stdlib RNG"
    if not full.startswith("numpy.random."):
        return None
    tail = full[len("numpy.random.") :]
    if tail in _NUMPY_RANDOM_TYPES:
        return None
    if tail != "default_rng":
        return "DET001", f"`{full}` is legacy global-state numpy RNG"
    if call is not None and (call.args or call.keywords):
        return None
    return "DET001", "argless `numpy.random.default_rng()` seeds from the OS"


def set_iterations(node: ast.AST) -> Iterator[tuple[ast.expr, str]]:
    """The bare sets *node* iterates where order matters, each with
    the construct that consumes it: a for loop, a comprehension, an
    ordering builtin (``list``, ``tuple``, ``enumerate``, ``iter``)
    or ``str.join``."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        if _is_set_expr(node.iter):
            yield node.iter, "a for loop"
    elif isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        for generator in node.generators:
            if _is_set_expr(generator.iter):
                yield generator.iter, "a comprehension"
    elif isinstance(node, ast.Call) and node.args and _is_set_expr(
        node.args[0]
    ):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDERING_CONSUMERS:
            yield node.args[0], f"{func.id}(...)"
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            yield node.args[0], "str.join(...)"


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _nondeterministic_references(
    file: SourceFile, code: str
) -> Iterator[tuple[ast.expr, str]]:
    """(node, finding) for every imported-name reference in *file*
    that :func:`nondeterministic_reference` assigns to *code*."""
    for node in ast.walk(file.tree):
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        parent = file.parent(node)
        if isinstance(parent, ast.Attribute):
            continue  # only the head of each dotted chain
        full = file.imports.resolve(node)
        if full is None:
            continue
        call = (
            parent
            if isinstance(parent, ast.Call) and parent.func is node
            else None
        )
        found = nondeterministic_reference(full, call)
        if found is not None and found[0] == code:
            yield node, found[1]


class UnseededRandomness(Rule):
    """DET001: randomness outside the seeded per-component streams."""

    code = "DET001"
    summary = "global or unseeded RNG use"
    rationale = (
        "Every stochastic draw must come from repro.util.rng streams "
        "derived from the scenario seed; module-level RNG state makes "
        "runs depend on import order and draw history."
    )

    def applies_to(self, file: SourceFile) -> bool:
        # util/rng.py is the one sanctioned home of default_rng().
        return file.scope == "src" and not file.path.replace(
            "\\", "/"
        ).endswith("repro/util/rng.py")

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".", 1)[0]
                    if top == "random":
                        yield file.violation(
                            node,
                            self.code,
                            "import of the stdlib `random` module "
                            f"(global RNG state); {_RNG_ADVICE}",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield file.violation(
                        node,
                        self.code,
                        "import from the stdlib `random` module "
                        f"(global RNG state); {_RNG_ADVICE}",
                    )
        for node, finding in _nondeterministic_references(file, self.code):
            yield file.violation(node, self.code, f"{finding}; {_RNG_ADVICE}")


class IdAsToken(Rule):
    """DET002: ``id()`` used as a cache key or comparison token."""

    code = "DET002"
    summary = "id() used as a dict/cache key or comparison token"
    rationale = (
        "id() values are reused once an object is garbage-collected; "
        "PR 1 fixed a real id(table)-keyed cache returning stale "
        "catchments.  Use an explicit version/key attribute."
    )

    def applies_to(self, file: SourceFile) -> bool:
        return file.scope in ("src", "tests")

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                continue
            if self._used_as_token(file, node):
                yield file.violation(
                    node,
                    self.code,
                    "id(...) used as a key/token aliases after garbage "
                    "collection; key on the object itself (held by the "
                    "cache) or on an explicit state key",
                )

    def _used_as_token(self, file: SourceFile, call: ast.Call) -> bool:
        node: ast.AST = call
        parent = file.parent(node)
        # A tuple of ids is still a token: climb through it.
        while isinstance(parent, ast.Tuple):
            node, parent = parent, file.parent(parent)
        if parent is None:
            return False
        if isinstance(parent, ast.Dict) and node in parent.keys:
            return True
        if isinstance(parent, ast.Compare):
            return True
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return True
        if isinstance(
            parent, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)
        ) and getattr(parent, "value", None) is node:
            return True
        if (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in _TOKEN_SINKS
        ):
            return True
        return False


class WallClockRead(Rule):
    """DET003: wall-clock reads in simulation/analysis code."""

    code = "DET003"
    summary = "wall-clock read in simulation/analysis code"
    rationale = (
        "All simulated time flows from TimeGrid and scenario "
        "timestamps; reading the host clock makes outputs depend on "
        "when (and how fast) the run happened."
    )

    def applies_to(self, file: SourceFile) -> bool:
        return file.scope == "src"

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node, finding in _nondeterministic_references(file, self.code):
            yield file.violation(
                node, self.code, f"{finding}; {_CLOCK_ADVICE}"
            )


class BareSetIteration(Rule):
    """DET004: iterating a set in an order-sensitive position."""

    code = "DET004"
    summary = "iteration over a bare set (arbitrary order)"
    rationale = (
        "Set iteration order varies with insertion history and hash "
        "seeding; feeding it into RNG draws, list construction, or "
        "serialization makes output order a run-time accident.  Wrap "
        "the set in sorted(...)."
    )

    def applies_to(self, file: SourceFile) -> bool:
        return file.scope == "src"

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            for iterated, where in set_iterations(node):
                yield file.violation(
                    iterated,
                    self.code,
                    f"bare set iterated by {where} has arbitrary order; "
                    "wrap it in sorted(...) before consuming",
                )


class MutableDefaultArgument(Rule):
    """COR001: mutable default arguments."""

    code = "COR001"
    summary = "mutable default argument"
    rationale = (
        "A mutable default is shared across calls, so one call's "
        "mutation leaks into the next -- state that survives between "
        "scenario runs breaks run isolation."
    )

    _MUTABLE_LITERALS = (
        ast.List,
        ast.Dict,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )
    _MUTABLE_CONSTRUCTORS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}
    )

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield file.violation(
                        default,
                        self.code,
                        f"mutable default argument in {name}(); use "
                        "None (or a dataclass default_factory) and "
                        "construct inside the function",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, self._MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CONSTRUCTORS
        )


class FloatEquality(Rule):
    """COR002: exact float equality comparisons."""

    code = "COR002"
    summary = "float == / != comparison"
    rationale = (
        "Exact equality on floats silently flips with reassociation "
        "(e.g. the vectorized engine paths); compare with a tolerance "
        "(math.isclose / np.isclose) or restructure as an ordering."
    )

    def applies_to(self, file: SourceFile) -> bool:
        # Tests compare via pytest.approx helpers; the rule guards the
        # simulation/analysis code itself.
        return file.scope == "src"

    def check(self, file: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if self._is_float_literal(side):
                        yield file.violation(
                            node,
                            self.code,
                            "exact equality against a float literal is "
                            "brittle; use math.isclose/np.isclose or an "
                            "ordering comparison",
                        )
                        break

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )


#: Every per-file rule, in code order.
RULES: tuple[Rule, ...] = (
    MutableDefaultArgument(),
    FloatEquality(),
    UnseededRandomness(),
    IdAsToken(),
    WallClockRead(),
    BareSetIteration(),
)
