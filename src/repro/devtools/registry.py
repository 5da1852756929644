"""The rule base class, the source-file model, the violation record,
and the one reader both analyses parse files with.

A rule is a small class: a stable code (``DET001``), a one-line
``summary``, a ``rationale`` explaining why the invariant matters for
this repo, a scope predicate (:meth:`Rule.applies_to`), and a
:meth:`Rule.check` generator over one parsed file.
:data:`repro.devtools.rules.RULES` is the active set; tests can also
instantiate a single rule directly against fixture snippets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import ClassVar, Iterator

from .imports import ImportMap

#: Files whose basename matches one of these are test code.
_TEST_BASENAMES = ("test_", "conftest")


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule violation at one source location.

    ``witness`` is empty for the per-file rules; the interprocedural
    purity rules (PUR001-PUR006) fill it with the call chain from the
    purity root to the offending operation, one ``qualname
    (file:line)`` hop per element.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    witness: tuple[str, ...] = ()

    def format(self) -> str:
        """The report's ``file:line:col: RULE message`` line(s).

        Witness hops, when present, follow on indented continuation
        lines so the first line stays grep/editor friendly.
        """
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if not self.witness:
            return head
        hops = "\n".join(f"    {hop}" for hop in self.witness)
        return f"{head}\n{hops}"


class SourceError(Exception):
    """A file neither analysis can check; the message is its report
    error (``unreadable: ...`` or ``syntax error at line N: ...``)."""


def read_source(path: str) -> tuple[str, ast.Module]:
    """Read *path* as UTF-8 and parse it: the text and its tree.

    Both analyses read files only through here, so a file that cannot
    be read, is not UTF-8, or does not parse is one
    :class:`SourceError` for either, never a traceback.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceError(f"unreadable: {exc}") from exc
    try:
        return text, ast.parse(text, filename=path)
    except SyntaxError as exc:
        raise SourceError(
            f"syntax error at line {exc.lineno}: {exc.msg}"
        ) from exc


@dataclass(slots=True)
class SourceFile:
    """One parsed file, shared by every rule.

    ``scope`` is ``"src"`` for package/simulation code, ``"tests"``
    for test code, and ``"other"`` for anything else; rules use it to
    express where an invariant applies (e.g. wall-clock reads are
    fine in a benchmark harness but not in the engine).
    """

    path: str
    text: str
    tree: ast.Module
    scope: str = field(init=False)
    #: Maps every AST node to its parent, for context-sensitive rules.
    parents: dict[ast.AST, ast.AST] = field(init=False)
    #: Local name -> absolute dotted module path for imported names.
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.scope = classify_scope(self.path)
        self.parents = {
            child: parent
            for parent in ast.walk(self.tree)
            for child in ast.iter_child_nodes(parent)
        }
        self.imports = ImportMap.from_tree(self.tree)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of *node* (None for the module)."""
        return self.parents.get(node)

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        """A :class:`Violation` anchored at *node*'s location."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


def classify_scope(path: str) -> str:
    """Classify a lint path as ``"src"``, ``"tests"``, or ``"other"``."""
    pure = PurePosixPath(path.replace("\\", "/"))
    name = pure.name
    if any(part == "tests" for part in pure.parts) or name.startswith(
        _TEST_BASENAMES
    ):
        return "tests"
    if any(part in ("src", "repro") for part in pure.parts):
        return "src"
    return "other"


class Rule:
    """Base class for one lint rule; :data:`~repro.devtools.rules.RULES`
    lists an instance of each."""

    code: ClassVar[str] = "XXX000"
    summary: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def applies_to(self, file: SourceFile) -> bool:
        """Whether this rule runs on *file* at all (default: always)."""
        return True

    def check(self, file: SourceFile) -> Iterator[Violation]:
        """Yield every violation of this rule in *file*."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for typing
