"""Per-file lint driver: parse once, run every rule, report in path order.

The runner owns the parts that are rule-independent: file discovery,
suppression bookkeeping (including flagging unjustified and unused
``# repro: noqa`` comments), stable ordering of results, and the one
text report.  Files are independent, so :func:`lint_paths` sends
every file through one process pool sized to the CPU count (never
more workers than files) and merges the results in path order.
"""

from __future__ import annotations

import ast
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .noqa import (
    NOQA_MISSING_JUSTIFICATION,
    NOQA_UNUSED,
    Suppression,
    parse_suppressions,
)
from .registry import SourceError, SourceFile, Violation, read_source
from .rules import RULES

#: Directories never worth descending into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(slots=True)
class LintReport:
    """Everything one lint invocation produced."""

    violations: list[Violation] = field(default_factory=list)
    #: Files that could not be checked, and checks that could not
    #: run: (path, error message).  A path in angle brackets, such as
    #: ``<purity>``, names no file.
    errors: list[tuple[str, str]] = field(default_factory=list)
    checked_files: int = 0

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 clean, 1 violations, 2 internal errors."""
        if self.errors:
            return 2
        return 1 if self.violations else 0

    def render(self) -> str:
        """The ``file:line:col: RULE message`` listing and a summary."""
        lines = [v.format() for v in self.violations]
        lines.extend(
            f"{path}: error: {message}" for path, message in self.errors
        )
        files = {path for path, _ in self.errors if not path.startswith("<")}
        if files:
            lines.append(f"{len(files)} file(s) could not be checked")
        others = sum(path.startswith("<") for path, _ in self.errors)
        if others:
            lines.append(f"{others} other error(s)")
        if self.violations or self.errors:
            lines.append(
                f"{len(self.violations)} violation(s) in "
                f"{self.checked_files} checked file(s)"
            )
        else:
            lines.append(f"repro lint: {self.checked_files} file(s) clean")
        return "\n".join(lines)


def iter_python_files(paths: Sequence[str]) -> list[Path]:
    """Every ``.py`` file under *paths*, deduplicated and sorted."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.add(path)
        else:
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
    return sorted(found)


def lint_source(text: str, path: str) -> list[Violation]:
    """Lint one source string as if it lived at *path*.

    This is the unit-test surface: rule fixtures feed snippets through
    it with a fake path to exercise scope handling.  Raises
    :class:`SyntaxError` if *text* does not parse.
    """
    return _check(SourceFile(path, text, ast.parse(text, filename=path)))


def _check(file: SourceFile) -> list[Violation]:
    """Every rule's violations in *file*, suppressions applied."""
    raw = [
        violation
        for rule in RULES
        if rule.applies_to(file)
        for violation in rule.check(file)
    ]
    suppressions = parse_suppressions(file.text)
    kept = [v for v in raw if not _suppress(v, suppressions)]
    kept.extend(_suppression_violations(file.path, suppressions))
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def _suppress(
    violation: Violation, suppressions: dict[int, Suppression]
) -> bool:
    entry = suppressions.get(violation.line)
    if entry is None or not entry.well_formed:
        return False
    if violation.rule in entry.codes:
        entry.used_codes.add(violation.rule)
        return True
    return False


def _suppression_violations(
    path: str, suppressions: dict[int, Suppression]
) -> list[Violation]:
    flagged: list[Violation] = []
    for entry in suppressions.values():
        if not entry.well_formed:
            detail = (
                "no rule codes given"
                if not entry.codes
                else "missing the mandatory `-- justification`"
            )
            flagged.append(
                Violation(
                    path=path,
                    line=entry.line,
                    col=entry.col,
                    rule=NOQA_MISSING_JUSTIFICATION,
                    message=(
                        f"malformed suppression ({detail}); write "
                        "`# repro: noqa DETxxx -- reason`"
                    ),
                )
            )
        elif not entry.used_codes:
            codes = ",".join(sorted(entry.codes))
            flagged.append(
                Violation(
                    path=path,
                    line=entry.line,
                    col=entry.col,
                    rule=NOQA_UNUSED,
                    message=(
                        f"suppression for {codes} matched no violation "
                        "on this line; remove the stale noqa"
                    ),
                )
            )
    return flagged


def _lint_file(name: str) -> tuple[list[Violation], str | None]:
    """Process-pool task: one file's violations, or its error.

    Top-level (picklable) on purpose: only the path crosses the pool
    boundary going in.
    """
    try:
        text, tree = read_source(name)
    except SourceError as exc:
        return [], str(exc)
    return _check(SourceFile(name, text, tree)), None


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every Python file under *paths* in a process pool."""
    report = LintReport()
    names = [f.as_posix() for f in iter_python_files(paths)]
    workers = max(1, min(os.cpu_count() or 1, len(names)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(_lint_file, names, chunksize=8)
        for name, (violations, error) in zip(names, results):
            if error is None:
                report.violations.extend(violations)
                report.checked_files += 1
            else:
                report.errors.append((name, error))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report
