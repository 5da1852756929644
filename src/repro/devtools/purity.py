"""PUR rules: declared purity roots must be effect-free.

The repo's determinism story rests on a handful of functions being
*pure in the reproducibility sense* -- their outputs a function of
their inputs alone, no matter which process, attempt, or jobs count
runs them:

* the sweep worker cell entrypoints (``run_cells`` /
  ``run_cells_serial``) -- the jobs=1 == jobs=N contract;
* checkpoint replay (``load_checkpoint``) -- resume must be
  bit-identical to the original run;
* the routing kernel (``propagate``) -- the golden fixtures pin its
  exact output;
* the scenario engine (``simulate`` / ``build_substrate``) -- the
  golden fixtures pin their exact outputs.

Each purity root is checked against the interprocedural effect
summaries from :mod:`repro.devtools.effects`; a root that reaches an
effect gets one violation per effect kind, carrying the witness path
(root -> ... -> offending operation, ``file:line`` per hop):

========  ==================  ============================================
code      effect              meaning at a purity root
========  ==================  ============================================
PUR001    WALL_CLOCK          output depends on when the run happened
PUR002    UNSEEDED_RNG        output depends on process RNG history
PUR003    GLOBAL_MUTATION     one call's state leaks into the next
PUR004    ENV_READ            output depends on the caller's shell
PUR005    FS_WRITE            the run has observable side effects
PUR006    NONDET_ITERATION    output order is a hash-seed accident
========  ==================  ============================================

Exemptions live in one *allowlist file* (default:
``purity_allowlist.txt`` next to this module), not in source comments
-- a purity violation names a whole call path, so no single source
line owns it.  Each entry reuses the justified-``noqa`` grammar::

    # comment
    repro.sweep.worker._substrate_for GLOBAL_MUTATION -- memoised \
substrate cache; reuse is bit-identical to a fresh build

An entry kills that effect at that function's boundary (callers no
longer inherit it).  A malformed entry (missing justification, unknown
effect) is flagged NOQ001; an entry that no longer matches any
computed effect is stale and flagged NOQ002 -- exactly the contract
line-level ``# repro: noqa`` has.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .callgraph import ProjectIndex
from .effects import Effect, EffectAnalysis
from .noqa import NOQA_MISSING_JUSTIFICATION, NOQA_UNUSED
from .registry import Violation
from .runner import LintReport

#: The declared purity roots: function qualname -> why it must be pure.
PURITY_ROOTS: dict[str, str] = {
    "repro.sweep.worker.run_cells": (
        "sweep cell entrypoint; jobs=1 and jobs=N must be bit-identical"
    ),
    "repro.sweep.worker.run_cells_serial": (
        "serial sweep entrypoint; mirrors the process-pool path"
    ),
    "repro.sweep.checkpoint.load_checkpoint": (
        "checkpoint replay; resume must be bit-identical to the "
        "original run"
    ),
    "repro.netsim.bgp.propagate": (
        "routing kernel; golden fixtures pin its exact output"
    ),
    "repro.scenario.engine.simulate": (
        "scenario engine; output must be a pure function of the config"
    ),
    "repro.scenario.engine.build_substrate": (
        "substrate build; cached reuse must equal a fresh build"
    ),
}

#: Effect kind -> (rule code, summary used in --list-rules).
PURITY_RULES: dict[Effect, tuple[str, str]] = {
    Effect.WALL_CLOCK: (
        "PUR001",
        "purity root transitively reads the wall clock",
    ),
    Effect.UNSEEDED_RNG: (
        "PUR002",
        "purity root transitively draws unseeded randomness",
    ),
    Effect.GLOBAL_MUTATION: (
        "PUR003",
        "purity root transitively mutates global state",
    ),
    Effect.ENV_READ: (
        "PUR004",
        "purity root transitively reads the process environment",
    ),
    Effect.FS_WRITE: (
        "PUR005",
        "purity root transitively writes the filesystem",
    ),
    Effect.NONDET_ITERATION: (
        "PUR006",
        "purity root transitively iterates a bare set",
    ),
}


def default_allowlist_path() -> Path:
    """The in-repo allowlist shipped next to this module."""
    return Path(__file__).with_name("purity_allowlist.txt")


class AllowlistEntry:
    """One parsed allowlist line."""

    __slots__ = ("qualname", "effect", "justification", "line")

    def __init__(
        self, qualname: str, effect: Effect, justification: str, line: int
    ) -> None:
        self.qualname = qualname
        self.effect = effect
        self.justification = justification
        self.line = line


def parse_allowlist(
    text: str, path: str
) -> tuple[list[AllowlistEntry], list[Violation]]:
    """Parse an allowlist file; malformed lines become NOQ001
    violations (same grammar contract as line-level noqa)."""
    entries: list[AllowlistEntry] = []
    violations: list[Violation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, separator, justification = line.partition("--")
        justification = justification.strip()
        fields = head.split()
        effect = None
        if len(fields) == 2:
            try:
                effect = Effect(fields[1])
            except ValueError:
                effect = None
        if len(fields) != 2 or effect is None:
            known = ", ".join(e.value for e in Effect)
            violations.append(
                Violation(
                    path=path,
                    line=lineno,
                    col=1,
                    rule=NOQA_MISSING_JUSTIFICATION,
                    message=(
                        "malformed allowlist entry; write "
                        f"`<qualname> <EFFECT> -- justification` with "
                        f"EFFECT one of: {known}"
                    ),
                )
            )
            continue
        if not separator or not justification:
            violations.append(
                Violation(
                    path=path,
                    line=lineno,
                    col=1,
                    rule=NOQA_MISSING_JUSTIFICATION,
                    message=(
                        f"allowlist entry for {fields[0]} "
                        f"{effect.value} is missing the mandatory "
                        "`-- justification`"
                    ),
                )
            )
            continue
        entries.append(
            AllowlistEntry(fields[0], effect, justification, lineno)
        )
    return entries, violations


def _stale_entry_violations(
    entries: Iterable[AllowlistEntry],
    used: set[tuple[str, Effect]],
    index: ProjectIndex,
    path: str,
) -> list[Violation]:
    flagged: list[Violation] = []
    for entry in entries:
        key = (entry.qualname, entry.effect)
        if key in used:
            continue
        if entry.qualname not in index.functions:
            detail = (
                f"no function named {entry.qualname} exists in the "
                "analyzed tree"
            )
        else:
            detail = (
                f"{entry.qualname} no longer has the "
                f"{entry.effect.value} effect"
            )
        flagged.append(
            Violation(
                path=path,
                line=entry.line,
                col=1,
                rule=NOQA_UNUSED,
                message=f"stale allowlist entry: {detail}; remove it",
            )
        )
    return flagged


def run_purity(
    paths: Sequence[str],
    *,
    roots: Mapping[str, str] | None = None,
    allowlist_path: str | Path | None = None,
) -> LintReport:
    """Whole-program purity check over the Python files under *paths*.

    *roots* defaults to :data:`PURITY_ROOTS`; a configured root that
    does not exist in the analyzed tree is a lint *error* (exit 2) --
    a silently missing root would pass vacuously.  *allowlist_path*
    defaults to the in-repo file when it exists; pass an explicit path
    (or a nonexistent one) to override.
    """
    report = LintReport()
    active_roots = dict(PURITY_ROOTS if roots is None else roots)

    index = ProjectIndex.build(paths)
    report.errors.extend(index.errors)
    report.checked_files = len(index.modules)

    for qualname in sorted(active_roots):
        if qualname not in index.functions:
            report.errors.append(
                (
                    "<purity>",
                    f"purity root {qualname} not found in the analyzed "
                    "tree; lint the tree that defines it, or update "
                    "PURITY_ROOTS if it moved",
                )
            )
    if report.errors:
        return report

    entries: list[AllowlistEntry] = []
    allowlist_name = ""
    if allowlist_path is None:
        candidate = default_allowlist_path()
        allowlist_path = candidate if candidate.exists() else None
    if allowlist_path is not None:
        allowlist_file = Path(allowlist_path)
        allowlist_name = allowlist_file.as_posix()
        try:
            text = allowlist_file.read_text(encoding="utf-8")
        except OSError as exc:
            report.errors.append(
                (allowlist_name, f"unreadable allowlist: {exc}")
            )
            return report
        entries, malformed = parse_allowlist(text, allowlist_name)
        report.violations.extend(malformed)

    grants = {
        (entry.qualname, entry.effect): entry.justification
        for entry in entries
    }
    analysis = EffectAnalysis.run(index, grants)

    for qualname in sorted(active_roots):
        function = index.functions[qualname]
        summary = analysis.effects_of(qualname)
        for effect in sorted(summary, key=lambda e: e.value):
            code, _ = PURITY_RULES[effect]
            witness = analysis.witness_path(qualname, effect)
            report.violations.append(
                Violation(
                    path=function.path,
                    line=function.line,
                    col=1,
                    rule=code,
                    message=(
                        f"purity root `{qualname}` reaches "
                        f"{effect.value} ({active_roots[qualname]}); "
                        f"witness path ({len(witness)} hop(s)) follows"
                    ),
                    witness=witness,
                )
            )

    report.violations.extend(
        _stale_entry_violations(
            entries, analysis.used_grants, index, allowlist_name
        )
    )
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


def purity_rule_descriptions() -> tuple[tuple[str, str, str], ...]:
    """(code, summary, rationale) rows for ``--list-rules``."""
    rationale = (
        "Interprocedural: the effect is reached through the call "
        "graph; the violation's witness path names every hop.  "
        "Exemptions go in the purity allowlist file, not in source."
    )
    rows = [
        (code, summary, rationale)
        for code, summary in sorted(PURITY_RULES.values())
    ]
    return tuple(rows)
