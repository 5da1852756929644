"""Command-line entry point: ``python -m repro.devtools.lint src tests``.

Two analysis modes share one CLI and one report/exit-code contract:

* default -- the per-file DET/COR rules;
* ``--purity`` -- the interprocedural PUR rules: build the project
  call graph under the given paths and check every declared purity
  root against the effect summaries (see :mod:`repro.devtools.purity`).

Exit codes form a contract CI relies on:

* ``0`` -- every checked file is clean;
* ``1`` -- at least one violation (printed as ``file:line:col: RULE``);
* ``2`` -- the lint itself failed (missing path, unreadable or
  unparseable file, missing purity root).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .purity import purity_rule_descriptions, run_purity
from .rules import RULES
from .runner import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "Enforce the repo's determinism/correctness invariants "
            "(DET001-DET004, COR001-COR002 per file; PUR001-PUR006 "
            "interprocedurally with --purity) over Python sources."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--purity",
        action="store_true",
        help=(
            "run the interprocedural purity analysis (PUR001-PUR006) "
            "instead of the per-file rules"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code, summary, rationale in (
            *((rule.code, rule.summary, rule.rationale) for rule in RULES),
            *purity_rule_descriptions(),
        ):
            print(f"{code}  {summary}")
            print(f"        {rationale}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    report = run_purity(args.paths) if args.purity else lint_paths(args.paths)
    print(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
