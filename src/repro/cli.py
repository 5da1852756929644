"""Command-line interface: simulate, analyze, report, policies, sweep.

Installed as the ``anycast-ddos`` console script:

* ``anycast-ddos simulate --out events.npz`` -- run a scenario and
  save the Atlas dataset;
* ``anycast-ddos analyze events.npz --figure fig3`` -- reproduce one
  figure/table from a saved dataset;
* ``anycast-ddos report`` -- simulate and print the full post-mortem;
* ``anycast-ddos policies --attack 6`` -- evaluate the §2.2 model;
* ``anycast-ddos sweep --axis baseline_days=3,7 --replicates 3
  --jobs 4`` -- run a scenario grid in parallel and print per-cell
  summaries (bit-identical for any ``--jobs``).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import pathlib
import shlex
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import ScenarioConfig, june2016_config, nov2015_config, simulate
from .core import (
    clean_dataset,
    correlation_table,
    flips_figure,
    observed_sites_table,
    reachability_figure,
    rtt_figure,
    site_minmax_table,
    sites_vs_resilience,
)
from .datasets import load_dataset, save_dataset
from .util.env import read_env

if TYPE_CHECKING:
    from .sweep import SweepResult, SweepSpec

#: Figures/tables the ``analyze`` command can regenerate from a saved
#: dataset (those needing only Atlas data).
ANALYSES = ("table2", "fig3", "fig4", "fig5", "fig8", "correlation")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--stubs", type=int, default=400,
                        help="stub ASes in the synthetic Internet")
    parser.add_argument("--vps", type=int, default=800,
                        help="vantage points")
    parser.add_argument(
        "--letters", default=None,
        help="comma-separated subset of letters (default: all 13)",
    )
    parser.add_argument(
        "--preset", choices=("nov2015", "june2016"), default="nov2015",
        help="which event to simulate",
    )
    # Lets commands report a config the arguments cannot build as a
    # usage error of their own subcommand.
    parser.set_defaults(parser=parser)


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    letters = None
    if args.letters:
        letters = tuple(part.strip().upper() for part in
                        args.letters.split(","))
    factory = (
        nov2015_config if args.preset == "nov2015" else june2016_config
    )
    try:
        return factory(
            seed=args.seed,
            n_stubs=args.stubs,
            n_vps=args.vps,
            letters=letters,
        )
    except ValueError as exc:
        args.parser.error(str(exc))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    print(
        f"simulating {args.preset} "
        f"({config.n_stubs} stubs, {config.n_vps} VPs) ...",
        file=sys.stderr,
    )
    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    result = simulate(config)
    save_dataset(result.atlas, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _analyze(dataset, which: str) -> str:
    if which == "table2":
        return observed_sites_table(dataset).render()
    if which == "fig3":
        return reachability_figure(dataset).render()
    if which == "fig4":
        return rtt_figure(dataset).render()
    if which == "fig5":
        return "\n\n".join(
            site_minmax_table(dataset, letter).render()
            for letter in ("E", "K")
            if letter in dataset.letters
        )
    if which == "fig8":
        return flips_figure(dataset).render()
    if which == "correlation":
        from .rootdns import LETTERS_SPEC

        fit = sites_vs_resilience(
            dataset,
            {L: s.n_sites for L, s in LETTERS_SPEC.items()},
        )
        return correlation_table(fit).render()
    raise ValueError(f"unknown analysis {which!r}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        dataset = load_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        # Missing, unreadable, or not an archive save_dataset wrote.
        print(f"error: cannot read dataset {args.dataset}: {exc}",
              file=sys.stderr)
        return 2
    if not args.raw:
        dataset, report = clean_dataset(dataset)
        print(
            f"(cleaned: kept {report.n_kept}/{report.n_total} VPs)",
            file=sys.stderr,
        )
    print(_analyze(dataset, args.figure))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = simulate(config)
    dataset, _ = clean_dataset(result.atlas)
    for which in ANALYSES:
        try:
            print(_analyze(dataset, which))
        except ValueError as exc:
            # e.g. the correlation fit needs at least three letters.
            print(f"[{which} skipped: {exc}]", file=sys.stderr)
            continue
        print("=" * 72)
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from .core import (
        best_withdrawal,
        classify_case,
        default_assignment,
        figure2_model,
        happiness,
        optimal_assignment,
    )

    model = figure2_model(args.attack, args.attack)
    case = classify_case(args.attack, args.attack)
    absorb = happiness(model, default_assignment(model))
    withdrawn, withdraw = best_withdrawal(model)
    assignment, optimal = optimal_assignment(model)
    print(f"A0 = A1 = {args.attack}: paper case {case}")
    print(f"  absorb:   H = {absorb}/4")
    print(f"  withdraw: H = {withdraw}/4  (withdraw {sorted(withdrawn)})")
    print(f"  re-route: H = {optimal}/4  ({assignment})")
    return 0


def _attack_volume(text: str) -> float:
    """``--attack``: a finite, non-negative attack volume."""
    try:
        volume = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not math.isfinite(volume) or volume < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite volume >= 0, got {text!r}"
        )
    return volume


def _parse_axis(spec_str: str) -> tuple[str, list[Any]]:
    """Parse one ``--axis field=v1,v2,...`` argument.

    Values go through ``ast.literal_eval`` so numbers, booleans, and
    tuples arrive typed; anything unparsable stays a string.
    """
    name, sep, raw = spec_str.partition("=")
    if not sep or not raw:
        raise argparse.ArgumentTypeError(
            f"expected field=v1,v2,... got {spec_str!r}"
        )
    values: list[Any] = []
    for part in raw.split(","):
        part = part.strip()
        try:
            values.append(ast.literal_eval(part))
        except (ValueError, SyntaxError):
            values.append(part)
    return name.strip(), values


def add_run_args(parser: argparse.ArgumentParser) -> None:
    """The arguments :func:`run_from_args` reads besides the scenario's
    ``--seed``, ``--stubs`` and ``--vps``."""
    parser.add_argument("--replicates", type=int, default=1,
                        help="replicate seeds per scenario point")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (output identical for any N)")
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="append completed cells to this crash-safe log as they "
             "finish; an interrupted run prints how to resume it",
    )
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume an interrupted run from its checkpoint: it runs "
             "the sweep the checkpoint's header names and ignores the "
             "flags that define a run",
    )


def run_from_args(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    prepare: Callable[[SweepSpec | None], SweepSpec],
    command: Sequence[str],
    **options: Any,
) -> SweepResult | int:
    """The one run path of ``anycast-ddos sweep`` and ``run_paper.py``.

    A run argument no run can take is a usage error before any cell
    runs.  *prepare* gets the spec a ``--resume`` checkpoint's header
    names (``None`` for a fresh run) and returns the spec to run;
    *options* go to :func:`~repro.sweep.run_sweep`.  Returns the
    result, or 130 after an interrupt (with one ``resume with:`` line,
    *command* plus ``--resume PATH --jobs N``, when there is a
    checkpoint) or 2 after one ``error:`` line for an unusable
    checkpoint.  The resume line starts with this process's
    ``PYTHONPATH``, each entry made absolute, when one is set: it may
    be the only way ``repro`` imports here.  Its paths are absolute
    too, so it runs from any directory: the checkpoint is made
    absolute here, and *command* carries its output flag absolute.
    """
    for flag, low in (
        ("--seed", 0), ("--stubs", 1), ("--vps", 1), ("--jobs", 1),
        ("--replicates", 1), ("--max-retries", 0),
    ):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < low:
            parser.error(f"{flag} must be >= {low}, got {value}")
    timeout = getattr(args, "cell_timeout", None)
    if timeout is not None and not timeout > 0:
        parser.error(f"--cell-timeout must be > 0, got {timeout}")

    from .sweep import CheckpointError, SweepInterrupted, run_sweep
    from .sweep.checkpoint import read_header

    checkpoint = args.resume or args.checkpoint
    try:
        resumed = read_header(args.resume) if args.resume else None
        return run_sweep(
            prepare(resumed), jobs=args.jobs, checkpoint=checkpoint,
            **options,
        )
    except (SweepInterrupted, KeyboardInterrupt) as exc:
        print(f"\n{str(exc) or 'interrupted'}", file=sys.stderr)
        if checkpoint is not None:
            line = shlex.join(
                [
                    *command, "--resume", os.path.abspath(checkpoint),
                    "--jobs", str(args.jobs),
                ]
            )
            path = read_env("PYTHONPATH")
            if path:
                path = os.pathsep.join(
                    os.path.abspath(entry) for entry in path.split(os.pathsep)
                )
                line = f"PYTHONPATH={shlex.quote(path)} {line}"
            print(f"resume with: {line}", file=sys.stderr)
        return 130
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import SweepSpec, summaries_records

    def prepare(resumed: SweepSpec | None) -> SweepSpec:
        # A resume runs the sweep its checkpoint names; --axis,
        # --replicates and the scenario flags are ignored.
        spec = resumed
        if spec is None:
            try:
                spec = SweepSpec.grid(
                    _config_from_args(args),
                    dict(args.axis or []),
                    replicates=(
                        args.replicates if args.replicates > 1 else None
                    ),
                )
            except ValueError as exc:
                args.parser.error(str(exc))
        if args.out:
            pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        print(
            f"sweep: {spec.n_points} point(s) x {spec.n_seeds} seed(s) = "
            f"{spec.n_cells} cell(s), jobs={args.jobs}",
            file=sys.stderr,
        )
        return spec

    result = run_from_args(
        args.parser,
        args,
        prepare,
        [
            sys.executable, "-m", "repro.cli", "sweep",
            *(["--out", os.path.abspath(args.out)] if args.out else []),
        ],
        progress=None if args.quiet else lambda e: print(e, file=sys.stderr),
        max_retries=args.max_retries,
        cell_timeout_s=args.cell_timeout,
    )
    if isinstance(result, int):
        return result
    spec = result.spec
    payload: dict[str, Any] = {
        "n_points": spec.n_points,
        "n_seeds": spec.n_seeds,
        "n_cells": spec.n_cells,
        "jobs": args.jobs,
        "summaries": summaries_records(result.summaries),
        "failed_cells": {
            str(index): reason
            for index, reason in sorted(result.failures.items())
        },
        # Telemetry: wall-clock, retry, and routing-layer counters.
        # Varies with worker count and caching; everything above it is
        # bit-identical for any --jobs value.
        "telemetry": {
            "elapsed_s": result.elapsed_s,
            "attempts": {
                str(i): n for i, n in sorted(result.attempts.items())
            },
            "restored_cells": list(result.restored),
            "routing": dict(sorted(result.routing_stats.items())),
        },
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered)
    if args.verbose:
        for name, value in sorted(result.routing_stats.items()):
            print(f"routing {name}: {value}", file=sys.stderr)
        for index, reason in sorted(result.failures.items()):
            print(f"! cell {index}: {reason}", file=sys.stderr)
    if result.failures:
        print(
            f"warning: {len(result.failures)} cell(s) quarantined; "
            "summaries are partial (see failed_cells)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anycast-ddos",
        description=(
            "Reproduction toolkit for 'Anycast vs. DDoS' (IMC 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario, save dataset")
    _add_scenario_args(sim)
    sim.add_argument("--out", default="events.npz",
                     help="output .npz path")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analyze a saved dataset")
    ana.add_argument("dataset", help="path to a saved .npz dataset")
    ana.add_argument("--figure", choices=ANALYSES, default="fig3")
    ana.add_argument("--raw", action="store_true",
                     help="skip the cleaning pipeline")
    ana.set_defaults(func=_cmd_analyze)

    rep = sub.add_parser("report", help="simulate and print a report")
    _add_scenario_args(rep)
    rep.set_defaults(func=_cmd_report)

    pol = sub.add_parser("policies", help="evaluate the §2.2 model")
    pol.add_argument("--attack", type=_attack_volume, default=6.0,
                     help="attack volume A0 = A1 (site capacity = 1)")
    pol.set_defaults(func=_cmd_policies)

    swp = sub.add_parser(
        "sweep",
        help="run a scenario grid (parallel, deterministic)",
    )
    _add_scenario_args(swp)
    swp.add_argument(
        "--axis", action="append", type=_parse_axis,
        metavar="FIELD=V1,V2,...",
        help="one grid axis over a ScenarioConfig field (repeatable)",
    )
    add_run_args(swp)
    swp.add_argument("--out", default=None,
                     help="write summary JSON here instead of stdout")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress lines")
    swp.add_argument("--verbose", action="store_true",
                     help="print routing counters and failed cells")
    swp.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per cell after a crash/timeout before the cell "
             "is quarantined (default 2)",
    )
    swp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell; a hung worker is killed and "
             "the cell retried (default: no timeout)",
    )
    swp.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``anycast-ddos`` script."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
