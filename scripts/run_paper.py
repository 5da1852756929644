"""Reproduce every figure and table of the paper with one command.

Runs the paper's three scenarios -- the canonical Nov 30 / Dec 1 2015
event, the §3.3.1 quiet control, and the 2016-06-25 follow-up -- as
one deterministic sweep (``repro.sweep``), optionally across several
worker processes, then renders Figures 3-15 and Tables 2-3 from the
results.  Output is bit-identical for any ``--jobs`` value.

Usage::

    PYTHONPATH=src python scripts/run_paper.py --jobs 4
    PYTHONPATH=src python scripts/run_paper.py --jobs 4 \
        --out-dir paper_out --stubs 600 --vps 1500
    PYTHONPATH=src python scripts/run_paper.py --jobs 4 \
        --checkpoint paper_out/sweep.ckpt     # crash-safe
    PYTHONPATH=src python scripts/run_paper.py --jobs 4 \
        --resume paper_out/sweep.ckpt         # after an interrupt

Writes one text file per figure/table plus ``summaries.json`` (the
sweep's per-cell metric summaries, replicates folded) into
``--out-dir``.  With ``--checkpoint``, completed cells are fsynced to
an append-only log as they finish; Ctrl-C exits with code 130 and
prints the command that resumes the run.  A resume takes the seed,
sizes and replicate count from the checkpoint's header, so only
``--jobs`` and ``--out-dir`` apply, and it refuses a checkpoint that
is not a paper run.  The resumed run is bit-identical to one never
interrupted (cells are pure functions of their configs, so re-running
only the missing ones cannot change any output).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import numpy as np

from repro import ScenarioConfig
from repro.core import (
    behaviour_census,
    clean_dataset,
    collateral_figure,
    collateral_sites,
    correlation_table,
    event_size_table,
    flip_destinations,
    flips_figure,
    nl_figure,
    observed_sites_table,
    reachability_figure,
    route_change_series,
    rtt_figure,
    rtt_significantly_changed,
    server_reachability,
    server_rtt_series,
    site_minmax_table,
    site_rtt_figure,
    site_timeseries,
    sites_vs_resilience,
    vp_timelines,
    worst_responsiveness,
)
from repro.rootdns import (
    ATTACKED_LETTERS,
    LETTERS_SPEC,
    RSSAC_REPORTING_LETTERS,
)
from repro.scenario.presets import (
    JUNE2016_BOTNET,
    JUNE2016_EVENTS,
    JUNE2016_WINDOW_START,
    QUIET_WINDOW_START,
)
from repro.sweep import SweepSpec, summaries_records
from repro.util import EVENT_1

#: Sweep points, in cell order: the canonical event scenario first,
#: then the quiet control, then the June 2016 follow-up.
NOV2015, QUIET, JUNE2016 = 0, 1, 2

#: Fig. 10's event-1 interval in hours since window start.
EVENT1_HOURS = (6.8, 9.5)


def paper_spec(args: argparse.Namespace) -> SweepSpec:
    base = ScenarioConfig(
        seed=args.seed, n_stubs=args.stubs, n_vps=args.vps
    )
    points = [
        {},  # NOV2015: the canonical scenario
        {   # QUIET: same topology/VPs, two normal days
            "events": (),
            "window_start": QUIET_WINDOW_START,
        },
        {   # JUNE2016: different event, same pipeline (§2.3)
            "events": JUNE2016_EVENTS,
            "window_start": JUNE2016_WINDOW_START,
            "botnet": JUNE2016_BOTNET,
            "letters": ("B", "H", "K", "L"),
            "include_nl": False,
        },
    ]
    return SweepSpec.from_points(
        base,
        points,
        replicates=args.replicates if args.replicates > 1 else None,
    )


def render_all(result, quiet_result, june_result) -> dict[str, str]:
    """Every figure/table as rendered text, keyed by output name.

    Renders one cell at a time: each cell's Atlas dataset is cleaned,
    that cell's outputs are rendered, and the cleaned dataset is
    dropped before the next cell is cleaned.  Cleaning copies no
    matrix: the cleaned dataset reads the cell's matrices through the
    kept VPs' columns, and holds the per-letter aggregates the figures
    share (per-site VP counts, response counts, RTT medians, flips),
    each built once from one letter's kept columns.
    """
    return {
        **_render_nov2015(result),
        **_render_quiet(quiet_result),
        **_render_june2016(june_result),
    }


def _render_nov2015(result) -> dict[str, str]:
    """The 15 outputs of the canonical event cell, Table 2 to Table 3."""
    cleaned, _ = clean_dataset(result.atlas)
    site_counts = {L: s.n_sites for L, s in LETTERS_SPEC.items()}
    rssac_reports = {
        L: result.rssac[L] for L in RSSAC_REPORTING_LETTERS
    }
    changed = [
        L for L in sorted(cleaned.letters)
        if rtt_significantly_changed(cleaned, L)
    ]
    timelines = vp_timelines(
        cleaned, "K", ["LHR", "FRA"], EVENT_1, 300,
        np.random.default_rng(0),
    )
    census = behaviour_census(timelines)
    out: dict[str, str] = {}
    out["table2_observed_sites"] = observed_sites_table(cleaned).render()
    out["fig3_reachability"] = "\n\n".join(
        (
            reachability_figure(cleaned).render(),
            correlation_table(
                sites_vs_resilience(cleaned, site_counts)
            ).render(),
        )
    )
    out["fig4_letter_rtt"] = "\n".join(
        (
            rtt_figure(cleaned, changed).render(),
            f"letters with significant RTT change: {changed}",
        )
    )
    out["fig5_site_minmax"] = "\n\n".join(
        site_minmax_table(cleaned, letter).render()
        for letter in ("E", "K")
    )
    out["fig6_site_timeseries"] = "\n\n".join(
        site_timeseries(cleaned, letter, True).render()
        for letter in ("E", "K")
    )
    out["fig7_k_site_rtt"] = site_rtt_figure(
        cleaned, "K", ["AMS", "NRT", "LHR", "FRA"]
    ).render()
    out["fig8_flips"] = flips_figure(cleaned).render()
    out["fig9_route_changes"] = route_change_series(
        result.route_changes, result.grid
    ).render()
    out["fig10_flip_destinations"] = "\n".join(
        str(dest)
        for dest in flip_destinations(cleaned, "K", "LHR", EVENT1_HOURS)
    )
    out["fig11_behaviour_census"] = "\n".join(
        f"{behaviour}: {count}"
        for behaviour, count in census.most_common()
    )
    out["fig12_server_reachability"] = "\n\n".join(
        server_reachability(cleaned, "K", site).render()
        for site in ("FRA", "NRT")
    )
    out["fig13_server_rtt"] = "\n\n".join(
        server_rtt_series(cleaned, "K", site).render()
        for site in ("FRA", "NRT")
    )
    events = result.event_intervals()
    out["fig14_collateral"] = "\n".join(
        [collateral_figure(cleaned, "D", events).render()]
        + [
            f"{site.site}: median {site.median_vps:.0f} VPs"
            for site in collateral_sites(cleaned, "D", events)
        ]
    )
    out["fig15_nl"] = nl_figure(result.nl).render()
    out["table3_event_size"] = "\n\n".join(
        event_size_table(
            rssac_reports, ATTACKED_LETTERS, date, len(ATTACKED_LETTERS)
        ).render()
        for date in ("2015-11-30", "2015-12-01")
    )
    return out


def _render_quiet(result) -> dict[str, str]:
    """The §3.3.1 quiet control: E and K site min/max without events."""
    cleaned, _ = clean_dataset(result.atlas)
    return {
        "quiet_control": "\n\n".join(
            site_minmax_table(cleaned, letter).render()
            for letter in ("E", "K")
        )
    }


def _render_june2016(result) -> dict[str, str]:
    """The 2016-06-25 follow-up: each letter's worst responsiveness."""
    cleaned, _ = clean_dataset(result.atlas)
    return {
        "june2016": "\n".join(
            f"{letter} worst/median responsiveness: "
            f"{worst_responsiveness(cleaned, letter):.2f}"
            for letter in result.letters
        )
    }


def main(argv: list[str] | None = None) -> int:
    # The run path loads when a run starts, not when perfbench or a
    # test imports this module for paper_spec and render_all.
    from repro.cli import add_run_args, run_from_args

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--stubs", type=int, default=600)
    parser.add_argument("--vps", type=int, default=1500)
    add_run_args(parser)
    parser.add_argument("--out-dir", default="paper_out",
                        help="directory for rendered figures/tables")
    args = parser.parse_args(argv)

    def prepare(resumed: SweepSpec | None) -> SweepSpec:
        if resumed is not None:
            # The paper spec is rebuilt from the header's seed, sizes
            # and replicate count, so the digest check refuses a
            # checkpoint that is not a paper run.
            args.seed, args.stubs, args.vps = (
                resumed.base.seed, resumed.base.n_stubs, resumed.base.n_vps
            )
            args.replicates = resumed.n_seeds
        spec = paper_spec(args)
        print(
            f"running {spec.n_cells} scenario cell(s) with "
            f"--jobs {args.jobs} ...",
            file=sys.stderr,
        )
        return spec

    sweep = run_from_args(
        parser,
        args,
        prepare,
        [
            sys.executable, __file__,
            "--out-dir", os.path.abspath(args.out_dir),
        ],
        progress=lambda event: print(event, file=sys.stderr),
    )
    if isinstance(sweep, int):
        return sweep

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summaries.json"
    summary_path.write_text(
        json.dumps(
            {
                "jobs": args.jobs,
                "n_cells": sweep.spec.n_cells,
                "points": ["nov2015", "quiet", "june2016"],
                "summaries": summaries_records(sweep.summaries),
                "failed_cells": {
                    str(i): reason
                    for i, reason in sorted(sweep.failures.items())
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    # Figures render from the first replicate of each scenario point
    # (cell index == point index, seeds being outermost).  A
    # quarantined cell (crashed past its retry budget) leaves a None
    # slot: summaries.json above carries the failure flags, but the
    # figures need the full per-cell results.
    needed = {NOV2015: "nov2015", QUIET: "quiet", JUNE2016: "june2016"}
    missing = [
        f"{name} (cell {index}): {sweep.failures[index]}"
        for index, name in needed.items()
        if sweep.results[index] is None
    ]
    if missing:
        for line in missing:
            print(f"error: scenario failed: {line}", file=sys.stderr)
        print(
            f"wrote {summary_path} (with failure flags); cannot "
            "render figures from a partial sweep -- fix the failure "
            "and re-run (with --resume to keep healthy cells)",
            file=sys.stderr,
        )
        return 1
    rendered = render_all(
        sweep.results[NOV2015],
        sweep.results[QUIET],
        sweep.results[JUNE2016],
    )

    for name, text in rendered.items():
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(
        f"wrote {len(rendered)} figure/table file(s) and "
        f"{summary_path} to {out_dir}/ "
        f"({sweep.elapsed_s:.1f}s, jobs={args.jobs})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
