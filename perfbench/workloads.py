"""The benchmark's workloads, each a pure function of its seed.

Every workload is one closed loop run by a single process: it calls
into ``repro`` with inputs made from ``--seed`` and returns one digest
per *operation* -- one scenario cell (its
:func:`repro.scenario.arrays.result_arrays`) or one rendered figure or
table (its text).  An operation that raises, is quarantined by the
sweep supervisor, or renders nothing is reported as failed instead.

``paper``
    ``scripts/run_paper.py``'s three cells (Nov 2015 event, quiet
    control, June 2016) at 600 stubs / 1500 VPs through ``run_sweep``
    with jobs=1, ``clean_dataset`` and all 17 renders.  What users run;
    every layer does some work.
``atlas-9k``
    The Nov 2015 cell alone at the paper's ~9000 Atlas VPs, through
    ``run_paper.render_all`` with that cell standing in for the quiet
    and June 2016 cells too (three cleanings, all 17 renders).  The
    VP-proportional layers (Atlas prober, cleaning, analyses) dominate;
    routing, substrate, RSSAC and BGPmon repeat ``paper``'s first cell.
    Not listed in ``BENCHMARK.json``: its time, bound by memory traffic
    over a 1.2 GB working set, does not follow the host-speed reference
    kernel in ``run.py`` (ten seeds spread 21% scaled, against 6% raw
    while ``paper`` spread 19% raw), and ``paper`` runs the same layers.
    The benchmark's own tests still run it at smoke size.
``playbook``
    The Nov 2015 cell at 600 stubs / 300 VPs with a
    ``GreedyShedController`` on all ten attacked letters and the
    six-fault plan of ``scripts/check_determinism.py``.  Controllers
    force the per-bin engine path, so routing, policies, queueing and
    controllers dominate.
``sweep``
    Eight Nov 2015 cells sharing one substrate, attack rate scaled
    0.25x-3x, at 600 stubs / 300 VPs through ``run_sweep(jobs=2)``: the
    only workload that reaches the process pool, shared-memory export
    and the per-worker substrate cache.

``smoke=True`` shrinks every population so the benchmark's own tests
can run each workload in a second or two.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "scripts"), os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import run_paper  # noqa: E402
from check_determinism import FAULT_PLAN  # noqa: E402
from repro import ScenarioConfig  # noqa: E402
from repro.attack.events import NOV2015_EVENTS  # noqa: E402
from repro.defense import GreedyShedController  # noqa: E402
from repro.rootdns import ATTACKED_LETTERS  # noqa: E402
from repro.scenario.arrays import result_arrays  # noqa: E402
from repro.scenario.engine import simulate  # noqa: E402
from repro.sweep import SweepResult, SweepSpec, run_sweep  # noqa: E402

#: Attack-rate multipliers of the ``sweep`` grid, one cell each.
SWEEP_RATE_SCALES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0)

#: Worker processes of the ``sweep`` workload.
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Sizes:
    """Population sizes of one benchmark scale."""

    stubs: int
    paper_vps: int
    atlas_vps: int
    small_vps: int


FULL = Sizes(stubs=600, paper_vps=1500, atlas_vps=9000, small_vps=300)
SMOKE = Sizes(stubs=120, paper_vps=150, atlas_vps=300, small_vps=60)


@dataclass
class Outcome:
    """What one workload run produced.

    ``digests`` and ``failures`` are keyed by operation name and
    disjoint; together they name every operation attempted.  ``sweep``
    is the run's :class:`SweepResult`, when it went through one, for
    the traced run's telemetry.
    """

    digests: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    sweep: SweepResult | None = None


def digest_arrays(arrays: dict[str, np.ndarray]) -> str:
    """Hex digest of named arrays: names, dtypes, shapes and bytes."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _digest_cell(outcome: Outcome, name: str, result: Any) -> None:
    outcome.digests[f"cell/{name}"] = digest_arrays(result_arrays(result))


def _digest_renders(
    outcome: Outcome, names: tuple[str, ...], render: Callable[[], dict]
) -> None:
    """Digest every render, or fail all of *names* if rendering raises."""
    try:
        rendered = render()
    except Exception as exc:  # an operation failure, not a crash
        for name in names:
            outcome.failures[f"render/{name}"] = f"{type(exc).__name__}: {exc}"
        return
    for name in names:
        text = rendered.get(name)
        if not text:
            outcome.failures[f"render/{name}"] = "missing or empty"
        else:
            outcome.digests[f"render/{name}"] = digest_text(text)


#: The 17 outputs of ``run_paper.render_all``, in its order.
PAPER_RENDERS = (
    "table2_observed_sites", "fig3_reachability", "fig4_letter_rtt",
    "fig5_site_minmax", "fig6_site_timeseries", "fig7_k_site_rtt",
    "fig8_flips", "fig9_route_changes", "fig10_flip_destinations",
    "fig11_behaviour_census", "fig12_server_reachability",
    "fig13_server_rtt", "fig14_collateral", "fig15_nl",
    "table3_event_size", "quiet_control", "june2016",
)


def _sweep_cells(
    outcome: Outcome, sweep: SweepResult, names: tuple[str, ...]
) -> None:
    """Digest every cell of *sweep*; quarantined cells fail."""
    outcome.sweep = sweep
    for index, name in enumerate(names):
        result = sweep.results[index]
        if result is None:
            outcome.failures[f"cell/{name}"] = (
                "quarantined: " + sweep.failures.get(index, "unknown")
            )
        else:
            _digest_cell(outcome, name, result)


def run_paper_workload(seed: int, sizes: Sizes) -> Outcome:
    outcome = Outcome()
    cells = ("nov2015", "quiet", "june2016")
    spec = run_paper.paper_spec(argparse.Namespace(
        seed=seed, stubs=sizes.stubs, vps=sizes.paper_vps, replicates=1
    ))
    try:
        sweep = run_sweep(spec, jobs=1)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        outcome.failures.update({f"cell/{c}": reason for c in cells})
        outcome.failures.update(
            {f"render/{r}": "no cells" for r in PAPER_RENDERS}
        )
        return outcome
    _sweep_cells(outcome, sweep, cells)
    if any(r is None for r in sweep.results):
        outcome.failures.update(
            {f"render/{r}": "a cell was quarantined" for r in PAPER_RENDERS}
        )
        return outcome
    _digest_renders(
        outcome, PAPER_RENDERS, lambda: run_paper.render_all(*sweep.results)
    )
    return outcome


def _run_cell(outcome: Outcome, name: str, config: ScenarioConfig) -> Any:
    try:
        result = simulate(config)
    except Exception as exc:
        outcome.failures[f"cell/{name}"] = f"{type(exc).__name__}: {exc}"
        return None
    _digest_cell(outcome, name, result)
    return result


def run_atlas_workload(seed: int, sizes: Sizes) -> Outcome:
    outcome = Outcome()
    config = ScenarioConfig(
        seed=seed, n_stubs=sizes.stubs, n_vps=sizes.atlas_vps
    )
    result = _run_cell(outcome, "nov2015", config)
    if result is None:
        outcome.failures.update(
            {f"render/{r}": "no cell" for r in PAPER_RENDERS}
        )
    else:
        _digest_renders(
            outcome, PAPER_RENDERS,
            lambda: run_paper.render_all(result, result, result),
        )
    return outcome


def playbook_config(seed: int, sizes: Sizes) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        n_stubs=sizes.stubs,
        n_vps=sizes.small_vps,
        controllers={L: GreedyShedController() for L in ATTACKED_LETTERS},
        faults=FAULT_PLAN,
    )


def run_playbook_workload(seed: int, sizes: Sizes) -> Outcome:
    outcome = Outcome()
    _run_cell(outcome, "nov2015-playbook", playbook_config(seed, sizes))
    return outcome


def sweep_spec(seed: int, sizes: Sizes) -> SweepSpec:
    base = ScenarioConfig(
        seed=seed, n_stubs=sizes.stubs, n_vps=sizes.small_vps
    )
    points = [
        {
            "events": tuple(
                dataclasses.replace(e, rate_qps=e.rate_qps * scale)
                for e in NOV2015_EVENTS
            )
        }
        for scale in SWEEP_RATE_SCALES
    ]
    return SweepSpec.from_points(base, points)


def run_sweep_workload(seed: int, sizes: Sizes) -> Outcome:
    outcome = Outcome()
    names = tuple(f"rate{scale:g}x" for scale in SWEEP_RATE_SCALES)
    try:
        sweep = run_sweep(sweep_spec(seed, sizes), jobs=SWEEP_JOBS)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        outcome.failures.update({f"cell/{n}": reason for n in names})
        return outcome
    _sweep_cells(outcome, sweep, names)
    return outcome


RUNNERS: dict[str, Callable[[int, Sizes], Outcome]] = {
    "paper": run_paper_workload,
    "atlas-9k": run_atlas_workload,
    "playbook": run_playbook_workload,
    "sweep": run_sweep_workload,
}
NAMES = tuple(RUNNERS)


def run(name: str, seed: int, smoke: bool = False) -> Outcome:
    """Run workload *name* on inputs made from *seed*."""
    return RUNNERS[name](seed, SMOKE if smoke else FULL)
