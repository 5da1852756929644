"""Determinism gate: faulted and controlled scenarios must reproduce
bit for bit.

Runs each of two scenarios twice with the same seed -- one carrying
every fault type (:func:`faulted_config`), and the same with
``GreedyShedController`` on A and H and a three-site
``OracleController`` search on K (:func:`controlled_config`) -- and
compares every simulated output array (truth, Atlas, RSSAC, BGPmon,
.nl), every letter's routing-action records and the quality report
exactly.  Any diff means the fault
machinery or the controller branch of the batched scan leaked
nondeterminism into the engine -- the CI determinism job fails on it.
``tests/scenario/test_engine_batch.py`` also runs both configs through
the per-bin executor and diffs them against the batched runs.

Usage::

    PYTHONPATH=src python scripts/check_determinism.py
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro.defense.controllers import GreedyShedController, OracleController
from repro.scenario.arrays import result_arrays
from repro.scenario.engine import ScenarioResult
from repro.faults import (
    BgpSessionReset,
    ControllerOutage,
    FaultPlan,
    PeerChurn,
    RssacOutage,
    SiteFailure,
    VpDropout,
)
from repro.scenario.config import ScenarioConfig
from repro.scenario.engine import simulate
from repro.util.timegrid import EVENT_WINDOW_START as W

HOUR = 3600

#: One of everything: the plan exercises every fault resolver and both
#: randomized scopes (VP dropout, peer churn).
FAULT_PLAN = FaultPlan(
    specs=(
        SiteFailure(
            letter="K", site="AMS", start=W + 12 * HOUR,
            duration_s=2 * HOUR, severity=1.0,
        ),
        BgpSessionReset(
            letter="K", site="LHR", start=W + 15 * HOUR, duration_s=1800,
        ),
        VpDropout(start=W + 18 * HOUR, duration_s=HOUR, fraction=0.5),
        ControllerOutage(start=W + 21 * HOUR, duration_s=1800),
        PeerChurn(start=W + 6 * HOUR, duration_s=2 * HOUR, fraction=0.5),
        RssacOutage(letter="K", start=W, duration_s=86_400),
    )
)


def faulted_config() -> ScenarioConfig:
    return ScenarioConfig(
        seed=7,
        n_stubs=100,
        n_vps=60,
        letters=("A", "F", "H", "K"),
        include_nl=True,
        faults=FAULT_PLAN,
    )


def controlled_config() -> ScenarioConfig:
    """:func:`faulted_config` with ``GreedyShedController`` on A and H
    and ``OracleController(max_withdrawals=3)`` on K.

    Controllers carry state through a run, so every call builds fresh
    ones.
    """
    return dataclasses.replace(
        faulted_config(),
        controllers={
            "A": GreedyShedController(),
            "H": GreedyShedController(),
            "K": OracleController(max_withdrawals=3),
        },
    )


#: The scenarios ``main`` checks, each run twice.
SCENARIOS = {"faulted": faulted_config, "controlled": controlled_config}


def compare_runs(first: ScenarioResult, second: ScenarioResult) -> list[str]:
    """Names of every output that differs between two runs.

    Empty means the runs are bit-identical across all simulated
    arrays (truth, Atlas, RSSAC, BGPmon, .nl), every letter's
    routing-action records (``LetterDeployment.actions``), final
    announcement state (``prefix.state_key()``) and site states, the
    quality report, and the published RSSAC report dates.  The
    deployment parts are what a sweep parent rebuilds from a pool
    cell's record.  This is the diff logic the CI determinism and
    sweep-smoke jobs and ``tests/test_check_determinism.py`` share.
    """
    a, b = result_arrays(first), result_arrays(second)
    mismatches = []
    for name in sorted(a):
        if name not in b or not np.array_equal(
            a[name], b[name], equal_nan=True
        ):
            mismatches.append(name)
    mismatches.extend(sorted(set(b) - set(a)))
    for letter in first.letters:
        a_dep, b_dep = first.deployments[letter], second.deployments[letter]
        if a_dep.actions != b_dep.actions:
            mismatches.append(f"deployments/{letter}/actions")
        if a_dep.prefix.state_key() != b_dep.prefix.state_key():
            mismatches.append(f"deployments/{letter}/state_key")
        if a_dep.states != b_dep.states:
            mismatches.append(f"deployments/{letter}/site_states")
    if first.quality != second.quality:
        mismatches.append("quality")
    if [r.date for L in first.letters for r in first.rssac[L]] != [
        r.date for L in second.letters for r in second.rssac[L]
    ]:
        mismatches.append("rssac dates")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    status = 0
    for name, make_config in SCENARIOS.items():
        first = simulate(make_config())
        second = simulate(make_config())
        mismatches = compare_runs(first, second)
        if mismatches:
            print(
                f"DETERMINISM FAILURE ({name}): outputs differ between "
                "identical runs"
            )
            for mismatch in mismatches:
                print(f"  - {mismatch}")
            status = 1
            continue
        print(
            f"determinism ok ({name}): {len(result_arrays(first))} arrays "
            f"bit-identical across two runs "
            f"({len(first.quality)} quality flag(s))"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
