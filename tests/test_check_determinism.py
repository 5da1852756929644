"""In-process coverage for the CI determinism gate's diff logic.

``scripts/check_determinism.py`` used to be exercised only by the CI
job.  These tests run its ``compare_runs`` on two in-process scenario
runs: identical seeds must produce an empty diff, and a deliberately
perturbed run must be caught -- proving the gate can actually fail,
not just pass.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, SiteFailure
from repro.scenario.config import ScenarioConfig
from repro.scenario.engine import simulate
from repro.util.timegrid import EVENT_WINDOW_START

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from check_determinism import (  # noqa: E402
    SCENARIOS,
    compare_runs,
    controlled_config,
    faulted_config,
)


def small_config(seed=7):
    """A fast scenario that still exercises a randomized fault scope."""
    return ScenarioConfig(
        seed=seed,
        n_stubs=60,
        n_vps=30,
        letters=("A", "K"),
        include_nl=False,
        faults=FaultPlan(
            specs=(
                SiteFailure(
                    letter="K",
                    site="AMS",
                    start=EVENT_WINDOW_START + 6 * 3600,
                    duration_s=3600,
                    severity=1.0,
                ),
            )
        ),
    )


@pytest.fixture(scope="module")
def baseline_run():
    return simulate(small_config())


def test_identical_runs_have_empty_diff(baseline_run):
    repeat = simulate(small_config())
    assert compare_runs(baseline_run, repeat) == []


def test_perturbed_run_is_caught(baseline_run):
    perturbed = simulate(small_config(seed=8))
    mismatches = compare_runs(baseline_run, perturbed)
    assert mismatches, "a different seed must not produce identical outputs"
    # The diff names concrete outputs, not just a boolean.
    assert any("/" in name for name in mismatches)


def test_record_only_difference_is_caught(baseline_run):
    """Two runs whose arrays agree but whose routing-action records do
    not (here only one record's cause) must fail the gate."""
    repeat = simulate(small_config())
    records = repeat.deployments["K"].actions
    assert records
    records[0] = dataclasses.replace(records[0], cause="fault")
    assert compare_runs(baseline_run, repeat) == ["deployments/K/actions"]


def test_deployment_state_difference_is_caught(baseline_run):
    """Runs that agree in arrays and records but end in another
    announcement state or site state must fail the gate."""
    repeat = simulate(small_config())
    prefix = repeat.deployments["A"].prefix
    site = prefix.sites[0]
    prefix.set_announced(site, not prefix.is_announced(site))
    repeat.deployments["K"].states["AMS"].calm_bins += 1
    assert compare_runs(baseline_run, repeat) == [
        "deployments/A/state_key", "deployments/K/site_states",
    ]


def test_diff_is_symmetric(baseline_run):
    perturbed = simulate(small_config(seed=8))
    assert bool(compare_runs(baseline_run, perturbed)) == bool(
        compare_runs(perturbed, baseline_run)
    )


def test_ci_config_carries_every_fault_type():
    """The gate's scenario must keep exercising all six fault specs."""
    config = faulted_config()
    spec_types = {type(s).__name__ for s in config.faults}
    assert spec_types == {
        "SiteFailure",
        "BgpSessionReset",
        "VpDropout",
        "ControllerOutage",
        "PeerChurn",
        "RssacOutage",
    }


def test_ci_checks_a_controlled_scenario():
    """The gate also covers the batched scan's controller branch: the
    faulted scenario plus GreedyShed on A and H and the oracle's
    three-site search on K, fresh per call."""
    assert set(SCENARIOS.values()) == {faulted_config, controlled_config}
    first, second = controlled_config(), controlled_config()
    assert first.faults == faulted_config().faults
    assert sorted(first.controllers) == ["A", "H", "K"]
    assert first.controllers["K"].max_withdrawals == 3
    assert first.controllers["A"] is not second.controllers["A"]
    assert first.controllers["K"] is not second.controllers["K"]
