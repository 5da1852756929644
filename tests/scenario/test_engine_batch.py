"""Segment-batched engine vs. the per-bin path.

``run_batched`` partitions the window into contiguous segments and
evaluates whole ``(bins, sites)`` matrices at once;
``tests/scenario/per_bin_reference.py`` runs the same scenario one bin
at a time.  The two must be *bit-identical* on every simulated output
-- these tests drive randomized event grids, every §2.2 policy action,
faults and .nl recording through both paths and diff every array.
Any mismatch means the batching changed simulation semantics.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.attack import AttackEvent
from repro.defense.controllers import (
    GreedyShedController,
    StaticPolicyController,
)
from repro.faults import (
    BgpSessionReset,
    FaultPlan,
    PeerChurn,
    SiteFailure,
    VpDropout,
)
from repro.scenario import batch
from repro.scenario.arrays import diff_arrays, result_arrays
from repro.util import Interval
from repro.util.timegrid import EVENT_WINDOW_START as W

from .per_bin_reference import simulate_per_bin

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import faulted_config  # noqa: E402

HOUR = 3600


def _config(**overrides):
    base = dict(
        seed=11,
        n_stubs=80,
        n_vps=50,
        letters=("A", "K"),
        include_nl=False,
        window_seconds=12 * HOUR,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _event(name, start, end, rate, targets):
    return AttackEvent(
        name=name,
        interval=Interval(start, end),
        qname=f"{name}.example.",
        rate_qps=rate,
        targets=targets,
        query_wire_bytes=84,
    )


def _random_events(rng, letters, window_seconds):
    """A small random grid of events: off-bin boundaries, overlapping
    targets, and rates spanning quiet to overload."""
    events = []
    for i in range(int(rng.integers(1, 4))):
        start = W + int(rng.integers(0, window_seconds - HOUR))
        length = int(rng.integers(600, 4 * HOUR))
        rate = float(10.0 ** rng.uniform(5.0, 6.9))
        k = int(rng.integers(1, len(letters) + 1))
        targets = tuple(
            sorted(rng.choice(letters, size=k, replace=False).tolist())
        )
        events.append(_event(f"ev{i}", start, start + length, rate, targets))
    return tuple(events)


def _assert_same(result, reference):
    mismatches = diff_arrays(
        result_arrays(result), result_arrays(reference)
    )
    assert not mismatches, mismatches
    assert result.quality == reference.quality
    for letter in result.letters:
        assert (
            result.deployments[letter].policy_log
            == reference.deployments[letter].policy_log
        )


def _assert_equivalent(config):
    _assert_same(simulate(config), simulate_per_bin(config))


class TestBatchedEquivalence:
    def test_quiet_window(self):
        """No events at all: one maximal segment per epoch."""
        _assert_equivalent(_config(events=()))

    def test_default_events(self):
        """The paper's Nov 30 event inside a 12 h window."""
        _assert_equivalent(_config(seed=3))

    def test_bin_boundary_and_mid_bin_events(self):
        """Events starting exactly on a bin edge and mid-bin, plus a
        zero-length interval (never active) on the same letter."""
        events = (
            _event("edge", W + 2 * HOUR, W + 4 * HOUR, 4.0e6, ("K",)),
            _event("midbin", W + 5 * HOUR + 300, W + 6 * HOUR + 42,
                   2.5e6, ("A", "K")),
            _event("empty", W + 3 * HOUR, W + 3 * HOUR, 1.0e6, ("K",)),
        )
        _assert_equivalent(_config(events=events))

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_event_grids(self, seed):
        rng = np.random.default_rng(seed)
        events = _random_events(rng, ("A", "K"), 12 * HOUR)
        _assert_equivalent(_config(seed=seed, events=events))

    def test_with_nl_service(self):
        """.nl recording rides the batched path via record_bins."""
        _assert_equivalent(_config(seed=5, include_nl=True))

    def test_with_faults(self):
        """Fault bins break segments; the faulted bins replay the
        reference arithmetic exactly."""
        plan = FaultPlan(
            specs=(
                SiteFailure(
                    letter="K", site="AMS", start=W + 3 * HOUR,
                    duration_s=HOUR, severity=1.0,
                ),
                BgpSessionReset(
                    letter="K", site="LHR", start=W + 5 * HOUR,
                    duration_s=1800,
                ),
                VpDropout(
                    start=W + 7 * HOUR, duration_s=HOUR, fraction=0.5
                ),
                PeerChurn(
                    start=W + 2 * HOUR, duration_s=HOUR, fraction=0.5
                ),
            )
        )
        _assert_equivalent(_config(seed=9, faults=plan))

    def test_reannounce_limit(self):
        """E-Root sites that withdraw in both events exhaust their
        re-announce budget and stay down through the calm after."""
        events = (
            _event("first", W + 2 * HOUR, W + 4 * HOUR, 3.0e6, ("E",)),
            _event("second", W + 10 * HOUR, W + 12 * HOUR, 3.0e6, ("E",)),
        )
        config = _config(
            letters=("A", "E"), window_seconds=24 * HOUR, events=events
        )
        result = simulate(config)
        _assert_same(result, simulate_per_bin(config))
        states = result.deployments["E"].states.values()
        assert any(not state.may_reannounce() for state in states)

    def test_faulted_determinism_scenario(self):
        """The six-fault, .nl, A/F/H/K, 48 h determinism scenario."""
        _assert_equivalent(faulted_config())

    def test_controllers_force_reference_path(self, monkeypatch):
        """Pluggable controllers observe per-bin state mid-loop, so a
        controller run must take the per-bin path for every bin."""

        def refuse(state):
            raise AssertionError("a controller run entered run_batched")

        monkeypatch.setattr(batch, "run_batched", refuse)
        simulate(
            _config(
                seed=13,
                controllers={"K": GreedyShedController(calm_bins=2)},
            )
        )

    def test_static_policy_marker_is_no_controller(self):
        """The marker keeps the built-in policies: its run is the
        controller-free run."""
        marked = _config(seed=3, controllers={"K": StaticPolicyController()})
        _assert_same(simulate(marked), simulate(_config(seed=3)))

    def test_static_policy_marker_beside_a_controller(self):
        marked = _config(
            seed=3,
            controllers={
                "A": GreedyShedController(),
                "K": StaticPolicyController(),
            },
        )
        greedy = _config(seed=3, controllers={"A": GreedyShedController()})
        _assert_same(simulate(marked), simulate(greedy))


#: Letters whose sites cover every §2.2 action: A absorbs, E withdraws
#: under a re-announce limit, F and H withdraw (H then announces its
#: standby), K partially withdraws and restores, rotating K-FRA's shed
#: server.
POLICY_LETTERS = ("A", "E", "F", "H", "K")
POLICY_SEEDS = range(12)


@pytest.fixture(scope="module")
def policy_grids():
    """Batched and per-bin runs of random 24 h event grids."""
    runs = {}
    for seed in POLICY_SEEDS:
        rng = np.random.default_rng(seed)
        config = _config(
            seed=seed,
            letters=POLICY_LETTERS,
            include_nl=seed % 2 == 0,
            window_seconds=24 * HOUR,
            events=_random_events(rng, POLICY_LETTERS, 24 * HOUR),
        )
        runs[seed] = (simulate(config), simulate_per_bin(config))
    return runs


class TestPolicyGrids:
    @pytest.mark.parametrize("seed", POLICY_SEEDS)
    def test_random_policy_grid(self, policy_grids, seed):
        _assert_same(*policy_grids[seed])

    def test_grids_exercise_every_action(self, policy_grids):
        seen = set()
        for result, _ in policy_grids.values():
            for letter, dep in result.deployments.items():
                for event in dep.policy_log:
                    standby = not dep.site_spec(event.site).initially_announced
                    seen.add((event.action, standby))
        assert {
            ("withdraw", False),
            ("announce", True),
            ("partial", False),
            ("restore", False),
        } <= seen
