"""Segment-batched engine vs. the per-bin path.

``run_batched`` partitions the window into contiguous segments and
evaluates whole ``(bins, sites)`` matrices at once;
``tests/scenario/per_bin_reference.py`` runs the same scenario one bin
at a time.  The two must be *bit-identical* on every simulated output
-- these tests drive randomized event grids, every §2.2 policy action,
every controller action, faults and .nl recording through both paths
and diff every array.  Any mismatch means the batching changed
simulation semantics.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.attack import AttackEvent
from repro.defense.controllers import (
    Action,
    ActionKind,
    GreedyShedController,
    OracleController,
    StaticPolicyController,
)
from repro.faults import (
    BgpSessionReset,
    FaultPlan,
    PeerChurn,
    SiteFailure,
    VpDropout,
)
from repro.rootdns import ATTACKED_LETTERS
from repro.scenario.arrays import diff_arrays, result_arrays
from repro.util import Interval
from repro.util.timegrid import EVENT_WINDOW_START as W

from .per_bin_reference import simulate_per_bin

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import (  # noqa: E402
    FAULT_PLAN,
    controlled_config,
    faulted_config,
)

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
        # Every routing action: time, site, kind, cause and the ASes
        # it moved.
        assert (
            result.deployments[letter].actions
            == reference.deployments[letter].actions
        )


def _route_changes(deployment):
    """The records of *deployment*'s actions that moved a route."""
    return [r for r in deployment.actions if r.changed_asns]


def _assert_equivalent(config):
    _assert_same(simulate(config), simulate_per_bin(config))


def _assert_equivalent_runs(make_config):
    """Like :func:`_assert_equivalent` for configs carrying
    controllers, which keep state through a run: each path gets fresh
    ones from *make_config*.  Returns the batched result."""
    result = simulate(make_config())
    _assert_same(result, simulate_per_bin(make_config()))
    return result


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


class ScriptedController:
    """Issues a fixed action list at chosen bins and logs every
    observation it gets, so both executors can be compared on what the
    controller saw as well as on what it did.

    *script* maps a bin to its actions as text, e.g. ``"withdraw AMS,
    partial LHR"``.
    """

    def __init__(self, script):
        self.script = {
            b: [
                Action(ActionKind(kind), site)
                for kind, site in (a.split() for a in text.split(", "))
            ]
            for b, text in script.items()
        }
        self.seen = []

    def decide(self, observation):
        self.seen.append(observation)
        return list(self.script.get(observation.bin_index, ()))


#: An observation's site-order rows.
OBSERVATION_ROWS = (
    "capacity_qps", "accepted_qps", "dropped_qps", "announced", "partial",
)


def _assert_same_observations(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert (a.letter, a.bin_index, a.codes) == (
            b.letter, b.bin_index, b.codes
        )
        for name in OBSERVATION_ROWS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (
                a.bin_index, name,
            )


def _flag(observation, name, code):
    """Site *code*'s entry in the observation's row *name*."""
    return bool(getattr(observation, name)[observation.codes.index(code)])


#: K's script, by bin.  The Nov 30 event covers bins 41-56 of the 48 h
#: window; the other scripted bins are quiet and pass the batched
#: scan's quiet gate.  Bin 11 re-announces an announced site (a no-op
#: that still ends the segment), and 287 is the window's last bin.
K_SCRIPT = {
    5: "partial LHR",
    11: "announce FRA",
    12: "restore LHR, withdraw AMS",
    20: "announce AMS",
    44: "withdraw FRA, partial LHR",
    47: "restore LHR",
    50: "announce FRA, withdraw LHR",
    60: "announce LHR",
    287: "withdraw AMS, partial LHR",
}
QUIET_SCRIPT_BINS = (5, 11, 12, 20, 60, 287)


class TestControllerEquivalence:
    """Controllers run inside the batched scan, against the per-bin
    path they used to take for every bin."""

    def test_greedy_shed_on_every_attacked_letter(self):
        """The playbook workload in miniature: GreedyShed on all ten
        attacked letters, the six-fault plan and .nl."""

        def make_config():
            return ScenarioConfig(
                seed=7,
                n_stubs=100,
                n_vps=60,
                include_nl=True,
                faults=FAULT_PLAN,
                controllers={
                    letter: GreedyShedController()
                    for letter in ATTACKED_LETTERS
                },
            )

        result = _assert_equivalent_runs(make_config)
        acted = [
            letter
            for letter in ATTACKED_LETTERS
            if len(_route_changes(result.deployments[letter])) > 1
        ]
        assert len(acted) >= 5, acted

    def test_oracle_controller(self):
        """The oracle also reads each bin's true offered row."""

        def make_config():
            return _config(
                seed=7,
                letters=("A", "H", "K"),
                window_seconds=24 * HOUR,
                controllers={
                    letter: OracleController() for letter in ("H", "K")
                },
            )

        result = _assert_equivalent_runs(make_config)
        assert len(_route_changes(result.deployments["K"])) > 1

    def test_scripted_actions(self):
        """Every action kind, in quiet bins, event bins and the last
        bin, plus a no-op re-announce; the controller must also see
        the same observations on both paths."""
        runs = []
        for simulate_with in (simulate, simulate_per_bin):
            controller = ScriptedController(K_SCRIPT)
            config = _config(
                seed=3,
                window_seconds=48 * HOUR,
                controllers={"K": controller},
            )
            runs.append((simulate_with(config), controller))
        (result, ours), (reference, theirs) = runs
        _assert_same(result, reference)
        _assert_same_observations(ours.seen, theirs.seen)
        assert len(ours.seen) == result.grid.n_bins
        event = result.event_mask()
        loss = result.truth["K"].loss
        for b in QUIET_SCRIPT_BINS:
            assert not event[b] and not loss[b].any()
        assert event[44] and event[47] and event[50]
        # Actions apply from the next bin on.
        assert _flag(ours.seen[6], "partial", "LHR")
        assert not _flag(ours.seen[13], "announced", "AMS")
        assert _flag(ours.seen[21], "announced", "AMS")
        assert not _flag(ours.seen[45], "announced", "FRA")
        assert not _flag(ours.seen[48], "partial", "LHR")
        # Observations kept from earlier bins still hold those bins'
        # flags: later actions never write into their rows.
        assert not _flag(ours.seen[5], "partial", "LHR")
        assert _flag(ours.seen[12], "announced", "AMS")
        states = result.deployments["K"].states
        assert states["LHR"].partial
        assert not result.deployments["K"].prefix.is_announced("AMS")
        causes = {r.cause for r in result.deployments["K"].actions}
        assert causes == {"controller"}

    def test_controllers_beside_policy_letters(self):
        """Controller letters interleave with policy letters (E, F, H
        act on their own) and a StaticPolicyController marker."""

        def make_config():
            return _config(
                seed=5,
                letters=("A", "E", "F", "H", "K"),
                include_nl=True,
                window_seconds=24 * HOUR,
                controllers={
                    "A": GreedyShedController(calm_bins=2),
                    "F": StaticPolicyController(),
                    "K": GreedyShedController(calm_bins=2),
                },
            )

        result = _assert_equivalent_runs(make_config)
        for letter in ("E", "F", "H"):
            causes = {r.cause for r in result.deployments[letter].actions}
            assert causes == {"policy"}, letter
        assert len(_route_changes(result.deployments["K"])) > 1

    def test_controlled_determinism_scenario(self):
        """The determinism gate's controller scenario."""
        _assert_equivalent_runs(controlled_config)


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
                for r in dep.actions:
                    standby = not dep.site_spec(r.site).initially_announced
                    seen.add((r.action.value, standby))
        assert {
            ("withdraw", False),
            ("announce", True),
            ("partial", False),
            ("restore", False),
        } <= seen
