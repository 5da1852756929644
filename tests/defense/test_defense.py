"""Tests for the automated-defense controllers and evaluation."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.defense import (
    Action,
    ActionKind,
    GreedyShedController,
    LetterObservation,
    NullController,
    OracleController,
    compare_controllers,
    evaluate_controller,
    served_fractions,
)
from repro.scenario.presets import june2016_config
from repro.util import EVENTS

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))

from check_determinism import FAULT_PLAN  # noqa: E402

#: The observation's site-order rows.
ROWS = ("capacity_qps", "accepted_qps", "dropped_qps", "announced",
        "partial")


def _obs(code, capacity=100.0, accepted=50.0, dropped=0.0,
         announced=True, partial=False):
    """One site's entries in an observation's rows."""
    return dict(
        code=code, capacity_qps=capacity, accepted_qps=accepted,
        dropped_qps=dropped, announced=announced, partial=partial,
    )


def _letter_obs(*sites):
    """A K-Root observation whose rows hold *sites* in order."""
    return LetterObservation(
        letter="K", bin_index=0, codes=[s["code"] for s in sites],
        **{name: [s[name] for s in sites] for name in ROWS},
    )


class TestObservation:
    def test_derived_quantities(self):
        obs = _letter_obs(
            _obs("AMS", capacity=100, accepted=80, dropped=120),
            _obs("LHR", capacity=200, accepted=50),
        )
        assert obs.codes == ("AMS", "LHR")
        assert obs.offered_qps.tolist() == [200.0, 50.0]
        assert obs.utilisation.tolist() == pytest.approx([2.0, 0.25])
        assert obs.announced.dtype == bool

    def test_validation(self):
        with pytest.raises(ValueError):
            _letter_obs(_obs("AMS", capacity=0))
        with pytest.raises(ValueError):
            _letter_obs(_obs("AMS", accepted=-1))
        with pytest.raises(ValueError):
            _letter_obs(_obs("AMS", dropped=-1))
        with pytest.raises(ValueError, match="shape"):
            LetterObservation(
                letter="K", bin_index=0, codes=("AMS", "LHR"),
                capacity_qps=np.ones(2), accepted_qps=np.ones(2),
                dropped_qps=np.zeros(3), announced=np.ones(2, bool),
                partial=np.zeros(2, bool),
            )

    def test_rows_are_read_only(self):
        """A controller cannot write into the arrays the engine passed
        (the deployment's capacity vector, the memoized announced
        mask), and the engine's own arrays stay writable."""
        rows = {
            "capacity_qps": np.full(2, 100.0),
            "accepted_qps": np.full(2, 50.0),
            "dropped_qps": np.zeros(2),
            "announced": np.ones(2, dtype=bool),
            "partial": np.zeros(2, dtype=bool),
        }
        obs = LetterObservation(
            letter="K", bin_index=0, codes=("AMS", "LHR"), **rows
        )
        for name, source in rows.items():
            with pytest.raises(ValueError, match="read-only"):
                getattr(obs, name)[0] = 0
            assert np.shares_memory(getattr(obs, name), source)
            assert source.flags.writeable
        assert obs.capacity_qps.tolist() == [100.0, 100.0]
        assert obs.announced.all() and not obs.partial.any()


class TestNullController:
    def test_never_acts(self):
        controller = NullController()
        letter = _letter_obs(
            _obs("AMS", accepted=90, dropped=1000)
        )
        assert controller.decide(letter) == []


class TestGreedyShed:
    def test_withdraws_when_headroom_exists(self):
        controller = GreedyShedController(safety=1.0)
        letter = _letter_obs(
            _obs("LHR", capacity=100, accepted=100, dropped=200),
            _obs("AMS", capacity=1000, accepted=100),
        )
        actions = controller.decide(letter)
        assert Action(ActionKind.WITHDRAW, "LHR") in actions

    def test_ties_withdraw_the_first_site(self):
        controller = GreedyShedController(safety=1.0)
        letter = _letter_obs(
            _obs("AMS", capacity=1000, accepted=10),
            _obs("LHR", capacity=100, accepted=100, dropped=100),
            _obs("FRA", capacity=100, accepted=100, dropped=100),
        )
        assert controller.decide(letter) == [
            Action(ActionKind.WITHDRAW, "LHR")
        ]

    def test_keeps_last_site_announced(self):
        controller = GreedyShedController(min_announced=1)
        letter = _letter_obs(
            _obs("LHR", capacity=100, accepted=100, dropped=500),
        )
        assert controller.decide(letter) == []

    def test_no_action_without_headroom(self):
        controller = GreedyShedController(safety=1.5)
        letter = _letter_obs(
            _obs("LHR", capacity=100, accepted=100, dropped=500),
            _obs("AMS", capacity=120, accepted=110),
        )
        assert controller.decide(letter) == []

    def test_reannounce_after_calm(self):
        controller = GreedyShedController(calm_bins=2)
        withdrawn = _letter_obs(
            _obs("LHR", announced=False, accepted=0),
            _obs("AMS", capacity=1000, accepted=50),
        )
        assert controller.decide(withdrawn) == []  # 1 quiet bin
        actions = controller.decide(withdrawn)      # 2 quiet bins
        assert Action(ActionKind.ANNOUNCE, "LHR") in actions

    def test_no_reannounce_while_overloaded(self):
        controller = GreedyShedController(calm_bins=1)
        letter = _letter_obs(
            _obs("LHR", announced=False, accepted=0),
            _obs("AMS", capacity=100, accepted=90, dropped=100),
        )
        actions = controller.decide(letter)
        assert Action(ActionKind.ANNOUNCE, "LHR") not in actions

    def test_validation(self):
        with pytest.raises(ValueError):
            GreedyShedController(safety=0.5)
        with pytest.raises(ValueError):
            GreedyShedController(min_announced=0)


class TestOracle:
    def test_withdraws_hopeless_small_site(self):
        controller = OracleController()
        controller.set_truth(np.array([500.0, 200.0]))
        letter = _letter_obs(
            _obs("LHR", capacity=100, accepted=100, dropped=400),
            _obs("AMS", capacity=1000, accepted=200),
        )
        actions = controller.decide(letter)
        assert Action(ActionKind.WITHDRAW, "LHR") in actions

    def test_absorbs_when_withdrawal_cannot_help(self):
        controller = OracleController()
        controller.set_truth(np.array([5000.0, 5000.0]))
        letter = _letter_obs(
            _obs("LHR", capacity=100, accepted=100, dropped=4900),
            _obs("AMS", capacity=100, accepted=100, dropped=4900),
        )
        # Moving LHR's 5000 onto AMS serves no more traffic.
        assert controller.decide(letter) == []

    def test_truth_row_must_match_the_sites(self):
        controller = OracleController()
        controller.set_truth(np.array([10.0, 10.0, 10.0]))
        letter = _letter_obs(_obs("LHR"), _obs("AMS"))
        with pytest.raises(ValueError, match="truth row"):
            controller.decide(letter)

    def test_reannounces_after_attack(self):
        controller = OracleController()
        controller.set_truth(np.array([10.0, 10.0]))
        letter = _letter_obs(
            _obs("LHR", announced=False, accepted=0),
            _obs("AMS", capacity=1000, accepted=10),
        )
        actions = controller.decide(letter)
        assert Action(ActionKind.ANNOUNCE, "LHR") in actions


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def base_config(self):
        return ScenarioConfig(
            seed=13, n_stubs=200, n_vps=200, letters=("K",),
            include_nl=False,
        )

    def test_served_fractions_bounds(self, base_config):
        result = simulate(base_config)
        overall, during, worst = served_fractions(result, "K")
        assert 0 <= worst <= during <= 1.0 + 1e-9
        assert 0 <= overall <= 1.0 + 1e-9
        assert during < overall  # events hurt

    def test_null_controller_takes_no_routing_action(self, base_config):
        outcome = evaluate_controller(
            base_config, "K", "absorb", NullController
        )
        assert outcome.routing_actions == 0

    def test_standby_start_is_not_a_routing_action(self):
        # H-Root's backup starts withdrawn; that initial state is not
        # an action the controller took.
        config = ScenarioConfig(
            seed=13, n_stubs=80, n_vps=40, letters=("H",),
            include_nl=False,
        )
        outcome = evaluate_controller(config, "H", "absorb", NullController)
        assert outcome.routing_actions == 0

    def test_fault_flaps_are_not_routing_actions(self):
        # The plan's BgpSessionReset flaps K-LHR; those route changes
        # are recorded for BGPmon to read, but the controller never
        # acted, so none of them is its routing action.
        config = ScenarioConfig(
            seed=7, n_stubs=60, n_vps=30, letters=("K",),
            include_nl=False, faults=FAULT_PLAN,
        )
        outcome = evaluate_controller(config, "K", "absorb", NullController)
        assert outcome.routing_actions == 0
        result = simulate(dataclasses.replace(
            config, controllers={"K": NullController()}
        ))
        assert [
            (record.action.value, record.cause)
            for record in result.deployments["K"].actions
            if record.changed_asns
        ] == [("withdraw", "fault"), ("announce", "fault")]

    def test_static_policies_act(self, base_config):
        outcome = evaluate_controller(base_config, "K", "static", None)
        assert outcome.routing_actions > 0

    def test_window_without_the_events(self):
        """A six-hour window ends before either paper event starts."""
        config = ScenarioConfig(
            seed=3, n_stubs=60, n_vps=30, letters=("A", "K"),
            include_nl=False, window_seconds=6 * 3600,
        )
        outcome = evaluate_controller(config, "K", "static", None)
        assert outcome.served_during_events == 1.0
        assert 0.0 <= outcome.worst_bin <= outcome.served_overall <= 1.0

    def test_events_are_the_scenario_own(self):
        """The June 2016 preset scores its own event bins, not the
        Nov 2015 windows (which it holds none of)."""
        result = simulate(june2016_config(
            seed=3, n_stubs=80, n_vps=40, letters=("K",),
            include_nl=False,
        ))
        mask = result.event_mask()
        assert mask.sum() == 15
        assert not result.grid.event_mask(EVENTS).any()
        truth = result.truth["K"]
        _, during, _ = served_fractions(result, "K")
        assert during == pytest.approx(
            truth.legit_served_qps[mask].sum()
            / truth.legit_offered_qps[mask].sum()
        )
        assert during < 0.5

    def test_comparison_builds_one_substrate(self, base_config, monkeypatch):
        """Controllers are not part of the substrate, so one build
        serves every controller, and each scores as on a fresh run."""
        from repro.defense import evaluate
        from repro.scenario import engine

        controllers = {
            "static": None,
            "absorb": NullController,
            "greedy": GreedyShedController,
            "oracle": OracleController,
        }
        fresh = [
            evaluate_controller(base_config, "K", name, factory)
            for name, factory in controllers.items()
        ]
        builds = []
        build = engine.build_substrate

        def counting_build(config):
            builds.append(config)
            return build(config)

        monkeypatch.setattr(engine, "build_substrate", counting_build)
        monkeypatch.setattr(
            evaluate, "build_substrate", counting_build, raising=False
        )
        table = compare_controllers(base_config, "K", controllers)
        assert len(builds) == 1
        assert table.rows == tuple(
            (
                o.name,
                round(o.served_overall, 3),
                round(o.served_during_events, 3),
                round(o.worst_bin, 3),
                o.routing_actions,
            )
            for o in fresh
        )
        shared = build(base_config)
        assert [
            evaluate_controller(base_config, "K", name, factory, shared)
            for name, factory in controllers.items()
        ] == fresh

    def test_comparison_table(self, base_config):
        table = compare_controllers(
            base_config,
            "K",
            {
                "absorb": NullController,
                "oracle": OracleController,
            },
        )
        assert len(table.rows) == 2
        oracle = table.row_for("oracle")
        absorb = table.row_for("absorb")
        # The oracle never does worse than doing nothing overall.
        assert oracle[1] >= absorb[1] - 0.02
