"""Integration tests: letters deployed on the topology, policy loop."""

import numpy as np
import pytest

from repro.netsim import TopologyConfig, build_topology
from repro.rootdns import (
    ActionKind,
    FacilityRegistry,
    LETTERS_SPEC,
    LetterDeployment,
    build_deployments,
)


def _rho(dep, by_site):
    """*dep*'s utilisation row: ``{code: rho}``, 0.0 elsewhere."""
    return np.array([by_site.get(code, 0.0) for code in dep.site_order])


@pytest.fixture(scope="module")
def topo():
    return build_topology(
        TopologyConfig(n_stubs=400), np.random.default_rng(5)
    )


@pytest.fixture(scope="module")
def deployments(topo):
    return build_deployments(topo, FacilityRegistry())


class TestBuild:
    def test_all_letters_deployed(self, deployments):
        assert sorted(deployments) == sorted(LETTERS_SPEC)

    def test_every_stub_reaches_every_letter(self, topo, deployments):
        for letter, dep in deployments.items():
            table = dep.routing()
            unreached = [
                a for a in topo.stub_asns if table.site_of(a) is None
            ]
            assert not unreached, f"{letter}: {len(unreached)} stubs dark"

    def test_host_as_labels_are_unique(self, topo, deployments):
        labels = list(topo.site_host_asns)
        assert len(labels) == len(set(labels))

    def test_standby_site_not_in_initial_routing(self, deployments):
        h = deployments["H"]
        assert not h.prefix.is_announced("SAN")
        assert h.prefix.is_announced("BWI")
        assert set(h.routing().catchments()) == {"BWI"}

    def test_facilities_registered(self, topo):
        registry = FacilityRegistry()
        build_deployments(
            build_topology(TopologyConfig(n_stubs=50),
                           np.random.default_rng(1)),
            registry,
        )
        assert "FRA-DC" in registry.facilities
        fra_letters = {m.label[0] for m in registry.members("FRA-DC")}
        assert len(fra_letters) >= 5


class TestPolicyLoop:
    def _fresh(self, topo, letter):
        # Deployments mutate state; build a private copy on a private
        # topology for policy-machine tests.
        private_topo = build_topology(
            TopologyConfig(n_stubs=200), np.random.default_rng(9)
        )
        return LetterDeployment(LETTERS_SPEC[letter], private_topo)

    def test_withdraw_policy_fires_on_overload(self, topo):
        e = self._fresh(topo, "E")
        assert e.prefix.is_announced("AMS")
        logged = e.apply_policies(
            _rho(e, {"AMS": 10.0}), letter_under_attack=True,
            timestamp=100.0,
        )
        assert logged
        assert not e.prefix.is_announced("AMS")
        assert e.state("AMS").withdrawals == 1

    def test_absorber_never_withdraws(self, topo):
        k = self._fresh(topo, "K")
        k.apply_policies(
            _rho(k, {"AMS": 50.0}), letter_under_attack=True,
            timestamp=100.0,
        )
        assert k.prefix.is_announced("AMS")

    def test_partial_withdraw_blocks_providers_only(self, topo):
        k = self._fresh(topo, "K")
        k.apply_policies(
            _rho(k, {"LHR": 5.0}), letter_under_attack=True,
            timestamp=100.0,
        )
        assert k.prefix.is_announced("LHR")
        assert k.state("LHR").partial
        blocked = k.prefix.blocked_neighbors("LHR")
        providers = set(k.topology.graph.providers(k.host_asns["LHR"]))
        assert blocked == frozenset(providers)
        # The IXP peers remain reachable ("stuck" group).
        assert k.topology.graph.peers(k.host_asns["LHR"])

    def test_recovery_after_calm(self, topo):
        e = self._fresh(topo, "E")
        e.apply_policies(_rho(e, {"AMS": 10.0}), True, 100.0)
        assert not e.prefix.is_announced("AMS")
        for i in range(10):
            e.apply_policies(_rho(e, {}), letter_under_attack=False,
                             timestamp=200.0 + i)
        assert e.prefix.is_announced("AMS")

    def test_no_recovery_while_attack_continues(self, topo):
        e = self._fresh(topo, "E")
        e.apply_policies(_rho(e, {"AMS": 10.0}), True, 100.0)
        for i in range(20):
            e.apply_policies(_rho(e, {}), letter_under_attack=True,
                             timestamp=200.0 + i)
        assert not e.prefix.is_announced("AMS")

    def test_reannounce_limit_keeps_site_down_after_second_event(self, topo):
        # The five E-Root sites that "shut down" after Dec 1 (Fig. 6a).
        e = self._fresh(topo, "E")
        # Event 1 withdraws AMS.
        e.apply_policies(_rho(e, {"AMS": 10.0}), True, 100.0)
        for i in range(10):  # recovery between events
            e.apply_policies(_rho(e, {}), False, 200.0 + i)
        assert e.prefix.is_announced("AMS")
        # Event 2 withdraws it again.
        e.apply_policies(_rho(e, {"AMS": 10.0}), True, 300.0)
        for i in range(50):
            e.apply_policies(_rho(e, {}), False, 400.0 + i)
        assert not e.prefix.is_announced("AMS")

    def test_partial_withdraw_restores_after_calm(self, topo):
        k = self._fresh(topo, "K")
        k.apply_policies(_rho(k, {"FRA": 5.0}), True, 100.0)
        assert k.state("FRA").partial
        shed_before = k.state("FRA").shed_server
        for i in range(10):
            k.apply_policies(_rho(k, {}), False, 200.0 + i)
        assert not k.state("FRA").partial
        assert k.prefix.blocked_neighbors("FRA") == frozenset()
        # The shed server rotates for the next event (Fig. 12).
        assert k.state("FRA").shed_server != shed_before

    def test_returns_whether_it_logged(self, topo):
        k = self._fresh(topo, "K")
        calm = _rho(k, {})
        assert not k.apply_policies(calm, False, 50.0)
        assert k.apply_policies(_rho(k, {"FRA": 5.0}), True, 100.0)
        steps = [k.apply_policies(calm, False, 200.0 + i) for i in range(6)]
        # Calm bins log nothing until the restore.
        assert steps.count(True) == 1 and steps[-1]
        assert [(r.action, r.cause) for r in k.actions] == [
            (ActionKind.PARTIAL, "policy"),
            (ActionKind.RESTORE, "policy"),
        ]

    def test_standby_activates_and_deactivates(self, topo):
        h = self._fresh(topo, "H")
        h.apply_policies(_rho(h, {"BWI": 12.0}), True, 100.0)
        assert not h.prefix.is_announced("BWI")
        assert h.prefix.is_announced("SAN")
        assert set(h.routing().catchments()) == {"SAN"}
        # Calm: primary returns, standby goes dark again.
        for i in range(10):
            h.apply_policies(_rho(h, {}), False, 200.0 + i)
        assert h.prefix.is_announced("BWI")
        assert not h.prefix.is_announced("SAN")

    def test_policy_log_records_actions(self, topo):
        h = self._fresh(topo, "H")
        h.apply_policies(_rho(h, {"BWI": 12.0}), True, 100.0)
        actions = [(r.timestamp, r.site, r.action) for r in h.actions]
        assert (100.0, "BWI", ActionKind.WITHDRAW) in actions
        assert (100.0, "SAN", ActionKind.ANNOUNCE) in actions
        assert {r.cause for r in h.actions} == {"policy"}

    def test_unknown_site_raises(self, topo):
        k = self._fresh(topo, "K")
        with pytest.raises(KeyError):
            k.state("ZZZ")
        with pytest.raises(KeyError):
            k.site_spec("ZZZ")

    def test_act_partial_blocks_and_restores(self, topo):
        k = self._fresh(topo, "K")
        providers = frozenset(
            k.topology.graph.providers(k.host_asns["LHR"])
        )
        assert k.act("LHR", ActionKind.PARTIAL, 100.0, "controller")
        assert k.state("LHR").partial
        assert k.prefix.blocked_neighbors("LHR") == providers
        assert not k.is_quiet()
        # Repeating an action changes nothing and records nothing.
        assert not k.act("LHR", ActionKind.PARTIAL, 101.0, "controller")
        assert k.act("LHR", ActionKind.RESTORE, 102.0, "controller")
        assert not k.state("LHR").partial
        assert k.prefix.blocked_neighbors("LHR") == frozenset()
        assert k.is_quiet()
        assert [(r.timestamp, r.action, r.cause) for r in k.actions] == [
            (100.0, ActionKind.PARTIAL, "controller"),
            (102.0, ActionKind.RESTORE, "controller"),
        ]
        # The restore moves back exactly the routes the partial moved.
        assert k.actions[0].changed_asns == k.actions[1].changed_asns


class TestStandby:
    def test_initial_respects_standby(self):
        topo = build_topology(
            TopologyConfig(n_stubs=100), np.random.default_rng(9)
        )
        h = LetterDeployment(LETTERS_SPEC["H"], topo)
        assert not h.prefix.is_announced("SAN")
        assert not h.actions
        initial = h.snapshot()
        h.apply_policies(_rho(h, {"BWI": 12.0}), True, 100.0)
        assert h.prefix.is_announced("SAN")
        assert h.actions
        assert not initial.prefix.is_announced("SAN")
        assert initial.prefix.is_announced("BWI")
        assert not initial.actions


class TestSnapshot:
    def test_snapshot_keeps_its_own_run_state(self):
        topo = build_topology(
            TopologyConfig(n_stubs=200), np.random.default_rng(9)
        )
        k = LetterDeployment(LETTERS_SPEC["K"], topo)
        initial = k.snapshot()
        # A partial withdraw, then a fault flap.
        k.apply_policies(_rho(k, {"LHR": 5.0}), True, 100.0)
        k.act("AMS", ActionKind.WITHDRAW, 101.0, "fault")
        saved = k.snapshot()
        records = list(k.actions)
        k.act("AMS", ActionKind.ANNOUNCE, 102.0, "fault")
        k.act("LHR", ActionKind.RESTORE, 103.0, "controller")
        # The earlier copies see none of the later changes.
        assert not initial.actions
        assert not initial.state("LHR").partial
        assert not initial.prefix.blocked_neighbors("LHR")
        assert initial.prefix.is_announced("AMS")
        assert saved.actions == records == k.actions[:2]
        assert saved.state("LHR").partial
        assert saved.prefix.blocked_neighbors("LHR")
        assert not saved.prefix.is_announced("AMS")
