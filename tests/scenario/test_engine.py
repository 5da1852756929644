"""Integration tests: the full Nov/Dec 2015 scenario."""

import numpy as np
import pytest

from repro import ScenarioConfig, simulate
from repro.scenario import EVENT_DATES


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_vps=0)
        with pytest.raises(ValueError):
            ScenarioConfig(letters=())
        with pytest.raises(ValueError):
            ScenarioConfig(baseline_days=0)

    def test_window_validation_names_values(self):
        with pytest.raises(ValueError, match="window_seconds.*0"):
            ScenarioConfig(window_seconds=0)
        with pytest.raises(ValueError, match="bin_seconds.*-600"):
            ScenarioConfig(bin_seconds=-600)

    def test_bin_width_must_tile_the_window(self):
        with pytest.raises(ValueError, match="600 does not tile.*10860"):
            ScenarioConfig(window_seconds=10_860)
        ScenarioConfig(window_seconds=10_800)

    def test_sub_config_sizes_must_match_population_sizes(self):
        from repro.atlas.vps import VpPopulationConfig
        from repro.netsim.topology import TopologyConfig

        # An explicit sub-config is what the substrate is built from,
        # so a disagreeing top-level size would misreport the run.
        with pytest.raises(
            ValueError, match=r"n_stubs=3000 .*topology\.n_stubs=600"
        ):
            ScenarioConfig(
                n_stubs=3000,
                topology=TopologyConfig(multihome_fraction=0.5),
            )
        with pytest.raises(ValueError, match=r"n_vps=1500 .*vps\.n_vps=45"):
            ScenarioConfig(vps=VpPopulationConfig(n_vps=45))
        config = ScenarioConfig(
            n_stubs=80,
            n_vps=45,
            topology=TopologyConfig(n_stubs=80, multihome_fraction=0.5),
            vps=VpPopulationConfig(n_vps=45),
        )
        assert config.topology_config().n_stubs == config.n_stubs
        assert config.vp_config().n_vps == config.n_vps

    def test_controllers_only_for_simulated_letters(self):
        from repro.defense import GreedyShedController
        from repro.rootdns.letters import LETTERS_SPEC

        with pytest.raises(ValueError, match=r"letters \['E'\]"):
            ScenarioConfig(
                letters=("K",), controllers={"E": GreedyShedController()}
            )
        ScenarioConfig(
            letters=("K",), controllers={"K": GreedyShedController()}
        )
        # Without a subset every letter of the registry is simulated.
        ScenarioConfig(controllers={"E": GreedyShedController()})
        with pytest.raises(ValueError, match=r"letters \['E'\]"):
            ScenarioConfig(
                custom_letters={"K": LETTERS_SPEC["K"]},
                controllers={"E": GreedyShedController()},
            )

    def test_unknown_letter_names_registry(self):
        with pytest.raises(ValueError, match="unknown letter 'ZZ'"):
            ScenarioConfig(letters=("A", "ZZ"))

    def test_letters_checked_against_custom_registry(self):
        from repro.rootdns.letters import LETTERS_SPEC

        custom = {"K": LETTERS_SPEC["K"]}
        # Valid against the override...
        ScenarioConfig(letters=("K",), custom_letters=custom)
        # ...but canonical letters missing from it are rejected.
        with pytest.raises(ValueError, match="unknown letter 'A'"):
            ScenarioConfig(letters=("A",), custom_letters=custom)

    def test_faults_field_type_checked(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            ScenarioConfig(faults=("not-a-plan",))

    def test_subset_runs(self):
        result = simulate(
            ScenarioConfig(
                seed=3, n_stubs=100, n_vps=80, letters=("B", "K"),
                include_nl=False,
            )
        )
        assert result.letters == ["B", "K"]
        assert result.nl is None

    def test_deterministic_for_seed(self):
        config = ScenarioConfig(
            seed=5, n_stubs=80, n_vps=50, letters=("K",), include_nl=False
        )
        a = simulate(config)
        b = simulate(config)
        assert (
            a.atlas.letter("K").site_idx == b.atlas.letter("K").site_idx
        ).all()

    def test_seed_changes_results(self):
        base = dict(n_stubs=80, n_vps=50, letters=("K",), include_nl=False)
        a = simulate(ScenarioConfig(seed=5, **base))
        b = simulate(ScenarioConfig(seed=6, **base))
        assert (
            a.atlas.letter("K").site_idx != b.atlas.letter("K").site_idx
        ).any()


class TestHeadlineDynamics:
    """The paper's Table 1 observations, asserted on the simulation."""

    def _worst_fraction(self, scenario, letter):
        obs = scenario.atlas.letter(letter)
        succ = (obs.site_idx >= 0).sum(axis=1).astype(float)
        return succ.min() / max(np.median(succ), 1.0)

    def test_letters_see_minimal_to_severe_loss(self, scenario):
        # Section 3.2: loss ranged from ~1 % to ~95 % across letters.
        worst = {
            letter: self._worst_fraction(scenario, letter)
            for letter in scenario.letters
            if letter != "A"
        }
        assert worst["B"] < 0.3          # unicast B suffered most
        assert worst["H"] < 0.4          # primary/backup H next
        assert worst["L"] > 0.9          # big unattacked letters fine
        assert worst["M"] > 0.9
        assert worst["B"] < worst["K"] < worst["L"]

    def test_unattacked_letters_mostly_flat(self, scenario):
        for letter in ("L", "M"):
            assert self._worst_fraction(scenario, letter) > 0.9

    def test_h_root_fails_over_and_back(self, scenario):
        log = [(r.site, r.action.value) for r in
               scenario.deployments["H"].actions if r.cause == "policy"]
        assert log.count(("BWI", "withdraw")) == 2   # both events
        assert log.count(("SAN", "announce")) == 2
        assert log.count(("BWI", "announce")) == 2   # recovered twice

    def test_e_root_withdrawers_stay_down_after_second_event(
        self, scenario
    ):
        e = scenario.deployments["E"]
        for code in ("AMS", "CDG", "WAW", "SYD", "NLV"):
            assert not e.prefix.is_announced(code), code
        # Absorbers remain announced.
        assert e.prefix.is_announced("FRA")

    def test_k_root_partial_withdrawals(self, scenario):
        log = [(r.site, r.action.value) for r in
               scenario.deployments["K"].actions if r.cause == "policy"]
        assert ("LHR", "partial") in log
        assert ("FRA", "partial") in log
        assert ("LHR", "restore") in log
        # K never fully withdraws a big site.
        assert ("LHR", "withdraw") not in log
        assert ("AMS", "withdraw") not in log

    def test_truth_arrays_shapes(self, scenario):
        truth = scenario.truth["K"]
        n_sites = len(truth.site_codes)
        assert truth.offered_qps.shape == (scenario.grid.n_bins, n_sites)
        assert truth.loss.shape == truth.offered_qps.shape
        assert (truth.loss >= 0).all() and (truth.loss <= 1).all()

    def test_attack_load_confined_to_event_bins(self, scenario):
        truth = scenario.truth["K"]
        quiet_bin = scenario.grid.bin_index(
            scenario.grid.start + 20 * 3600
        )
        event_bin = scenario.grid.bin_index(
            scenario.grid.start + int(7.5 * 3600)
        )
        assert truth.offered_qps[event_bin].sum() > (
            20 * truth.offered_qps[quiet_bin].sum()
        )

    def test_rssac_dates(self, scenario):
        reports = scenario.rssac["A"]
        assert [r.date for r in reports[-2:]] == list(EVENT_DATES)

    def test_nl_nodes_silenced(self, scenario):
        normalized = scenario.nl.normalized_series()
        mask = scenario.event_mask()
        # The two co-located nodes drop to nearly nothing (Fig. 15).
        for i in range(2):
            assert normalized[mask, i].min() < 0.25
        # Stand-alone nodes keep serving.
        for i in range(2, normalized.shape[1]):
            assert normalized[mask, i].min() > 0.6

    def test_bufferbloat_rtts_at_absorbers(self, scenario):
        # Fig. 7: overloaded K sites answer with seconds of delay.
        truth = scenario.truth["K"]
        ams = truth.site_codes.index("AMS")
        mask = scenario.event_mask()
        assert truth.delay_ms[mask, ams].max() > 800.0
        assert truth.delay_ms[~mask, ams].max() < 100.0
