"""Tests for the recursive-resolver layer (whole-root redundancy)."""

import numpy as np
import pytest

from repro.resolver import (
    Outcome,
    RecursiveResolver,
    ResolverConfig,
    RootSystemView,
    SrttSelector,
    TtlCache,
    UniformSelector,
    WholeRootConfig,
    run_whole_root,
)


class TestTtlCache:
    def test_miss_then_hit(self):
        cache = TtlCache()
        assert not cache.get("com", 0.0)
        cache.put("com", 0.0, ttl=100.0)
        assert cache.get("com", 50.0)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_expiry(self):
        cache = TtlCache()
        cache.put("com", 0.0, ttl=100.0)
        assert not cache.get("com", 100.0)
        assert len(cache) == 0

    def test_flush(self):
        cache = TtlCache()
        cache.put("com", 0.0, 100.0)
        cache.flush()
        assert not cache.get("com", 1.0)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            TtlCache().put("com", 0.0, 0.0)

    def test_hit_ratio(self):
        cache = TtlCache()
        assert cache.hit_ratio == 0.0
        cache.put("com", 0.0, 10.0)
        cache.get("com", 1.0)
        cache.get("net", 1.0)
        assert cache.hit_ratio == pytest.approx(0.5)


class TestSelectors:
    def test_srtt_prefers_fastest(self):
        sel = SrttSelector(letters=("A", "B", "C"))
        sel.update("B", 10.0)
        sel.update("A", 300.0)
        rng = np.random.default_rng(0)
        assert sel.pick(set(), rng) == "B"

    def test_penalty_steers_away(self):
        # The letter-flip mechanism: timeouts push resolvers to other
        # letters (section 3.4.1).
        sel = SrttSelector(letters=("A", "B"))
        sel.update("A", 10.0)
        sel.update("B", 50.0)
        rng = np.random.default_rng(0)
        assert sel.pick(set(), rng) == "A"
        for _ in range(5):
            sel.penalize("A")
        assert sel.pick(set(), rng) == "B"

    def test_exclusion(self):
        sel = SrttSelector(letters=("A", "B"))
        rng = np.random.default_rng(0)
        assert sel.pick({"A"}, rng) == "B"
        with pytest.raises(ValueError):
            sel.pick({"A", "B"}, rng)

    def test_decay_allows_reexploration(self):
        sel = SrttSelector(letters=("A", "B"), decay=0.5)
        sel.update("A", 10.0)
        sel.penalize("A")
        sel.penalize("A")
        # B decays towards zero as A is repeatedly used/penalised.
        for _ in range(20):
            sel.penalize("A")
        rng = np.random.default_rng(0)
        assert sel.pick(set(), rng) == "B"

    def test_unknown_letter_raises(self):
        sel = SrttSelector(letters=("A",))
        with pytest.raises(KeyError):
            sel.update("Z", 1.0)
        with pytest.raises(KeyError):
            sel.penalize("Z")

    def test_uniform_selector(self):
        sel = UniformSelector(letters=("A", "B", "C"))
        rng = np.random.default_rng(0)
        picks = {sel.pick(set(), rng) for _ in range(50)}
        assert picks == {"A", "B", "C"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SrttSelector(letters=())
        with pytest.raises(ValueError):
            SrttSelector(letters=("A",), alpha=0.0)
        with pytest.raises(ValueError):
            UniformSelector(letters=())


class TestRootView:
    def test_query_interface(self, scenario):
        view = RootSystemView(scenario)
        rng = np.random.default_rng(1)
        quiet = scenario.grid.start + 20 * 3600
        ok, rtt = view.query("L", 0, quiet, rng)
        assert ok
        assert 0 < rtt <= 1000.0

    def test_attacked_letter_fails_often_during_event(self, scenario):
        view = RootSystemView(scenario)
        rng = np.random.default_rng(1)
        during = scenario.grid.start + int(8 * 3600)
        failures = sum(
            1
            for i in range(0, view.n_stubs, 3)
            if not view.query("B", i, during, rng)[0]
        )
        assert failures > view.n_stubs / 3 * 0.5

    def test_validation(self, scenario):
        view = RootSystemView(scenario)
        rng = np.random.default_rng(1)
        with pytest.raises(KeyError):
            view.query("Z", 0, scenario.grid.start, rng)
        with pytest.raises(IndexError):
            view.query("L", 10**6, scenario.grid.start, rng)


class TestResolver:
    def _resolver(self, scenario, **kwargs):
        view = RootSystemView(scenario)
        return RecursiveResolver(
            stub_index=0,
            view=view,
            selector=SrttSelector(letters=tuple(scenario.letters)),
            config=ResolverConfig(**kwargs),
            rng=np.random.default_rng(2),
        )

    def test_cache_hit_after_first_lookup(self, scenario):
        resolver = self._resolver(scenario)
        t = float(scenario.grid.start + 1000)
        first = resolver.resolve("com", t)
        assert first.outcome is Outcome.ROOT_OK
        second = resolver.resolve("com", t + 60)
        assert second.outcome is Outcome.CACHE_HIT
        assert second.latency_ms == 0.0

    def test_retries_across_letters(self, scenario):
        resolver = self._resolver(scenario, max_attempts=4)
        during = float(scenario.grid.start + 8 * 3600)
        # Force the selector onto B first.
        for letter in scenario.letters:
            resolver.selector.srtt[letter] = 500.0
        resolver.selector.srtt["B"] = 1.0
        resolution = resolver.resolve("org", during)
        if resolution.outcome is Outcome.ROOT_OK:
            assert resolution.letters_tried[0] == "B" or (
                len(resolution.letters_tried) >= 1
            )
        assert len(set(resolution.letters_tried)) == len(
            resolution.letters_tried
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResolverConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ResolverConfig(delegation_ttl_s=0)


class TestWholeRoot:
    @pytest.fixture(scope="class")
    def outcome(self, scenario):
        config = WholeRootConfig(
            n_resolvers=60,
            queries_per_resolver_per_bin=1.5,
        )
        return run_whole_root(scenario, config, np.random.default_rng(5))

    def test_end_users_barely_notice(self, outcome):
        # Section 2.3: "no known reports of end-user visible errors".
        assert outcome.overall_failure_fraction() < 0.01

    def test_caching_absorbs_most_queries(self, outcome):
        hit_ratio = outcome.cache_hits.sum() / outcome.user_queries.sum()
        assert hit_ratio > 0.8

    def test_lookup_latency_bumps_during_events(self, scenario, outcome):
        mask = scenario.event_mask()
        latency = outcome.mean_lookup_latency_ms
        quiet = float(np.nanmedian(latency[~mask]))
        during = float(np.nanmedian(latency[mask]))
        assert during > 1.5 * quiet

    def test_letter_share_bundle(self, scenario, outcome):
        bundle = outcome.letter_share_series()
        assert sorted(bundle.names) == sorted(scenario.letters)

    def test_short_ttl_steers_away_from_attacked_letters(self, scenario):
        # With frequent root lookups, SRTT selection drains successful
        # traffic from attacked letters during the events -- the
        # resolver-side view of the paper's letter flips.
        config = WholeRootConfig(
            n_resolvers=40,
            queries_per_resolver_per_bin=2.0,
            resolver=ResolverConfig(delegation_ttl_s=600.0),
        )
        outcome = run_whole_root(
            scenario, config, np.random.default_rng(6)
        )
        mask = scenario.event_mask()
        attacked = sum(
            outcome.letter_successes[L] for L in ("B", "H")
        )
        safe = sum(outcome.letter_successes[L] for L in ("D", "L", "M"))
        quiet_ratio = attacked[~mask].sum() / max(safe[~mask].sum(), 1)
        event_ratio = attacked[mask].sum() / max(safe[mask].sum(), 1)
        assert event_ratio < quiet_ratio

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WholeRootConfig(n_resolvers=0)
        with pytest.raises(ValueError):
            WholeRootConfig(selection="fastest")
