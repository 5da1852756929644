"""``LetterProber``'s prepare/draw/finish sampler against the bin-by-bin
reference in :mod:`tests.atlas.prober_reference`.

Each case records random conditions into two probers seeded alike --
quiet, loaded and saturated segments (loss 1, delays past the 5 s
timeout), overloaded shed-to-one sites, partial and total withdrawals,
routing tables that recur, skipped bins, both ``record_bin`` and
``record_bins`` -- then flushes one and samples the other bin by bin.
The matrices and the generator state afterwards must match exactly.
The float32 RTT outputs can hide a last-bit difference in the float64
baselines, so each group's per-pair baselines are also compared with
the reference's VP-by-site matrix directly.
"""

import numpy as np
import pytest

from repro import ScenarioConfig
from repro.atlas import LetterProber, VpPopulationConfig
from repro.atlas.probing import SiteBinConditions
from repro.datasets import (
    RESP_BOGUS,
    RESP_ERROR,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
)
from repro.rootdns import ActionKind
from repro.scenario.engine import build_substrate
from repro.util.timegrid import TimeGrid

from .prober_reference import baseline_rtt_matrix, sample_bin_by_bin

GRID = TimeGrid(start=0, bin_seconds=600, n_bins=96)


@pytest.fixture(scope="module")
def substrate():
    return build_substrate(
        ScenarioConfig(
            seed=11, n_stubs=60, n_vps=45, letters=("A", "K"),
            include_nl=False,
            vps=VpPopulationConfig(n_vps=45, hijacked_fraction=0.1),
        )
    )


def _tables(dep, rng):
    """Full, half-withdrawn and fully withdrawn routing tables, routed
    on a copy of *dep*."""
    dep = dep.snapshot()
    announced = [c for c in dep.site_order if dep.prefix.is_announced(c)]
    tables = [dep.routing()]
    half = rng.choice(announced, size=max(1, len(announced) // 2),
                      replace=False)
    for code in half:
        dep.act(str(code), ActionKind.WITHDRAW, 0.0, "policy")
    tables.append(dep.routing())
    for code in announced:
        dep.act(code, ActionKind.WITHDRAW, 0.0, "policy")
    tables.append(dep.routing())
    return tables


def _record(probers, dep, tables, rng, bad_shed=()):
    """Record random segments into every prober alike."""
    n_sites = len(dep.site_order)
    shed_site = dep.states.get("FRA")
    b = 0
    while b < GRID.n_bins:
        stop = min(GRID.n_bins, b + int(rng.integers(1, 12)))
        rows = (stop - b, n_sites)
        kind = rng.integers(3)  # quiet, loaded, saturated
        loss = np.zeros(rows)
        over = np.zeros(rows, dtype=bool)
        delay = rng.uniform(0.0, 40.0, rows) * (rng.random() < 0.5)
        if kind:
            over = rng.random(rows) < 0.4
            loss = np.where(
                rng.random(rows) < 0.5, rng.uniform(0.0, 0.7, rows), 0.0
            )
            delay = rng.uniform(0.0, 400.0, rows)
        if kind == 2:
            loss[rng.random(rows) < 0.3] = 1.0
            delay[rng.random(rows) < 0.3] = rng.uniform(5000.0, 9000.0)
        if shed_site is not None:
            shed_site.shed_server = int(
                rng.choice(bad_shed) if bad_shed and kind
                else rng.integers(1, shed_site.spec.n_servers + 1)
            )
        table = tables[int(rng.integers(len(tables)))]
        if rng.random() < 0.1:
            pass  # unrecorded bins stay "not probed"
        elif rng.random() < 0.5:
            shed = [dep.states[c].shed_server for c in dep.site_order]
            for p in probers:
                p.record_bins(b, table, loss, delay, over, shed)
        else:
            for i in range(stop - b):
                conditions = SiteBinConditions(loss[i], delay[i], over[i])
                for p in probers:
                    p.record_bin(b + i, table, conditions)
        b = stop


def _pair(substrate, letter, seed, bad_shed=()):
    # _record rotates shed servers: work on a copy.
    dep = substrate.deployments[letter].snapshot()
    rng = np.random.default_rng(seed)
    tables = _tables(dep, rng)
    probers = [
        LetterProber(dep, substrate.vps, GRID, np.random.default_rng(seed))
        for _ in range(2)
    ]
    _record(probers, dep, tables, rng, bad_shed)
    return probers


@pytest.mark.parametrize("letter", ["A", "K"])
@pytest.mark.parametrize("seed", range(6))
def test_flush_matches_bin_by_bin_reference(substrate, letter, seed):
    prober, reference = _pair(substrate, letter, seed)
    obs = prober.finish()
    site_idx, rtt_ms, server = sample_bin_by_bin(reference)
    np.testing.assert_array_equal(obs.site_idx, site_idx)
    np.testing.assert_array_equal(obs.rtt_ms, rtt_ms)
    np.testing.assert_array_equal(obs.server, server)
    assert (
        prober.rng.bit_generator.state == reference.rng.bit_generator.state
    )


@pytest.mark.parametrize("letter", ["A", "K"])
def test_group_baselines_match_the_matrix(substrate, letter):
    dep = substrate.deployments[letter]
    prober = LetterProber(
        dep, substrate.vps, GRID, np.random.default_rng(0)
    )
    matrix = baseline_rtt_matrix(prober)
    n_groups = 0
    for table in _tables(dep, np.random.default_rng(0)):
        for phase in range(prober.bins_per_probe):
            g = prober._group(table, phase, [phase])
            if g is None:
                continue
            n_groups += 1
            routed = np.flatnonzero(g.columns < g.sites.size)
            np.testing.assert_array_equal(
                g.base_rtt, matrix[routed, g.sites]
            )
    assert n_groups == 3 * prober.bins_per_probe


def test_cases_cover_every_outcome(substrate):
    # The random recordings above must exercise what they claim to:
    # A-Root's unprobed bins, hijacked answers, timeouts, error codes,
    # bins where no probed VP has a route, K-FRA's shed-to-one
    # answers (from a server other than the VP's hash-balanced one),
    # skipped bins, and groups whose recurring table makes their bins
    # irregular (stored through an index array, not a row slice).
    codes, unrouted_bins, shed_bins = set(), 0, 0
    skipped_bins, irregular_groups = 0, 0
    for letter in ("A", "K"):
        for seed in range(6):
            prober, _ = _pair(substrate, letter, seed)
            by_key = {}
            for b in np.flatnonzero(prober._recorded).tolist():
                key = (prober._table_of_bin[b], b % prober.bins_per_probe)
                by_key.setdefault(key, []).append(b)
            irregular_groups += sum(
                not isinstance(prober._block_index(np.asarray(bins)), slice)
                for bins in by_key.values()
            )
            skipped_bins += int((~prober._recorded).sum())
            obs = prober.finish()
            codes |= {int(c) for c in np.unique(obs.site_idx)}
            unrouted_bins += sum(
                bool((prober._vp_site_indices(prober._table_of_bin[b]) < 0)
                     .all())
                for b in np.flatnonzero(prober._recorded).tolist()
            )
            if letter == "K":
                fra = prober.site_codes.index("FRA")
                balanced = prober.vp_hashes % prober.n_servers[fra] + 1
                shed_bins += int(
                    ((obs.site_idx == fra) & (obs.server != balanced))
                    .any(axis=1).sum()
                )
    assert {RESP_TIMEOUT, RESP_ERROR, RESP_BOGUS, RESP_NOT_PROBED} <= codes
    assert unrouted_bins > 0
    assert shed_bins > 0
    assert skipped_bins > 0
    assert irregular_groups > 0


@pytest.mark.parametrize("seed", range(4))
def test_out_of_range_shed_server_raises_like_reference(substrate, seed):
    prober, reference = _pair(substrate, "K", seed, bad_shed=(0, 4, 9))
    with pytest.raises(ValueError) as expected:
        sample_bin_by_bin(reference)
    with pytest.raises(ValueError) as got:
        prober.finish()
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("shed server ")
