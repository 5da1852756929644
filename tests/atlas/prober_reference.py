"""Bin-by-bin reference sampler for :class:`repro.atlas.LetterProber`.

The executable specification of what ``LetterProber.flush`` computes:
each recorded bin, in ascending order, draws and stores its outcomes
before the next bin starts, with every probability and multiplier
spelled out per bin (no quiet-bin shortcut, no grouping, no blocks).
``tests/atlas/test_prober_reference.py`` pins the prober to it bit for
bit, the way ``repro.netsim.bgp_reference`` pins the routing kernel.

It reads the prober's static set-up and recorded conditions and draws
from the prober's own generator, so run it on a prober that recorded
the same bins as the one under test but was never flushed.
"""

from __future__ import annotations

import numpy as np

from repro.atlas.probing import (
    BASELINE_FAILURE_PROB,
    ERROR_GIVEN_FAILURE,
    HIJACK_RTT_MS,
    RTT_JITTER_SIGMA,
    LetterProber,
)
from repro.datasets import (
    RESP_BOGUS,
    RESP_ERROR,
    RESP_NOT_PROBED,
    RESP_TIMEOUT,
)
from repro.util.timegrid import ATLAS_TIMEOUT_MS


def sample_bin_by_bin(
    prober: LetterProber,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(site_idx, rtt_ms, server)`` sampled one bin at a time."""
    shape = (prober.grid.n_bins, len(prober.vps))
    site_idx = np.full(shape, RESP_NOT_PROBED, dtype=np.int16)
    rtt_ms = np.full(shape, np.nan, dtype=np.float32)
    server = np.zeros(shape, dtype=np.int16)
    rng = prober.rng
    hijacked = prober.vps.hijacked
    for b in np.flatnonzero(prober._recorded).tolist():
        probed = (b + prober.probe_phase) % prober.bins_per_probe == 0
        table = prober._tables[int(prober._version_of_bin[b])]
        vp_site = prober._vp_site_indices(table)

        # Hijacked VPs: a third party's fast bogus answer.
        hij = np.flatnonzero(probed & hijacked)
        if hij.size:
            site_idx[b, hij] = RESP_BOGUS
            rtt_ms[b, hij] = HIJACK_RTT_MS * (
                1.0 + rng.normal(0.0, 0.1, hij.size).clip(-0.3, 0.3)
            )
        # No route to any site: timeout.
        active = probed & ~hijacked
        site_idx[b, active & (vp_site < 0)] = RESP_TIMEOUT
        routed = np.flatnonzero(active & (vp_site >= 0))
        if routed.size == 0:
            continue

        sites = vp_site[routed]
        over = prober._cond_over[b, sites]
        shedding = over & prober._shed_flags[sites]
        shed = prober._shed_of_bin[b, sites]
        bad = shedding & ((shed < 1) | (shed > prober.n_servers[sites]))
        if bad.any():
            i = int(sites[bad].min())
            raise ValueError(
                f"shed server {int(prober._shed_of_bin[b, i])} out of"
                f" range 1..{int(prober.n_servers[i])}"
            )
        balanced = prober.vp_hashes[routed] % prober.n_servers[sites] + 1
        chosen = np.where(shedding, shed, balanced)
        loss = np.clip(
            prober._cond_loss[b, sites]
            * np.where(over, prober._over_loss[sites, chosen - 1], 1.0),
            0.0,
            1.0,
        )
        delay = prober._cond_delay[b, sites] * np.where(
            over, prober._over_delay[sites, chosen - 1], 1.0
        )
        # A bin fails only when every probe in it fails.
        fail_prob = (
            np.clip(loss + BASELINE_FAILURE_PROB, 0.0, 1.0)
            ** prober.probes_per_bin
        )
        failed = rng.random(routed.size) < fail_prob
        jitter = np.exp(rng.normal(0.0, RTT_JITTER_SIGMA, routed.size))
        rtts = prober.base_rtt[routed, sites] * jitter + delay

        codes = sites.astype(np.int16)
        n_failed = int(np.count_nonzero(failed))
        if n_failed:
            codes[failed] = np.where(
                rng.random(n_failed) < ERROR_GIVEN_FAILURE,
                RESP_ERROR,
                RESP_TIMEOUT,
            )
        codes[(rtts > ATLAS_TIMEOUT_MS) & ~failed] = RESP_TIMEOUT
        ok = codes >= 0
        site_idx[b, routed] = codes
        rtt_ms[b, routed] = np.where(ok, rtts, np.nan)
        server[b, routed] = np.where(ok, chosen, 0)
    return site_idx, rtt_ms, server
