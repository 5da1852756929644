#!/usr/bin/env python3
"""Generate the paper-vs-measured numbers recorded in EXPERIMENTS.md.

Runs the reference benchmark scenario (seed 42, 600 stubs, 1500 VPs)
and prints the headline quantity for every table and figure.
"""

import numpy as np

from repro import ScenarioConfig, simulate
from repro.core import (
    behaviour_census,
    clean_dataset,
    collateral_sites,
    count_flips,
    event_size_table,
    flip_destinations,
    letter_rtt_series,
    letters_with_event_churn,
    nl_event_minimum,
    observed_site_count,
    answering_servers_per_bin,
    site_minmax,
    site_rtt_series,
    sites_vs_resilience,
    vp_timelines,
    worst_responsiveness,
)
from repro.rootdns import ATTACKED_LETTERS, LETTERS_SPEC, RSSAC_REPORTING_LETTERS
from repro.util import EVENT_1


def main() -> None:
    result = simulate(ScenarioConfig(seed=42, n_stubs=600, n_vps=1500))
    ds, cleaning = clean_dataset(result.atlas)
    events = result.event_intervals()

    print("== cleaning ==")
    print(f"kept {cleaning.kept_fraction:.3f}; hijacked {cleaning.n_hijacked}"
          f" of {int(result.atlas.vps.hijacked.sum())} true")

    print("== table2 ==")
    for L in sorted(ds.letters):
        print(f"{L} deployed {len(ds.letter(L).site_codes)} observed "
              f"{observed_site_count(ds, L)}")

    print("== table3 ==")
    rssac = {L: result.rssac[L] for L in RSSAC_REPORTING_LETTERS}
    for date in ("2015-11-30", "2015-12-01"):
        table = event_size_table(rssac, ATTACKED_LETTERS, date,
                                 len(ATTACKED_LETTERS))
        print(table.render())

    print("== fig3 ==")
    for L in sorted(ds.letters):
        print(f"{L} worst {worst_responsiveness(ds, L):.2f}")
    fit = sites_vs_resilience(
        ds, {L: s.n_sites for L, s in LETTERS_SPEC.items()}
    )
    print(f"R2 {fit.r_squared:.2f}")

    print("== fig4 ==")
    for L in "BGHK":
        s = letter_rtt_series(ds, L)
        print(f"{L} quiet {s.at_hour(20):.0f} ms, event {s.at_hour(8):.0f} ms")

    print("== fig5/6 K ==")
    for s in site_minmax(ds, "K")[:6]:
        print(f"{s.site} med {s.median:.0f} min/med {s.min_normalized:.2f} "
              f"max/med {s.max_normalized:.2f}")

    print("== fig7 ==")
    for code in ("AMS", "NRT"):
        s = site_rtt_series(ds, "K", code)
        print(f"K-{code} quiet {s.at_hour(20):.0f} ms "
              f"peak {float(np.nanmax(s.values)):.0f} ms")

    print("== fig8 ==")
    mask = result.event_mask()
    for L in "CEHIJK":
        flips = count_flips(ds, L)
        print(f"{L} event-bin flips {flips.values[mask].sum():.0f} "
              f"quiet {flips.values[~mask].sum():.0f}")

    print("== fig9 ==")
    print("churners:", letters_with_event_churn(result.route_changes,
                                                result.grid, events))

    print("== fig10 ==")
    for origin in ("LHR", "FRA"):
        dest = flip_destinations(ds, "K", origin, (6.8, 9.5))
        print(f"K-{origin}:", dict(dest.most_common(4)))

    print("== fig11 ==")
    census = behaviour_census(
        vp_timelines(ds, "K", ["LHR", "FRA"], event=EVENT_1)
    )
    print(dict(census))

    print("== fig12 ==")
    for code in ("FRA", "NRT"):
        s = answering_servers_per_bin(ds, "K", code)
        print(f"K-{code} servers quiet {s.at_hour(20):.0f} "
              f"event {s.at_hour(8):.0f}")

    print("== fig14 ==")
    for c in collateral_sites(ds, "D", events):
        print(f"{c.site} dip {c.dip_fraction:.2f} median {c.median_vps:.0f}")

    print("== fig15 ==")
    for node in result.nl.node_labels:
        print(f"{node} event-min "
              f"{nl_event_minimum(result.nl, node, events):.2f}")

    print("== extension: whole root ==")
    from repro.resolver import WholeRootConfig, run_whole_root

    outcome = run_whole_root(
        result, WholeRootConfig(n_resolvers=100),
        np.random.default_rng(5),
    )
    mask = result.event_mask()
    latency = outcome.mean_lookup_latency_ms
    print(f"end-user failures {outcome.overall_failure_fraction():.5f}")
    print(f"cache hits {outcome.cache_hits.sum() / outcome.user_queries.sum():.3f}")
    print(f"lookup latency quiet {float(np.nanmedian(latency[~mask])):.0f} "
          f"events {float(np.nanmedian(latency[mask])):.0f}")

    print("== extension: provisioning K ==")
    from repro.defense import aggregate_vs_placed, provisioning_plan

    plan = provisioning_plan(result.deployments["K"], result.truth["K"])
    aggregate, worst = aggregate_vs_placed(
        result.deployments["K"], result.truth["K"]
    )
    print(f"extra servers {plan.total_extra_servers}; "
          f"aggregate rho {aggregate:.2f} worst-site rho {worst:.2f}")


if __name__ == "__main__":
    main()
