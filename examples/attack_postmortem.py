#!/usr/bin/env python3
"""Full event post-mortem: every table and figure from one simulation.

This walks the complete analysis pipeline of the paper over one
simulated dataset -- the miniature version of its evaluation section.
Expect a minute or so of runtime at the default size.
"""

from repro import ScenarioConfig, simulate
from repro.core import (
    behaviour_census,
    clean_dataset,
    collateral_sites,
    correlation_table,
    event_size_table,
    flip_destinations,
    flips_figure,
    nl_event_minimum,
    observed_sites_table,
    reachability_figure,
    route_change_series,
    rtt_figure,
    rtt_significantly_changed,
    server_reachability,
    site_minmax_table,
    site_rtt_figure,
    site_timeseries,
    sites_vs_resilience,
    vp_timelines,
)
from repro.rootdns import ATTACKED_LETTERS, LETTERS_SPEC, RSSAC_REPORTING_LETTERS
from repro.util import EVENT_1


def main() -> None:
    print("simulating (600 stubs, 1200 VPs, all 13 letters) ...")
    result = simulate(ScenarioConfig(seed=42, n_stubs=600, n_vps=1200))
    dataset, cleaning = clean_dataset(result.atlas)
    events = result.event_intervals()
    print(f"cleaning kept {cleaning.kept_fraction:.1%} of VPs")

    sections = []

    sections.append(observed_sites_table(dataset).render())

    rssac = {L: result.rssac[L] for L in RSSAC_REPORTING_LETTERS}
    for date in ("2015-11-30", "2015-12-01"):
        sections.append(
            event_size_table(
                rssac, ATTACKED_LETTERS, date, len(ATTACKED_LETTERS)
            ).render()
        )

    sections.append(reachability_figure(dataset).render())

    changed = [
        L for L in sorted(dataset.letters)
        if rtt_significantly_changed(dataset, L)
    ]
    sections.append(rtt_figure(dataset, changed).render())

    fit = sites_vs_resilience(
        dataset, {L: s.n_sites for L, s in LETTERS_SPEC.items()}
    )
    sections.append(correlation_table(fit).render())

    for letter in ("E", "K"):
        sections.append(site_minmax_table(dataset, letter).render())
        sections.append(
            site_timeseries(dataset, letter, stable_only=True).render()
        )

    sections.append(
        site_rtt_figure(dataset, "K", ["AMS", "NRT", "LHR"]).render()
    )

    sections.append(flips_figure(dataset).render())
    sections.append(
        route_change_series(result.route_changes, result.grid).render()
    )

    dest = flip_destinations(dataset, "K", "LHR", (6.8, 9.5))
    lines = ["Fig. 10: where K-LHR's catchment went during event 1"]
    for site, count in dest.most_common():
        lines.append(f"  -> {site}: {count}")
    sections.append("\n".join(lines))

    census = behaviour_census(
        vp_timelines(dataset, "K", ["LHR", "FRA"], event=EVENT_1)
    )
    sections.append(
        "Fig. 11 behaviour groups: "
        + ", ".join(f"{k}={v}" for k, v in census.most_common())
    )

    for site in ("FRA", "NRT"):
        sections.append(server_reachability(dataset, "K", site).render())

    damage = collateral_sites(dataset, "D", events)
    lines = ["Fig. 14: unattacked D-Root sites dipping with the events"]
    for site in damage:
        lines.append(
            f"  {site.site}: dip {site.dip_fraction:.0%} "
            f"(median {site.median_vps:.0f} VPs)"
        )
    sections.append("\n".join(lines))

    lines = ["Fig. 15: .nl nodes, event minimum vs median"]
    for node in result.nl.node_labels:
        lines.append(
            f"  {node}: {nl_event_minimum(result.nl, node, events):.2f}"
        )
    sections.append("\n".join(lines))

    print()
    print(("\n" + "=" * 72 + "\n").join(sections))


if __name__ == "__main__":
    main()
