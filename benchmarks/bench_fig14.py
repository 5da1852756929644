"""Figure 14: collateral damage at D-Root sites."""

from repro.core import collateral_figure, collateral_sites


def test_fig14_droot_collateral(benchmark, scenario, cleaned):
    events = scenario.event_intervals()
    flagged = benchmark(collateral_sites, cleaned, "D", events)
    print()
    print(collateral_figure(cleaned, "D", events).render())
    for site in flagged:
        print(
            f"  {site.site}: median {site.median_vps:.0f} VPs, "
            f"event min {site.event_min_vps}, dip {site.dip_fraction:.0%}"
        )
    print("  paper: D-FRA and D-SYD dip >=10% although D was not attacked")
    names = {s.site for s in flagged}
    assert "D-FRA" in names
    assert "D-SYD" in names
