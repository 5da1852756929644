"""Figure 9: BGP route changes per letter (BGPmon collectors)."""

from repro.core import letters_with_event_churn, route_change_series


def test_fig9_route_changes(benchmark, scenario):
    figure = benchmark(
        route_change_series, scenario.route_changes, scenario.grid
    )
    print()
    print(figure.render())
    churners = letters_with_event_churn(
        scenario.route_changes, scenario.grid, scenario.event_intervals()
    )
    print("  letters with event-driven churn:", churners)
    print("  paper: C, E, F, G, H, J, K show event-driven route changes")
    assert set("EHK") <= set(churners)
    assert set(churners).isdisjoint(set("DLM"))
