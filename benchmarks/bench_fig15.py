"""Figure 15: .nl anycast nodes silenced by co-located stress."""

from repro.core import nl_event_minimum, nl_figure


def test_fig15_nl_collateral(benchmark, scenario):
    figure = benchmark(nl_figure, scenario.nl)
    events = scenario.event_intervals()
    print()
    print(figure.render())
    for node in scenario.nl.node_labels:
        print(
            f"  {node}: event minimum "
            f"{nl_event_minimum(scenario.nl, node, events):.2f} of median"
        )
    print("  paper: both co-located nodes show nearly no queries")
    assert nl_event_minimum(scenario.nl, "nl-anycast-1", events) < 0.3
    assert nl_event_minimum(scenario.nl, "nl-uni-1", events) > 0.6
