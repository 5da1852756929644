"""Figure 8: site flips per letter."""

from repro.core import count_flips, flips_figure


def test_fig8_site_flips(benchmark, scenario, cleaned):
    letters = [L for L in sorted(cleaned.letters) if L not in "AB"]
    figure = benchmark(flips_figure, cleaned, letters)
    print()
    print(figure.render())
    print("  paper: bursts of flips during both events; E/H/K see many")
    k = count_flips(cleaned, "K")
    # Flips cluster in the events plus the post-event restores; allow
    # a two-hour tail after each event window.
    import numpy as np

    event_mask = scenario.event_mask()
    dilated = event_mask.copy()
    for shift in range(1, 13):
        dilated[shift:] |= event_mask[:-shift]
    assert k.values[dilated].sum() > 3 * k.values[~dilated].sum()
