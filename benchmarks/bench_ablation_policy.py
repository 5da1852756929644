"""Ablation: what if every site just absorbed (no withdrawals)?

DESIGN.md calls out the absorb-vs-withdraw choice as the central
design decision; this bench reruns the scenario with all withdraw and
partial-withdraw policies forced to ABSORB and compares outcomes.
"""

import dataclasses

import numpy as np

from repro import ScenarioConfig, simulate
from repro.core import count_flips, worst_responsiveness
from repro.rootdns import LETTERS_SPEC, SitePolicy

_LETTERS = ("E", "H", "K")


def _absorb_everywhere():
    specs = {}
    for letter in _LETTERS:
        spec = LETTERS_SPEC[letter]
        sites = tuple(
            dataclasses.replace(
                s,
                policy=SitePolicy.ABSORB,
                initially_announced=True,
            )
            for s in spec.sites
        )
        specs[letter] = dataclasses.replace(spec, sites=sites)
    return specs


def _run(custom):
    return simulate(
        ScenarioConfig(
            seed=11, n_stubs=300, n_vps=500, letters=_LETTERS,
            include_nl=False, custom_letters=custom,
        )
    )


def test_ablation_absorb_only(benchmark):
    absorb = benchmark(_run, _absorb_everywhere())
    baseline = _run(None)
    print()
    print("  letter  worst/median (policies)  worst/median (absorb-only)")
    for letter in _LETTERS:
        with_policy = worst_responsiveness(baseline.atlas, letter)
        absorb_only = worst_responsiveness(absorb.atlas, letter)
        print(f"  {letter}       {with_policy:.2f}"
              f"                      {absorb_only:.2f}")
    # Withdrawals move traffic: flips collapse without them.
    flips_with = count_flips(baseline.atlas, "K").values.sum()
    flips_without = count_flips(absorb.atlas, "K").values.sum()
    print(f"  K site flips: {flips_with:.0f} with policies, "
          f"{flips_without:.0f} absorb-only")
    assert flips_without < flips_with
    assert not absorb.deployments["K"].actions
