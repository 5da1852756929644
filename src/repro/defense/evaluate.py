"""Closed-loop evaluation of defense controllers.

Runs the same event scenario once per controller and compares how much
legitimate traffic each one served -- overall and during the event
windows -- plus how many routing actions it took.  This quantifies the
paper's closing speculation that explicit, automated policy management
could strengthen anycast defenses, and its caveat that operators act
on incomplete information.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.results import TableResult
from ..scenario.config import ScenarioConfig
from ..scenario.engine import (
    ScenarioResult,
    Substrate,
    build_substrate,
    simulate,
)


@dataclass(frozen=True, slots=True)
class DefenseOutcome:
    """One controller's scorecard for one letter."""

    name: str
    letter: str
    served_overall: float
    served_during_events: float
    worst_bin: float
    routing_actions: int

    def __post_init__(self) -> None:
        for field in ("served_overall", "served_during_events",
                      "worst_bin"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{field} out of range: {value}")


def served_fractions(
    result: ScenarioResult, letter: str
) -> tuple[float, float, float]:
    """(overall, during-events, worst-bin) legit served fractions,
    "events" being the scenario's own (``result.event_mask()``)."""
    truth = result.truth[letter]
    offered = truth.legit_offered_qps
    served = truth.legit_served_qps
    mask = result.event_mask()
    with np.errstate(divide="ignore", invalid="ignore"):
        per_bin = np.where(offered > 0, served / offered, 1.0)
    overall = float(served.sum() / offered.sum())
    # A window with no event bin loses nothing during events; 1.0 is
    # the convention per_bin uses for bins with nothing offered.
    during_offered = offered[mask].sum()
    during = (
        float(served[mask].sum() / during_offered)
        if during_offered > 0
        else 1.0
    )
    worst = float(per_bin.min())
    return overall, during, worst


def evaluate_controller(
    base_config: ScenarioConfig,
    letter: str,
    name: str,
    controller_factory: Callable[[], object] | None,
    substrate: Substrate | None = None,
) -> DefenseOutcome:
    """Run the scenario under one controller and score it.

    ``controller_factory=None`` keeps the deployment's built-in static
    policies (the historical behaviour).  ``routing_actions`` counts
    the letter's recorded actions that moved a route, except those a
    fault caused, which BGPmon still observes.  A *substrate* built
    for *base_config* is reused.
    """
    controllers = (
        None
        if controller_factory is None
        else {letter: controller_factory()}
    )
    config = dataclasses.replace(base_config, controllers=controllers)
    result = simulate(config, substrate)
    overall, during, worst = served_fractions(result, letter)
    return DefenseOutcome(
        name=name,
        letter=letter,
        served_overall=overall,
        served_during_events=during,
        worst_bin=worst,
        routing_actions=sum(
            1
            for record in result.deployments[letter].actions
            if record.cause != "fault" and record.changed_asns
        ),
    )


def compare_controllers(
    base_config: ScenarioConfig,
    letter: str,
    controllers: dict[str, Callable[[], object] | None],
) -> TableResult:
    """Score every controller on one built scenario; render a table."""
    substrate = build_substrate(base_config)
    outcomes = [
        evaluate_controller(base_config, letter, name, factory, substrate)
        for name, factory in controllers.items()
    ]
    rows = tuple(
        (
            o.name,
            round(o.served_overall, 3),
            round(o.served_during_events, 3),
            round(o.worst_bin, 3),
            o.routing_actions,
        )
        for o in outcomes
    )
    return TableResult(
        title=(
            f"Defense comparison for {letter}-Root "
            "(legit traffic served)"
        ),
        headers=("controller", "overall", "events", "worst bin",
                 "actions"),
        rows=rows,
    )
