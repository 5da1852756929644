"""Scenario configuration: one knob bundle for the whole simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..atlas.vps import VpPopulationConfig
from ..attack.botnet import BotnetConfig
from ..attack.events import NOV2015_EVENTS, AttackEvent
from ..bgpmon.collector import BgpmonConfig
from ..faults.plan import FaultPlan
from ..netsim.queueing import OverloadModel
from ..netsim.topology import TopologyConfig
from ..rootdns.letters import LETTERS_SPEC, LetterSpec
from ..util.timegrid import (
    EVENT_WINDOW_SECONDS,
    EVENT_WINDOW_START,
    PAPER_BIN_SECONDS,
    TimeGrid,
)
from .nl import NlConfig

if TYPE_CHECKING:
    from ..defense.controllers import Controller


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Everything needed to simulate the Nov/Dec 2015 events.

    The default sizes (600 stub ASes, 1500 VPs) run the full two-day
    window in tens of seconds; tests shrink them, benchmarks may grow
    them.  ``letters`` restricts the simulation to a subset of root
    letters for focused (and faster) runs.
    """

    seed: int = 42
    n_stubs: int = 600
    n_vps: int = 1500
    letters: tuple[str, ...] | None = None
    events: tuple[AttackEvent, ...] = NOV2015_EVENTS
    topology: TopologyConfig | None = None
    vps: VpPopulationConfig | None = None
    botnet: BotnetConfig = field(default_factory=BotnetConfig)
    bgpmon: BgpmonConfig = field(default_factory=BgpmonConfig)
    overload: OverloadModel = field(default_factory=OverloadModel)
    nl: NlConfig = field(default_factory=NlConfig)
    include_nl: bool = True
    baseline_days: int = 7
    #: Override the letter registry (ablation studies); ``None`` uses
    #: the canonical LETTERS_SPEC.
    custom_letters: dict[str, LetterSpec] | None = None
    #: Observation-window start (POSIX) and length; defaults to the
    #: paper's two days starting 2015-11-30T00:00Z.  The June 2016
    #: scenario preset overrides these.
    window_start: int = EVENT_WINDOW_START
    window_seconds: int = EVENT_WINDOW_SECONDS
    bin_seconds: int = PAPER_BIN_SECONDS
    #: Per-letter defense controllers (repro.defense); letters not
    #: listed keep their built-in static policies.
    controllers: dict[str, Controller] | None = None
    #: Incidental-failure plan (repro.faults): VP dropout, site
    #: hardware failures, BGP session resets, missing RSSAC days,
    #: collector-peer churn.  The default empty plan is free and
    #: leaves seeded outputs bit-identical to a fault-free engine.
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_stubs <= 0 or self.n_vps <= 0:
            raise ValueError("population sizes must be positive")
        if self.topology is not None and self.topology.n_stubs != self.n_stubs:
            raise ValueError(
                f"n_stubs={self.n_stubs} disagrees with "
                f"topology.n_stubs={self.topology.n_stubs}"
            )
        if self.vps is not None and self.vps.n_vps != self.n_vps:
            raise ValueError(
                f"n_vps={self.n_vps} disagrees with vps.n_vps={self.vps.n_vps}"
            )
        if self.baseline_days < 1:
            raise ValueError("need at least one baseline day")
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.bin_seconds <= 0:
            raise ValueError(
                f"bin_seconds must be positive, got {self.bin_seconds}"
            )
        if self.window_seconds % self.bin_seconds:
            raise ValueError(
                f"bin_seconds {self.bin_seconds} does not tile "
                f"window_seconds {self.window_seconds}"
            )
        if self.letters is not None and not self.letters:
            raise ValueError("letters subset cannot be empty")
        registry = (
            self.custom_letters
            if self.custom_letters is not None
            else LETTERS_SPEC
        )
        for letter in self.letters or ():
            if letter not in registry:
                raise ValueError(
                    f"unknown letter {letter!r}: not in the effective "
                    f"letter registry {sorted(registry)}"
                )
        simulated = self.letters if self.letters is not None else registry
        stray = sorted(set(self.controllers or ()) - set(simulated))
        if stray:
            raise ValueError(
                f"controllers for letters {stray} the scenario does not "
                f"simulate ({sorted(simulated)})"
            )
        if not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )

    def grid(self) -> TimeGrid:
        """The analysis grid implied by the window settings."""
        return TimeGrid(
            start=self.window_start,
            bin_seconds=self.bin_seconds,
            n_bins=self.window_seconds // self.bin_seconds,
        )

    def topology_config(self) -> TopologyConfig:
        """The effective topology config: an explicit ``topology``
        (whose ``n_stubs`` must equal ``n_stubs``), or the defaults with
        ``n_stubs`` stub ASes."""
        if self.topology is not None:
            return self.topology
        return TopologyConfig(n_stubs=self.n_stubs)

    def vp_config(self) -> VpPopulationConfig:
        """The effective VP population config: an explicit ``vps``
        (whose ``n_vps`` must equal ``n_vps``), or the defaults with
        ``n_vps`` vantage points."""
        if self.vps is not None:
            return self.vps
        return VpPopulationConfig(n_vps=self.n_vps)
