"""Typed fault specifications: what breaks, when, and how badly.

The November 2015 measurements were taken by infrastructure that was
itself collateral damage: Atlas probes vanished mid-event, RSSAC-002
covered only 5 of 13 letters, and BGPmon peers came and went.  A
:class:`FaultPlan` declares such *incidental* failures on top of a
scenario -- one typed spec per fault, each with a start time, a
duration, and a scope -- and the engine's fault runtime
(:mod:`repro.faults.runtime`) perturbs every simulated substrate
accordingly:

* :class:`VpDropout` / :class:`ControllerOutage` -- Atlas VPs that
  stop reporting for a window (probe attrition, paper section 2.1) or
  a whole-fleet measurement outage;
* :class:`SiteFailure` -- unscheduled hardware failure at one site:
  capacity collapses while BGP keeps attracting traffic (the anycast
  black-hole failure mode);
* :class:`BgpSessionReset` -- a session reset at a site's host AS:
  the announcement flaps down and, after route-flap damping clears,
  comes back;
* :class:`PeerChurn` -- BGPmon collector peers down for a window;
* :class:`RssacOutage` -- missing RSSAC-002 report days for a letter.

All times are POSIX seconds on the scenario's
:class:`~repro.util.timegrid.TimeGrid`; randomized scopes (which VPs
drop, which peers churn) are drawn from the scenario's seeded
``RngFactory`` stream, so the same seed and plan reproduce the same
faults bit for bit.  An *empty* plan is free: the engine skips the
fault machinery entirely and produces outputs bit-identical to a
fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..util.timegrid import Interval


def _check_window(start: int, duration_s: int) -> None:
    if duration_s <= 0:
        raise ValueError(f"fault duration must be positive, got {duration_s}")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be within (0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class VpDropout:
    """A random fraction of Atlas VPs goes silent for a window."""

    start: int
    duration_s: int
    fraction: float = 0.1

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration_s)
        _check_fraction("fraction", self.fraction)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


@dataclass(frozen=True, slots=True)
class ControllerOutage:
    """The whole measurement fleet stops reporting for a window."""

    start: int
    duration_s: int

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration_s)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


@dataclass(frozen=True, slots=True)
class SiteFailure:
    """Unscheduled hardware failure at one site of one letter.

    *severity* is the fraction of capacity lost; the default 1.0 is a
    dead site that BGP still routes to (queries black-hole), which is
    how anycast hardware failures actually look from outside.
    """

    letter: str
    site: str
    start: int
    duration_s: int
    severity: float = 1.0

    def __post_init__(self) -> None:
        if not self.letter or not self.site:
            raise ValueError("site failure needs a letter and a site code")
        _check_window(self.start, self.duration_s)
        _check_fraction("severity", self.severity)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


@dataclass(frozen=True, slots=True)
class BgpSessionReset:
    """A BGP session reset at one site's host AS.

    The site's announcement is withdrawn for *duration_s* seconds --
    the reset itself plus any route-flap damping suppression -- and
    re-announced afterwards.  Both transitions are recorded as the
    letter's routing actions (cause ``"fault"``), so BGPmon collectors
    observe the churn.
    """

    letter: str
    site: str
    start: int
    duration_s: int = 600

    def __post_init__(self) -> None:
        if not self.letter or not self.site:
            raise ValueError("session reset needs a letter and a site code")
        _check_window(self.start, self.duration_s)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


@dataclass(frozen=True, slots=True)
class PeerChurn:
    """A random fraction of BGPmon collector peers down for a window."""

    start: int
    duration_s: int
    fraction: float = 0.2

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration_s)
        _check_fraction("fraction", self.fraction)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


@dataclass(frozen=True, slots=True)
class RssacOutage:
    """One letter's RSSAC-002 reports missing for a window.

    Every report day overlapping the window is dropped from the
    letter's published series, mirroring the best-effort coverage of
    the real RSSAC-002 data (5 of 13 letters at event time).
    """

    letter: str
    start: int
    duration_s: int = 86_400

    def __post_init__(self) -> None:
        if not self.letter:
            raise ValueError("RSSAC outage needs a letter")
        _check_window(self.start, self.duration_s)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.start + self.duration_s)


FaultSpec = Union[
    VpDropout,
    ControllerOutage,
    SiteFailure,
    BgpSessionReset,
    PeerChurn,
    RssacOutage,
]

_SPEC_TYPES = (
    VpDropout,
    ControllerOutage,
    SiteFailure,
    BgpSessionReset,
    PeerChurn,
    RssacOutage,
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered bundle of fault specs declared on a scenario.

    Order matters for reproducibility: randomized fault scopes are
    drawn from the seeded fault stream in declaration order.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, _SPEC_TYPES):
                raise TypeError(
                    f"not a fault spec: {spec!r} "
                    f"(expected one of {[t.__name__ for t in _SPEC_TYPES]})"
                )

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def of_type(self, *types: type) -> tuple[FaultSpec, ...]:
        """The specs that are instances of any of *types*, in order."""
        return tuple(s for s in self.specs if isinstance(s, types))

    def letters(self) -> frozenset[str]:
        """Every letter named by a letter-scoped spec."""
        return frozenset(
            s.letter for s in self.specs if hasattr(s, "letter")
        )
