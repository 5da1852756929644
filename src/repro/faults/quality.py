"""Data-quality annotations for degraded observations and analyses.

The 2015 inputs the paper works from were full of *incidental* loss:
Atlas probes vanished mid-event, only five letters published
RSSAC-002 data, and BGPmon peers came and went.  When the simulated
substrate reproduces those gaps (``repro.faults``), the analyses must
keep working on what remains -- and say so.  This module defines the
vocabulary for that: a :class:`QualityFlag` names one degraded slice
of data (which metric, which letter, which bins, and why), and a
:class:`DataQuality` report bundles every flag attached to a scenario
run or an analysis result.

Conventions:

* an empty :class:`DataQuality` (the default everywhere) means "no
  known degradation" -- full-fidelity runs carry no flags at all;
* ``metric`` names the data family or analysis: ``"atlas"``,
  ``"rssac"``, ``"bgpmon"``, ``"truth"``, or an analysis name like
  ``"event_size"``;
* ``bins`` is an inclusive ``(first, last)`` span on the scenario's
  :class:`~repro.util.timegrid.TimeGrid`, or ``None`` when the
  degradation is not bin-scoped (e.g. a whole missing report day).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    from ..datasets.observations import AtlasDataset

#: Metric name carried by sweep-level quarantine flags: a cell that
#: exhausted its retries is excluded from its point's summary and
#: marked with one of these instead of aborting the whole sweep.
CELL_FAILED = "cell-failed"


@dataclass(frozen=True, slots=True)
class QualityFlag:
    """One degraded slice of data: what is affected, where, and why."""

    metric: str
    detail: str
    letter: str | None = None
    bins: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.metric:
            raise ValueError("a quality flag needs a metric name")
        if not self.detail:
            raise ValueError("a quality flag needs a detail message")
        if self.bins is not None:
            first, last = self.bins
            if first < 0 or last < first:
                raise ValueError(f"invalid bin span {self.bins}")

    def __str__(self) -> str:
        scope = f" {self.letter}" if self.letter else ""
        span = (
            f" [bins {self.bins[0]}-{self.bins[1]}]"
            if self.bins is not None
            else ""
        )
        return f"[{self.metric}]{scope}{span}: {self.detail}"


@dataclass(frozen=True, slots=True)
class DataQuality:
    """Every known degradation of one dataset or analysis result."""

    flags: tuple[QualityFlag, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.flags)

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[QualityFlag]:
        return iter(self.flags)

    @property
    def degraded(self) -> bool:
        """Whether any data was lost or partial."""
        return bool(self.flags)

    def for_metric(self, metric: str) -> tuple[QualityFlag, ...]:
        """All flags attached to one metric/data family."""
        return tuple(f for f in self.flags if f.metric == metric)

    def for_letter(self, letter: str) -> tuple[QualityFlag, ...]:
        """All flags scoped to one letter (letter-less flags excluded)."""
        return tuple(f for f in self.flags if f.letter == letter)

    def letters(self) -> frozenset[str]:
        """Every letter named by at least one flag."""
        return frozenset(
            f.letter for f in self.flags if f.letter is not None
        )

    def metrics(self) -> frozenset[str]:
        """Every metric named by at least one flag."""
        return frozenset(f.metric for f in self.flags)

    def merged(self, *others: "DataQuality") -> "DataQuality":
        """This report plus every flag of *others* (duplicates kept)."""
        flags = list(self.flags)
        for other in others:
            flags.extend(other.flags)
        return DataQuality(flags=tuple(flags))

    def union(self, *others: "DataQuality") -> "DataQuality":
        """Deduplicating merge: each distinct flag kept once.

        Order is preserved (first occurrence wins), so the result is
        deterministic for a deterministic input order.  This is the
        merge the sweep aggregator uses when folding replicate runs of
        one cell into a summary: a fault that flags every replicate
        identically appears once, not once per seed, while any
        seed-dependent flag (e.g. differing gap spans) is retained
        verbatim.
        """
        seen: dict[QualityFlag, None] = {}
        for report in (self, *others):
            for flag in report.flags:
                seen.setdefault(flag, None)
        return DataQuality(flags=tuple(seen))

    def describe(self) -> str:
        """Human-readable one-line-per-flag rendering."""
        if not self.flags:
            return "data quality: full fidelity (no flags)"
        lines = [f"data quality: {len(self.flags)} flag(s)"]
        lines.extend(f"  ! {flag}" for flag in self.flags)
        return "\n".join(lines)


def cell_failed_flag(index: int, seed: int, reason: str) -> QualityFlag:
    """The flag a quarantined sweep cell leaves on its point summary.

    *reason* is the runner's failure description (already including
    the attempt count); the flag records which replicate is missing so
    a partially-folded summary is never mistaken for a full one.
    """
    return QualityFlag(
        metric=CELL_FAILED,
        detail=(
            f"cell {index} (seed {seed}) {reason}; "
            "replicate excluded from summary"
        ),
    )


def probe_gap_flags(
    dataset: AtlasDataset, letters: Iterable[str], metric: str
) -> tuple[QualityFlag, ...]:
    """Flags for bins in which no VP probed a letter at all.

    Whole-fleet measurement gaps (controller outages, mass probe
    dropout) surface as bins with an empty ``probed_mask()`` row;
    analyses over such a dataset are only partial, and flag it with
    these.
    """
    flags: list[QualityFlag] = []
    for letter in letters:
        obs = dataset.letter(letter)
        probed = obs.probed_mask().sum(axis=1)
        gaps = np.flatnonzero(probed == 0)
        if gaps.size == 0:
            continue
        flags.append(
            QualityFlag(
                metric=metric,
                letter=letter,
                detail=(
                    f"{gaps.size} bin(s) with no probing VPs; "
                    "series is partial"
                ),
                bins=(int(gaps[0]), int(gaps[-1])),
            )
        )
    return tuple(flags)
