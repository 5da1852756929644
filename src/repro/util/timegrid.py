"""Time handling for event simulation and analysis.

The paper analyses two days of data (2015-11-30 and 2015-12-01, UTC),
mapping raw RIPE Atlas observations onto ten-minute bins (2.5 probing
intervals, see paper section 2.4.1).  All simulation and analysis code in
this package shares the :class:`TimeGrid` abstraction defined here:
timestamps are POSIX seconds, bins are half-open intervals
``[start + i * bin_seconds, start + (i + 1) * bin_seconds)``.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

#: POSIX timestamp of 2015-11-30T00:00:00Z, the start of the paper's
#: observation window ("hours after 2015-11-30t00:00 UTC" in Figs. 5-11).
EVENT_WINDOW_START = int(
    _dt.datetime(2015, 11, 30, tzinfo=_dt.timezone.utc).timestamp()
)

#: Duration, in seconds, of the paper's two-day observation window.
EVENT_WINDOW_SECONDS = 48 * 3600

#: The paper's analysis bin width (section 2.4.1): ten minutes.
PAPER_BIN_SECONDS = 600

#: RIPE Atlas CHAOS probing interval at the time of the events.
ATLAS_PROBE_INTERVAL = 240

#: A-Root's (then) exceptional probing interval (section 2.4.1).
ATLAS_PROBE_INTERVAL_A = 1800

#: Atlas query timeout (section 2.4.1): five seconds.
ATLAS_TIMEOUT_MS = 5000.0


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0) -> int:
    """Return the POSIX timestamp of a UTC wall-clock time."""
    moment = _dt.datetime(
        year, month, day, hour, minute, tzinfo=_dt.timezone.utc
    )
    return int(moment.timestamp())


@dataclass(frozen=True, slots=True)
class Interval:
    """A half-open time interval ``[start, end)`` in POSIX seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def seconds(self) -> int:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, timestamp: float) -> bool:
        """Return whether *timestamp* falls inside the interval."""
        return self.start <= timestamp < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Return whether two intervals share any instant."""
        return self.start < other.end and other.start < self.end

    def hours_after(self, origin: int) -> tuple[float, float]:
        """Return (start, end) expressed as hours after *origin*."""
        return (self.start - origin) / 3600.0, (self.end - origin) / 3600.0


#: First event: Nov 30, 06:50-09:30 UTC (160 minutes; section 2.3).
EVENT_1 = Interval(utc(2015, 11, 30, 6, 50), utc(2015, 11, 30, 9, 30))

#: Second event: Dec 1, 05:10-06:10 UTC (60 minutes; section 2.3).
EVENT_2 = Interval(utc(2015, 12, 1, 5, 10), utc(2015, 12, 1, 6, 10))

#: Both events, in chronological order.
EVENTS = (EVENT_1, EVENT_2)


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """A uniform grid of time bins.

    Parameters
    ----------
    start:
        POSIX timestamp of the left edge of bin 0.
    bin_seconds:
        Width of each bin in seconds.
    n_bins:
        Number of bins in the grid.
    """

    start: int
    bin_seconds: int
    n_bins: int

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if self.n_bins <= 0:
            raise ValueError("n_bins must be positive")

    @classmethod
    def paper_window(cls, bin_seconds: int = PAPER_BIN_SECONDS) -> "TimeGrid":
        """The two-day window of the paper, in ten-minute bins by default."""
        if EVENT_WINDOW_SECONDS % bin_seconds:
            raise ValueError(
                f"bin width {bin_seconds}s does not tile the 48 h window"
            )
        return cls(
            start=EVENT_WINDOW_START,
            bin_seconds=bin_seconds,
            n_bins=EVENT_WINDOW_SECONDS // bin_seconds,
        )

    @property
    def end(self) -> int:
        """POSIX timestamp of the right edge of the last bin."""
        return self.start + self.bin_seconds * self.n_bins

    @property
    def seconds(self) -> int:
        """Total covered duration in seconds."""
        return self.bin_seconds * self.n_bins

    def bin_index(self, timestamp: float) -> int:
        """Return the bin index containing *timestamp*.

        Raises :class:`ValueError` for timestamps outside the grid.
        """
        offset = timestamp - self.start
        if offset < 0 or offset >= self.seconds:
            raise ValueError(
                f"timestamp {timestamp} outside grid "
                f"[{self.start}, {self.end})"
            )
        return int(offset // self.bin_seconds)

    def bin_indices(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bin_index`; out-of-grid values raise."""
        timestamps = np.asarray(timestamps, dtype=np.float64)
        offsets = timestamps - self.start
        if ((offsets < 0) | (offsets >= self.seconds)).any():
            raise ValueError("one or more timestamps outside grid")
        return (offsets // self.bin_seconds).astype(np.int64)

    def bin_start(self, index: int) -> int:
        """POSIX timestamp of the left edge of bin *index*."""
        self._check_index(index)
        return self.start + index * self.bin_seconds

    def bin_interval(self, index: int) -> Interval:
        """The half-open interval covered by bin *index*."""
        left = self.bin_start(index)
        return Interval(left, left + self.bin_seconds)

    def bin_centers(self) -> np.ndarray:
        """POSIX timestamps of all bin centres, shape ``(n_bins,)``."""
        edges = self.start + np.arange(self.n_bins) * self.bin_seconds
        return edges + self.bin_seconds / 2.0

    def hours(self) -> np.ndarray:
        """Bin centres as hours after the grid start (paper's x axes)."""
        return (self.bin_centers() - self.start) / 3600.0

    def bins_overlapping(self, interval: Interval) -> np.ndarray:
        """Indices of all bins that overlap *interval*."""
        first = max(0, int((interval.start - self.start) // self.bin_seconds))
        last_edge = interval.end - 1
        last = min(
            self.n_bins - 1,
            int((last_edge - self.start) // self.bin_seconds),
        )
        if last < first:
            return np.empty(0, dtype=np.int64)
        indices = np.arange(first, last + 1)
        keep = [
            i for i in indices if self.bin_interval(int(i)).overlaps(interval)
        ]
        return np.asarray(keep, dtype=np.int64)

    def event_mask(self, intervals: tuple[Interval, ...]) -> np.ndarray:
        """Boolean mask over bins that overlap any of *intervals*."""
        mask = np.zeros(self.n_bins, dtype=bool)
        for interval in intervals:
            start = max(interval.start, self.start)
            end = min(interval.end, self.end)
            if end <= start:
                continue  # outside the window (or empty)
            mask[self.bins_overlapping(Interval(start, end))] = True
        return mask

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_bins:
            raise IndexError(
                f"bin index {index} out of range [0, {self.n_bins})"
            )
