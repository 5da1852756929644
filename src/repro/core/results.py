"""Common result containers for the analysis toolkit.

Every analysis produces either a :class:`Series` bundle (time series
on the paper's hour axis) or a :class:`TableResult` (rows matching a
paper table).  Both render to aligned ASCII for the benchmark harness
and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faults.quality import QualityFlag

#: Characters used for the inline sparklines in rendered series.
_SPARK = " .:-=+*#%@"


def _bucket_means(values: np.ndarray, width: int) -> np.ndarray:
    """Means of *values* (more than *width*) over *width* consecutive
    buckets: one row mean per bucket length, which sums each bucket as
    its slice ``mean()`` does (``np.add.reduceat`` does not)."""
    edges = np.linspace(0, values.size, width + 1, dtype=int)
    starts, lengths = edges[:-1], np.diff(edges)
    means = np.empty(width)
    for length in np.unique(lengths):
        rows = lengths == length
        means[rows] = values[starts[rows, None] + np.arange(length)].mean(
            axis=1
        )
    return means


@dataclass(frozen=True, slots=True)
class Series:
    """One named time series over the observation window."""

    name: str
    hours: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.hours.shape != self.values.shape:
            raise ValueError(f"series {self.name!r}: axis mismatch")

    def _any_value(self) -> bool:
        """Whether some bin holds a value (not empty, not all NaN)."""
        return not np.isnan(self.values).all()

    def min(self) -> float:
        return float(np.nanmin(self.values)) if self._any_value() else np.nan

    def max(self) -> float:
        return float(np.nanmax(self.values)) if self._any_value() else np.nan

    def median(self) -> float:
        return (
            float(np.nanmedian(self.values)) if self._any_value() else np.nan
        )

    def at_hour(self, hour: float) -> float:
        """Value of the bin whose centre is closest to *hour*."""
        if self.values.size == 0:
            raise ValueError("empty series")
        index = int(np.argmin(np.abs(self.hours - hour)))
        return float(self.values[index])

    def window(self, start_hour: float, end_hour: float) -> "Series":
        """Sub-series restricted to ``[start_hour, end_hour)``."""
        mask = (self.hours >= start_hour) & (self.hours < end_hour)
        return Series(self.name, self.hours[mask], self.values[mask])

    def sparkline(self, width: int = 72) -> str:
        """A coarse ASCII rendering of the series shape."""
        if self.values.size == 0:
            return ""
        values = np.nan_to_num(self.values, nan=0.0)
        if values.size > width:
            values = _bucket_means(values, width)
        low, high = values.min(), values.max()
        span = high - low if high > low else 1.0
        levels = ((values - low) / span * (len(_SPARK) - 1)).astype(int)
        return "".join(_SPARK[level] for level in levels)


@dataclass(frozen=True, slots=True)
class SeriesBundle:
    """A set of series sharing one x-axis (one paper figure)."""

    title: str
    series: tuple[Series, ...]
    #: Degradation annotations: which inputs were missing or partial
    #: when this figure was computed (empty for clean data).
    quality: tuple[QualityFlag, ...] = ()

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"{self.title}: no series {name!r}")

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.series]

    def render(self, width: int = 72) -> str:
        """Aligned sparkline view of every series."""
        lines = [self.title]
        label_width = max((len(s.name) for s in self.series), default=0)
        for s in self.series:
            lines.append(
                f"  {s.name:<{label_width}}  "
                f"[{s.min():>10.1f} .. {s.max():>10.1f}]  "
                f"{s.sparkline(width)}"
            )
        for flag in self.quality:
            lines.append(f"  ! {flag}")
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class TableResult:
    """One rendered-as-text table (one paper table)."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...] = field(default=())
    #: Degradation annotations: which inputs were missing or partial
    #: when this table was computed (empty for clean data).
    quality: tuple[QualityFlag, ...] = ()

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"{self.title}: row width {len(row)} != "
                    f"{len(self.headers)} headers"
                )

    def column(self, header: str) -> list[object]:
        """All values of one column."""
        try:
            index = self.headers.index(header)
        except ValueError:
            raise KeyError(
                f"{self.title}: no column {header!r}"
            ) from None
        return [row[index] for row in self.rows]

    def row_for(self, key: object) -> tuple[object, ...]:
        """The row whose first cell equals *key*."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"{self.title}: no row {key!r}")

    def render(self) -> str:
        """Aligned ASCII rendering."""
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.2f}"
            return str(cell)

        table = [tuple(fmt(c) for c in row) for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in table)) if table else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title]
        lines.append(
            "  " + "  ".join(
                h.ljust(widths[i]) for i, h in enumerate(self.headers)
            )
        )
        lines.append("  " + "  ".join("-" * w for w in widths))
        for row in table:
            lines.append(
                "  " + "  ".join(
                    row[i].rjust(widths[i]) for i in range(len(row))
                )
            )
        for flag in self.quality:
            lines.append(f"  ! {flag}")
        return "\n".join(lines)
