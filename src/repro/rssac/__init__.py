"""RSSAC-002 daily reporting simulation.

Every run builds the daily reports (:mod:`.reports`).  The RSSAC-002
YAML files operators publish are written and read by
:mod:`repro.rssac.serialize` (``save_reports``, ``load_reports``);
import them from there.  The package does not import that module,
because it loads PyYAML, which no simulation or analysis needs.
"""

from .reports import (
    BASELINE_UNIQUE_SOURCES,
    DAY_SECONDS,
    FLIP_NEW_SOURCE_FRACTION,
    SIZE_BIN_WIDTH,
    DailyReport,
    DayAccumulator,
    build_baseline_report,
    build_daily_report,
    size_bin,
)

__all__ = [
    "BASELINE_UNIQUE_SOURCES",
    "DAY_SECONDS",
    "DailyReport",
    "DayAccumulator",
    "FLIP_NEW_SOURCE_FRACTION",
    "SIZE_BIN_WIDTH",
    "build_baseline_report",
    "build_daily_report",
    "size_bin",
]
