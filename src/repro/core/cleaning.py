"""Data cleaning, following the paper's section 2.4.1.

Two classes of vantage points are removed before analysis:

* **old firmware** -- probes running firmware older than version 4570
  (released early 2013) may measure with outdated methods;
* **hijacked** -- probes whose root queries are answered by a third
  party, identified by the *combination* of CHAOS replies that match
  no known letter pattern and unusually short RTTs (under 7 ms,
  following Fan et al.).  The paper found 74 of 9363 probes (< 1 %)
  in this class.

Cleaning preserves nearly all VPs; the report records exactly what was
dropped and why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.observations import (
    MIN_FIRMWARE,
    RESP_BOGUS,
    AtlasDataset,
)

#: RTT below which a non-matching reply is considered locally answered.
HIJACK_RTT_THRESHOLD_MS = 7.0

#: Fraction of a VP's replies that must be non-matching to flag it.
BOGUS_FRACTION_THRESHOLD = 0.5


@dataclass(frozen=True, slots=True)
class CleaningReport:
    """What cleaning did, for the record."""

    n_total: int
    n_old_firmware: int
    n_hijacked: int
    old_firmware_ids: tuple[int, ...]
    hijacked_ids: tuple[int, ...]

    @property
    def n_kept(self) -> int:
        return self.n_total - self.n_old_firmware - self.n_hijacked

    @property
    def kept_fraction(self) -> float:
        if self.n_total == 0:
            return 0.0
        return self.n_kept / self.n_total


def detect_hijacked(dataset: AtlasDataset) -> np.ndarray:
    """Boolean mask of VPs that look hijacked.

    A VP is flagged when, across all letters, most of its replies fail
    to parse as any letter's identity *and* those replies come back
    suspiciously fast (both conditions, per the paper).
    """
    n_vps = len(dataset.vps)
    bogus_counts = np.zeros(n_vps)
    reply_counts = np.zeros(n_vps)
    fast_bogus = np.zeros(n_vps)
    for obs in dataset.letters.values():
        is_bogus = obs.site_idx == RESP_BOGUS
        has_reply = obs.success_mask() | is_bogus
        bogus_counts += is_bogus.sum(axis=0)
        reply_counts += has_reply.sum(axis=0)
        with np.errstate(invalid="ignore"):
            fast = is_bogus & (obs.rtt_ms < HIJACK_RTT_THRESHOLD_MS)
        fast_bogus += fast.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bogus_fraction = np.where(
            reply_counts > 0, bogus_counts / reply_counts, 0.0
        )
        fast_fraction = np.where(
            bogus_counts > 0, fast_bogus / bogus_counts, 0.0
        )
    return (bogus_fraction > BOGUS_FRACTION_THRESHOLD) & (
        fast_fraction > 0.5
    )


def clean_dataset(
    dataset: AtlasDataset, min_firmware: int = MIN_FIRMWARE
) -> tuple[AtlasDataset, CleaningReport]:
    """Apply the section-2.4.1 cleaning; returns (cleaned, report)."""
    old = dataset.vps.firmware < min_firmware
    hijacked = detect_hijacked(dataset) & ~old
    keep = ~(old | hijacked)
    report = CleaningReport(
        n_total=len(dataset.vps),
        n_old_firmware=int(old.sum()),
        n_hijacked=int(hijacked.sum()),
        old_firmware_ids=tuple(
            int(v) for v in dataset.vps.ids[old]
        ),
        hijacked_ids=tuple(int(v) for v in dataset.vps.ids[hijacked]),
    )
    return dataset.select_vps(keep), report
