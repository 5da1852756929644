"""Observation dataset schema for the Atlas-style measurements.

The analysis pipeline consumes per-letter matrices of shape
``(n_bins, n_vps)``:

* ``site_idx`` -- which site answered (index into ``site_codes``), or a
  negative sentinel: timeout, response error (RCODE != 0), a reply that
  failed to parse (hijack suspects), or "not probed this bin" (A-Root's
  30-minute cadence);
* ``rtt_ms`` -- round-trip time of the reply (NaN when there was none);
* ``server`` -- 1-based server number from the CHAOS identity (0 when
  unknown).

The vantage-point table carries the metadata the cleaning stage needs
(firmware version) plus ground truth used only by validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.timegrid import TimeGrid

#: Sentinels for ``site_idx``.
RESP_TIMEOUT = -1
RESP_ERROR = -2
RESP_BOGUS = -3
RESP_NOT_PROBED = -4

#: Firmware threshold the paper cleans on (section 2.4.1).
MIN_FIRMWARE = 4570


@dataclass(frozen=True, slots=True)
class VantagePointTable:
    """Column-oriented VP metadata."""

    ids: np.ndarray        # int64, unique
    asns: np.ndarray       # int64, stub AS of each VP
    lats: np.ndarray       # float64
    lons: np.ndarray       # float64
    regions: np.ndarray    # unicode region tags
    firmware: np.ndarray   # int32
    hijacked: np.ndarray   # bool -- ground truth, for validation only

    def __post_init__(self) -> None:
        n = self.ids.size
        for name in ("asns", "lats", "lons", "regions", "firmware",
                     "hijacked"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"column {name} misaligned")
        if np.unique(self.ids).size != n:
            raise ValueError("duplicate VP ids")

    def __len__(self) -> int:
        return int(self.ids.size)

    def europe_fraction(self) -> float:
        """Fraction of VPs in Europe (the paper's known Atlas bias)."""
        if len(self) == 0:
            return 0.0
        return float((self.regions == "EU").mean())


@dataclass(slots=True)
class LetterObservations:
    """Binned observations of one letter from all VPs.

    The analyses decode the matrices through :meth:`success_mask`,
    :meth:`probed_mask`, :meth:`site_index` and :meth:`server_masks`
    rather than reading the sentinels or the code list themselves.
    """

    letter: str
    site_codes: list[str]
    site_idx: np.ndarray   # int16 (n_bins, n_vps)
    rtt_ms: np.ndarray     # float32 (n_bins, n_vps)
    server: np.ndarray     # int16 (n_bins, n_vps)

    def __post_init__(self) -> None:
        if self.site_idx.shape != self.rtt_ms.shape or (
            self.site_idx.shape != self.server.shape
        ):
            raise ValueError("observation matrices misaligned")
        if self.site_idx.ndim != 2:
            raise ValueError("observation matrices must be 2-D")

    @property
    def n_bins(self) -> int:
        return self.site_idx.shape[0]

    @property
    def n_vps(self) -> int:
        return self.site_idx.shape[1]

    def site_code(self, index: int) -> str:
        """Code of site *index*, raising for sentinel values."""
        if index < 0:
            raise ValueError(f"sentinel response {index} has no site")
        return self.site_codes[index]

    def site_index(self, code: str) -> int:
        """Index of site *code* in ``site_codes``; ``KeyError`` naming
        the letter and the code when the letter has no such site."""
        try:
            return self.site_codes.index(code)
        except ValueError:
            raise KeyError(
                f"{self.letter}-Root has no site {code!r}"
            ) from None

    def success_mask(self) -> np.ndarray:
        """Boolean matrix: a site answered with RCODE 0."""
        return self.site_idx >= 0

    def probed_mask(self) -> np.ndarray:
        """Boolean matrix: the VP actually probed this bin."""
        return self.site_idx != RESP_NOT_PROBED

    def server_masks(self, site: str) -> list[tuple[int, np.ndarray]]:
        """``(server, replies)`` per known server (> 0) that answered at
        *site*, ascending; *replies* marks the cells it answered."""
        at_site = self.site_idx == self.site_index(site)
        servers = np.unique(self.server[at_site])
        return [
            (int(srv), at_site & (self.server == srv))
            for srv in servers[servers > 0]
        ]

    def select_vps(self, keep: np.ndarray) -> "LetterObservations":
        """A copy restricted to the VPs selected by boolean mask *keep*.

        Boolean column indexing copies every matrix, so the result
        holds its own ``(n_bins, n_kept)`` matrices beside this one's.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_vps,):
            raise ValueError("mask must match VP count")
        return LetterObservations(
            letter=self.letter,
            site_codes=self.site_codes,
            site_idx=self.site_idx[:, keep],
            rtt_ms=self.rtt_ms[:, keep],
            server=self.server[:, keep],
        )


@dataclass(slots=True)
class AtlasDataset:
    """The full two-day measurement dataset."""

    grid: TimeGrid
    vps: VantagePointTable
    letters: dict[str, LetterObservations] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for letter, obs in self.letters.items():
            if obs.n_bins != self.grid.n_bins:
                raise ValueError(f"{letter}: bin count mismatch")
            if obs.n_vps != len(self.vps):
                raise ValueError(f"{letter}: VP count mismatch")

    def letter(self, letter: str) -> LetterObservations:
        try:
            return self.letters[letter]
        except KeyError:
            raise KeyError(f"no observations for letter {letter!r}") from None

    def select_vps(self, keep: np.ndarray) -> "AtlasDataset":
        """A copy restricted to the VPs selected by *keep*: every
        letter's matrices are copied (see
        :meth:`LetterObservations.select_vps`)."""
        keep = np.asarray(keep, dtype=bool)
        vps = VantagePointTable(
            ids=self.vps.ids[keep],
            asns=self.vps.asns[keep],
            lats=self.vps.lats[keep],
            lons=self.vps.lons[keep],
            regions=self.vps.regions[keep],
            firmware=self.vps.firmware[keep],
            hijacked=self.vps.hijacked[keep],
        )
        return AtlasDataset(
            grid=self.grid,
            vps=vps,
            letters={
                letter: obs.select_vps(keep)
                for letter, obs in self.letters.items()
            },
        )
