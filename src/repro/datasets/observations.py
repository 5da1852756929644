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
Cleaning keeps VPs without copying a matrix
(:meth:`AtlasDataset.select_vps`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from ..util.timegrid import TimeGrid

#: Sentinels for ``site_idx``.
RESP_TIMEOUT = -1
RESP_ERROR = -2
RESP_BOGUS = -3
RESP_NOT_PROBED = -4

#: Firmware threshold the paper cleans on (section 2.4.1).
MIN_FIRMWARE = 4570

T = TypeVar("T")


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
    :meth:`probed_mask`, :meth:`response_counts`, :meth:`site_index`
    and :meth:`server_masks` rather than reading the sentinels or the
    code list themselves.
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

    def response_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per bin: the VPs a site answered with RCODE 0, and the VPs
        that probed."""
        return (
            self.success_mask().sum(axis=1), self.probed_mask().sum(axis=1)
        )

    def server_masks(self, site: str) -> list[tuple[int, np.ndarray]]:
        """``(server, replies)`` per known server (> 0) that answered at
        *site*, ascending; *replies* marks the cells it answered."""
        at_site = self.site_idx == self.site_index(site)
        servers = np.unique(self.server[at_site])
        return [
            (int(srv), at_site & (self.server == srv))
            for srv in servers[servers > 0]
        ]


class AtlasDataset:
    """The two-day measurement dataset: a VP table and each letter's
    observations of those VPs.

    A dataset built from matrices reads them as they are.  One made by
    :meth:`select_vps` shares its parent's matrices, read-only, and
    holds the raw column of each VP it keeps in ``columns``, ascending:
    a matrix of one of its letters is gathered from the kept columns
    when a caller reads it, and nothing else is copied.

    :meth:`aggregate` holds what the analyses read per letter instead
    of the matrices (per-site VP counts, response counts, RTT medians,
    flips): each is built from one letter's observations on first use
    and lives as long as the dataset.
    """

    __slots__ = ("grid", "vps", "columns", "_matrices", "_aggregates")

    def __init__(
        self,
        grid: TimeGrid,
        vps: VantagePointTable,
        letters: dict[str, LetterObservations] | None = None,
    ) -> None:
        self.grid = grid
        self.vps = vps
        #: Raw column of each VP in ``vps``; None when the matrices hold
        #: exactly ``vps``' columns.
        self.columns: np.ndarray | None = None
        self._matrices = dict(letters or {})
        self._aggregates: dict[tuple[str, Callable[..., Any]], Any] = {}
        for letter, obs in self._matrices.items():
            if obs.n_bins != grid.n_bins:
                raise ValueError(f"{letter}: bin count mismatch")
            if obs.n_vps != len(vps):
                raise ValueError(f"{letter}: VP count mismatch")

    # Pickles hold the three fields a dataset had before kept columns
    # existed, so sweep checkpoints written then still load; aggregates
    # are never pickled.
    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        return None, {
            "grid": self.grid, "vps": self.vps, "letters": self.letters
        }

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        AtlasDataset.__init__(self, **state[1])

    @property
    def letters(self) -> dict[str, LetterObservations]:
        """Each letter's observations, as :meth:`letter` returns them."""
        return {letter: self.letter(letter) for letter in self._matrices}

    def letter(self, letter: str) -> LetterObservations:
        """*letter*'s observations by the VPs of ``vps``.  With
        ``columns`` set, each matrix the caller reads is gathered from
        the kept columns for this call only."""
        try:
            obs = self._matrices[letter]
        except KeyError:
            raise KeyError(f"no observations for letter {letter!r}") from None
        if self.columns is None:
            return obs
        return _KeptObservations(obs, self.columns)

    def aggregate(
        self, letter: str, build: Callable[[LetterObservations], T]
    ) -> T:
        """``build(self.letter(letter))``, built on first use and held
        by this dataset.  Its arrays are shared by every caller, so they
        come back read-only."""
        key = (letter, build)
        if key not in self._aggregates:
            value = build(self.letter(letter))
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
            self._aggregates[key] = value
        return self._aggregates[key]

    def select_vps(self, keep: np.ndarray) -> "AtlasDataset":
        """The VPs selected by boolean mask *keep*, in column order.

        No matrix is copied: the result shares this dataset's matrices
        through read-only views and records the kept columns.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (len(self.vps),):
            raise ValueError("mask must match VP count")
        vps = self.vps
        selected = AtlasDataset(
            self.grid,
            VantagePointTable(
                ids=vps.ids[keep],
                asns=vps.asns[keep],
                lats=vps.lats[keep],
                lons=vps.lons[keep],
                regions=vps.regions[keep],
                firmware=vps.firmware[keep],
                hijacked=vps.hijacked[keep],
            ),
        )
        selected._matrices = {
            letter: _read_only(obs) for letter, obs in self._matrices.items()
        }
        kept = np.flatnonzero(keep)
        selected.columns = kept if self.columns is None else self.columns[kept]
        return selected


class _KeptObservations(LetterObservations):
    """One letter's observations of a selected dataset's VPs.

    Each matrix is gathered from *source* through the kept *columns*
    when first read, and held from then on: an analysis that reads
    only ``site_idx`` copies only that matrix.
    """

    __slots__ = ("_source", "_columns")

    def __init__(
        self, source: LetterObservations, columns: np.ndarray
    ) -> None:
        self.letter = source.letter
        self.site_codes = source.site_codes
        self._source = source
        self._columns = columns

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only while a matrix slot is still unset.
        if name not in ("site_idx", "rtt_ms", "server"):
            raise AttributeError(name)
        matrix = getattr(self._source, name)[:, self._columns]
        setattr(self, name, matrix)
        return matrix


def _read_only(obs: LetterObservations) -> LetterObservations:
    """*obs* over read-only views of its matrices."""
    views = [m.view() for m in (obs.site_idx, obs.rtt_ms, obs.server)]
    for view in views:
        view.setflags(write=False)
    return LetterObservations(obs.letter, obs.site_codes, *views)
