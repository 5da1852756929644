"""Dataset persistence: compressed NumPy bundles and NDJSON records.

Two formats are supported:

* :func:`save_dataset` / :func:`load_dataset` -- the full binned
  :class:`~repro.datasets.observations.AtlasDataset` as one ``.npz``
  bundle (compact, lossless, fast);
* :func:`write_probe_records` / :func:`read_probe_records` -- raw
  probe-level records as NDJSON, the shape in which real RIPE Atlas
  results arrive and in which the binning pipeline consumes them.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..util.timegrid import TimeGrid
from .observations import AtlasDataset, LetterObservations, VantagePointTable

_FORMAT_VERSION = 1


def save_dataset(dataset: AtlasDataset, path: str | Path) -> None:
    """Write *dataset* as a compressed ``.npz`` bundle."""
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array([_FORMAT_VERSION]),
        "grid": np.array(
            [dataset.grid.start, dataset.grid.bin_seconds,
             dataset.grid.n_bins]
        ),
        "vp_ids": dataset.vps.ids,
        "vp_asns": dataset.vps.asns,
        "vp_lats": dataset.vps.lats,
        "vp_lons": dataset.vps.lons,
        "vp_regions": dataset.vps.regions,
        "vp_firmware": dataset.vps.firmware,
        "vp_hijacked": dataset.vps.hijacked,
        "letters": np.array(sorted(dataset.letters)),
    }
    for letter in sorted(dataset.letters):
        obs = dataset.letters[letter]
        arrays[f"{letter}_sites"] = np.array(obs.site_codes)
        arrays[f"{letter}_site_idx"] = obs.site_idx
        arrays[f"{letter}_rtt"] = obs.rtt_ms
        arrays[f"{letter}_server"] = obs.server
    np.savez_compressed(Path(path), **arrays)


#: Arrays every saved dataset holds; each letter adds :data:`_LETTER_KEYS`.
_DATASET_KEYS = (
    "format_version", "grid", "vp_ids", "vp_asns", "vp_lats", "vp_lons",
    "vp_regions", "vp_firmware", "vp_hijacked", "letters",
)
_LETTER_KEYS = ("sites", "site_idx", "rtt", "server")


def load_dataset(path: str | Path) -> AtlasDataset:
    """Read a dataset written by :func:`save_dataset`.

    A file that is not one raises a :class:`ValueError` naming *path*
    and what is wrong with it: not a NumPy archive, a lone ``.npy``
    array, a truncated or corrupt archive, missing arrays, or an
    unknown format version.  A missing or unreadable file raises
    :class:`OSError`.
    """
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except zipfile.BadZipFile as exc:
        raise ValueError(f"{path}: truncated or corrupt archive") from exc
    except EOFError as exc:
        raise ValueError(f"{path}: empty file") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not a NumPy .npz archive") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(
            f"{path}: a single NumPy array, not a dataset archive"
        )
    with data:
        try:
            return _read_dataset(path, data)
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise ValueError(
                f"{path}: corrupt archive member ({exc})"
            ) from exc


def _read_dataset(path: Path, data: np.lib.npyio.NpzFile) -> AtlasDataset:
    """The dataset in the open archive *data*, read from *path*."""
    _require(path, data, _DATASET_KEYS)
    version = int(data["format_version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported dataset format {version}")
    letters = [str(letter) for letter in data["letters"]]
    _require(
        path, data,
        [f"{letter}_{key}" for letter in letters for key in _LETTER_KEYS],
    )
    start, bin_seconds, n_bins = (int(x) for x in data["grid"])
    grid = TimeGrid(start=start, bin_seconds=bin_seconds, n_bins=n_bins)
    vps = VantagePointTable(
        ids=data["vp_ids"],
        asns=data["vp_asns"],
        lats=data["vp_lats"],
        lons=data["vp_lons"],
        regions=data["vp_regions"],
        firmware=data["vp_firmware"],
        hijacked=data["vp_hijacked"],
    )
    observations = {
        letter: LetterObservations(
            letter=letter,
            site_codes=[str(s) for s in data[f"{letter}_sites"]],
            site_idx=data[f"{letter}_site_idx"],
            rtt_ms=data[f"{letter}_rtt"],
            server=data[f"{letter}_server"],
        )
        for letter in letters
    }
    return AtlasDataset(grid=grid, vps=vps, letters=observations)


def _require(
    path: Path, data: np.lib.npyio.NpzFile, keys: Iterable[str]
) -> None:
    """Raise ``ValueError`` naming the *keys* the archive lacks."""
    missing = [key for key in keys if key not in data.files]
    if missing:
        raise ValueError(
            f"{path}: not a saved dataset: missing {', '.join(missing)}"
        )


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    """One raw measurement result (the RIPE Atlas result shape)."""

    vp_id: int
    letter: str
    timestamp: float
    #: CHAOS TXT reply string, or ``None`` on timeout.
    answer: str | None
    rtt_ms: float | None
    rcode: int | None
    firmware: int

    def __post_init__(self) -> None:
        if self.answer is not None and self.rtt_ms is None:
            raise ValueError("a reply must carry an RTT")


def write_probe_records(
    records: Iterable[ProbeRecord], path: str | Path
) -> int:
    """Write records as NDJSON; returns the number written."""
    count = 0
    with open(Path(path), "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


class CorruptRecordError(ValueError):
    """One NDJSON line could not be parsed into a :class:`ProbeRecord`.

    Carries the file and 1-based line number so a truncated download
    or a disk-mangled archive can be located exactly.  Subclasses
    :class:`ValueError` for callers that catch broadly.
    """

    def __init__(self, path: str | Path, line_no: int, reason: str) -> None:
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


def read_probe_records(
    path: str | Path,
    skip_corrupt: bool = False,
    skipped: list[int] | None = None,
) -> Iterator[ProbeRecord]:
    """Stream records from an NDJSON file.

    Corrupt lines -- invalid JSON, unknown fields, or field values a
    :class:`ProbeRecord` rejects -- raise :class:`CorruptRecordError`
    naming the file and line.  With ``skip_corrupt=True`` they are
    skipped instead (real Atlas dumps routinely have a few); pass a
    list as *skipped* to collect the 1-based line numbers that were
    dropped, e.g. to flag the dataset as partial.
    """
    with open(Path(path), encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                if not isinstance(raw, dict):
                    raise ValueError(
                        f"expected a JSON object, got "
                        f"{type(raw).__name__}"
                    )
                record = ProbeRecord(**raw)
            except (ValueError, TypeError) as exc:
                if skip_corrupt:
                    if skipped is not None:
                        skipped.append(line_no)
                    continue
                reason = (
                    f"invalid JSON: {exc}"
                    if isinstance(exc, json.JSONDecodeError)
                    else f"invalid record: {exc}"
                )
                raise CorruptRecordError(path, line_no, reason) from exc
            yield record
