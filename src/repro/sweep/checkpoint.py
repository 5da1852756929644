"""Append-only, crash-safe checkpoint log for sweep runs.

A checkpoint is a JSONL write-ahead log: one header line identifying
the :class:`~repro.sweep.spec.SweepSpec` it belongs to, then one
record per completed cell, appended (and flushed + fsynced) the moment
the parent receives that cell's result.  A run that dies -- worker
crash, operator Ctrl-C, power loss -- leaves a file whose valid prefix
is exactly the set of cells that finished, and
``run_sweep(spec, checkpoint=path)`` resumes from it, re-running only
the missing cells.  The header carries the pickled spec, so
:func:`read_header` tells a resume which sweep it continues.  Because
every cell is a pure function of its own config (the sweep's
determinism contract), the merged output is bit-identical to an
uninterrupted run.

Records are keyed by ``(spec digest, substrate signature digest, cell
index, seed)`` and carry a CRC32 over their own body, so the loader
can tell a torn tail (the line being written when the process died)
from good data: the first unparsable, crc-mismatching, or
key-mismatching line *truncates* the log there -- everything before it
is trusted, everything after it is dropped, and nothing raises.

The header is written atomically (temp file + ``os.replace``), so a
checkpoint file either does not exist or starts with a complete,
valid header; appends go straight to the file with per-record
``flush`` + ``fsync``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..scenario.engine import substrate_signature
from .spec import SweepCell, SweepSpec

if TYPE_CHECKING:
    from ..scenario.engine import ScenarioResult

#: First-line marker; a file not starting with this is not a checkpoint.
FORMAT = "repro-sweep-checkpoint"
#: Version 3: pickled results' AS graphs carry no version token, and
#: their compiled views one field less (version 2 files would load
#: with shifted fields).  Version 2: deployments hold routing-action
#: records (``LetterDeployment.actions``) instead of policy and change
#: logs.
VERSION = 3

#: Pickle protocol pinned so digests and payloads do not drift with
#: the interpreter's default.
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used (bad header, wrong
    spec, unreadable)."""


def spec_digest(spec: SweepSpec) -> str:
    """Hex digest identifying *spec*; see :meth:`SweepSpec.digest`."""
    return spec.digest()


def substrate_digest(cell: SweepCell) -> str:
    """Short hex digest of the cell's substrate signature."""
    text = repr(substrate_signature(cell.config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _encode_result(result: ScenarioResult) -> str:
    raw = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
    return base64.b64encode(zlib.compress(raw, level=6)).decode("ascii")


def _decode_result(payload: str) -> ScenarioResult:
    raw = zlib.decompress(base64.b64decode(payload.encode("ascii")))
    result: ScenarioResult = pickle.loads(raw)
    return result


def _record_crc(index: int, seed: int, substrate: str, payload: str) -> int:
    body = f"{index}:{seed}:{substrate}:{payload}"
    return zlib.crc32(body.encode("ascii"))


def _encode_spec(spec: SweepSpec) -> str:
    raw = pickle.dumps(spec, protocol=_PICKLE_PROTOCOL)
    return base64.b64encode(zlib.compress(raw, level=6)).decode("ascii")


def _decode_spec(payload: str) -> SweepSpec:
    raw = zlib.decompress(base64.b64decode(payload.encode("ascii")))
    spec: SweepSpec = pickle.loads(raw)
    return spec


def _header_line(spec: SweepSpec) -> str:
    header = {
        "format": FORMAT,
        "version": VERSION,
        "spec_digest": spec_digest(spec),
        "n_cells": spec.n_cells,
        "spec": _encode_spec(spec),
    }
    return json.dumps(header, sort_keys=True) + "\n"


def _record_line(cell: SweepCell, result: ScenarioResult) -> str:
    substrate = substrate_digest(cell)
    payload = _encode_result(result)
    record = {
        "index": cell.index,
        "seed": cell.config.seed,
        "substrate": substrate,
        "payload": payload,
        "crc": _record_crc(cell.index, cell.config.seed, substrate, payload),
    }
    return json.dumps(record, sort_keys=True) + "\n"


@dataclass(slots=True)
class CheckpointData:
    """What a checkpoint file held: the spec it belongs to, every
    recovered cell result (first record per index wins), the byte
    offset of the last valid line, and how many tail lines were
    dropped as torn/corrupt."""

    spec: SweepSpec
    digest: str
    results: dict[int, "ScenarioResult"]
    valid_bytes: int
    dropped_lines: int


def read_header(path: str | os.PathLike[str]) -> SweepSpec:
    """The spec of the sweep a checkpoint belongs to, from its header.

    Decodes no cell record, so a resume learns its spec without paying
    for the results it will restore.  A missing or empty file, a torn
    or unparsable header, and any header but a version-:data:`VERSION`
    one raise :class:`CheckpointError`.
    """
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not line:
        raise CheckpointError(f"checkpoint {path} is empty")
    if not line.endswith(b"\n"):
        raise CheckpointError(f"checkpoint {path} has a torn header")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} has an unparsable header"
        ) from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != FORMAT
        or header.get("version") != VERSION
    ):
        raise CheckpointError(
            f"{path} is not a version-{VERSION} sweep checkpoint"
        )
    try:
        return _decode_spec(header["spec"])
    except (KeyError, ValueError, zlib.error, pickle.UnpicklingError) as exc:
        raise CheckpointError(
            f"checkpoint {path} header carries no loadable spec"
        ) from exc


def load_checkpoint(
    path: str | os.PathLike[str], spec: SweepSpec | None = None
) -> CheckpointData:
    """Read a checkpoint, trusting only its valid prefix.

    With *spec* given, the header's spec digest must match it (a
    mismatch raises :class:`CheckpointError` -- merging someone else's
    cells would silently corrupt a sweep).  A missing/empty file and a
    bad header also raise (see :func:`read_header`); torn or corrupt
    *record* lines never do -- the log is truncated at the first bad
    line and ``dropped_lines`` counts what was discarded.
    """
    header_spec = read_header(path)
    digest = spec_digest(header_spec)
    if spec is not None and digest != spec_digest(spec):
        raise CheckpointError(
            f"checkpoint {path} belongs to a different sweep spec "
            f"(digest {digest[:12]}... != {spec_digest(spec)[:12]}...)"
        )
    try:
        with open(path, "rb") as handle:
            valid_bytes = len(handle.readline())
            lines = handle.read().splitlines(keepends=True)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    against = spec if spec is not None else header_spec

    results: dict[int, ScenarioResult] = {}
    valid_lines = 0
    for line in lines:
        record = _parse_record(line, against)
        if record is None:
            # Torn/corrupt line: in an append-only log everything at
            # and after it is the untrusted tail -- truncate here.
            break
        index, result = record
        results.setdefault(index, result)
        valid_bytes += len(line)
        valid_lines += 1
    return CheckpointData(
        spec=header_spec,
        digest=digest,
        results=results,
        valid_bytes=valid_bytes,
        dropped_lines=len(lines) - valid_lines,
    )


def _parse_record(
    line: bytes, spec: SweepSpec
) -> tuple[int, "ScenarioResult"] | None:
    """One record line -> ``(index, result)``, or ``None`` if torn or
    corrupt (bad JSON, missing newline, wrong fields, crc mismatch,
    key mismatch against *spec*, or unloadable payload)."""
    if not line.endswith(b"\n"):
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    try:
        index = int(record["index"])
        seed = int(record["seed"])
        substrate = str(record["substrate"])
        payload = str(record["payload"])
        crc = int(record["crc"])
    except (KeyError, TypeError, ValueError):
        return None
    if crc != _record_crc(index, seed, substrate, payload):
        return None
    if not 0 <= index < spec.n_cells:
        return None
    cell = spec.cell(index)
    if seed != cell.config.seed or substrate != substrate_digest(cell):
        return None
    try:
        result = _decode_result(payload)
    except Exception:
        return None
    return index, result


class CheckpointWriter:
    """Append-only writer over a checkpoint file.

    Creating one either starts a fresh log (header written atomically
    via a temp file + ``os.replace``) or re-opens an existing one: the
    file is loaded, its torn tail (if any) physically truncated, and
    appends continue after the last valid record.  ``record()`` is
    idempotent per cell index, and every append is flushed and fsynced
    before returning, so a record is durable the moment the call
    returns.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        spec: SweepSpec,
        *,
        data: CheckpointData | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self._spec = spec
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if exists:
            if data is None:
                data = load_checkpoint(self.path, spec)
            self._recorded = set(data.results)
            self._handle = open(self.path, "r+b")
            self._handle.truncate(data.valid_bytes)
            self._handle.seek(0, os.SEEK_END)
        else:
            self._recorded = set()
            tmp = self.path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(_header_line(spec).encode("ascii"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._handle = open(self.path, "ab")

    @property
    def recorded(self) -> frozenset[int]:
        """Cell indices already durable in this checkpoint."""
        return frozenset(self._recorded)

    def record(self, cell: SweepCell, result: "ScenarioResult") -> None:
        """Append one completed cell (no-op if already recorded)."""
        if cell.index in self._recorded:
            return
        line = _record_line(cell, result).encode("ascii")
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._recorded.add(cell.index)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

