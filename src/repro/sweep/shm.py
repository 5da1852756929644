"""Zero-copy shared-memory substrates for parallel sweeps.

The pickled dispatch path makes every pool worker rebuild its own
:class:`~repro.scenario.engine.Substrate` from each cell's config --
for sweep grids whose cells differ only in run-time knobs (events,
overload model, controllers, faults) that repeats the same expensive
topology/deployment/VP build once *per worker* and re-derives every
routing table from scratch.  This module removes that tax:

* **Export** (parent, :func:`export_substrate`): every constant array
  of a substrate -- the :class:`~repro.netsim.asgraph.CompiledGraph`
  CSR view, the engine's capacity/threshold vectors, the VP/botnet/
  collector tables, and the AS-graph coordinate/distance memos, as
  enumerated by
  :func:`~repro.scenario.engine.substrate_constant_arrays` -- is
  copied once into a single ``multiprocessing.shared_memory`` segment.
  The remaining object skeleton (deployments, announcement state,
  graph adjacency, warm routing-table LRUs) is pickled *into the same
  segment* with every constant array replaced by a persistent-id
  token, so no array bytes travel through the pickle stream.

* **Manifest** (:class:`SubstrateManifest`): what workers receive in
  place of the substrate -- the segment name plus one
  :class:`SharedArraySpec` (name, dtype, shape, offset, read-only
  flag) per array and the skeleton's offset/size.  A manifest pickles
  to a few kilobytes regardless of topology size.

* **Attach** (worker, :func:`attach_substrate`): the worker maps the
  segment, wraps each spec in a ``numpy`` view over the shared buffer
  with ``writeable=False`` -- the same freeze contract the runtime
  sanitizer enforces, so any in-place write raises ``ValueError`` at
  the mutation site instead of corrupting sibling cells -- and
  unpickles the skeleton with a ``persistent_load`` that resolves
  each token to its zero-copy view.  The compiled graph is rebuilt
  through :meth:`repro.netsim.asgraph.CompiledGraph.from_arrays`, so
  its ASN->row index is derived locally instead of pickled.

Lifecycle and ownership: the *parent* owns every segment.  It creates
them before dispatching round 0, passes manifests with every task,
and closes + unlinks them after the pool is gone -- on normal
completion, SIGINT/SIGTERM drain, worker crash, and quarantine alike
(one ``finally`` in the pool runner covers all exit paths).  Workers
only ever map existing segments and never unlink; a worker that dies
mid-cell therefore cannot leak a segment.  Unlinking while a worker
still maps the segment is safe: the kernel keeps the memory alive
until the last map goes away.

Attachment is best-effort: a worker that fails to map a segment falls
back to building the substrate from the cell's config (counted in
:data:`SHM_STATS`), which is bit-identical by the substrate-reuse
contract -- shared memory is a transport optimization and must never
be a correctness dependency.  ``REPRO_SWEEP_SHM=0`` (via
:mod:`repro.util.env`) disables the whole layer, restoring the
per-worker rebuild path.

``multiprocessing.shared_memory`` is imported by the functions that
create or attach a segment, so importing this module (as the sweep
runner does on every run) does not load the process-pool stack.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..netsim.asgraph import CompiledGraph

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

    from ..scenario.engine import Substrate

#: /dev/shm name prefix for every segment this module creates; tests
#: and the CI leak check key off it.
SEGMENT_PREFIX = "repro_sweep"

#: Array offsets inside a segment are rounded up to this, so every
#: attached view is aligned however the dtypes interleave.
_ALIGN = 64

#: Worker-side telemetry counters (mirrors ``PREFIX_CACHE_STATS``):
#: ``cell`` counts cells served from a shared substrate, ``attach``
#: fresh segment attachments, ``fallback`` failed attachments that fell
#: back to a local build.  Write-only telemetry surfaced through
#: ``CellOutcome.routing_stats`` (prefixed ``shm/``); no simulation
#: code path reads them back.
SHM_STATS: dict[str, int] = {"cell": 0, "attach": 0, "fallback": 0}

#: Monotonic per-process counter feeding segment names.
_segment_counter = 0

_PERSISTENT_TAG = "repro.sweep.shm/array"


@dataclass(frozen=True, slots=True)
class SharedArraySpec:
    """One constant array's location inside a shared segment."""

    name: str              # stable path, e.g. "graph/csr/all_indices"
    dtype: str             # numpy dtype string, e.g. "<i8", "<U4"
    shape: tuple[int, ...]
    offset: int            # byte offset into the segment
    readonly: bool = True  # attached views refuse in-place writes


@dataclass(frozen=True, slots=True)
class SubstrateManifest:
    """Everything a worker needs to reattach one exported substrate.

    Pickled to workers *in place of* the substrate's arrays; the
    ``digest`` identifies the exported content (specs + skeleton
    bytes), so per-worker caches keyed on it survive pool respawns and
    even segment re-exports of identical content.
    """

    segment: str
    digest: str
    arrays: tuple[SharedArraySpec, ...]
    skeleton_offset: int
    skeleton_size: int

    @property
    def n_bytes(self) -> int:
        return self.skeleton_offset + self.skeleton_size


class _SkeletonPickler(pickle.Pickler):
    """Pickles a substrate with constant arrays swapped for tokens.

    Identity (``is``), not equality, decides whether an encountered
    array is one of the exported constants -- two distinct arrays with
    equal contents must not alias each other through the segment.  The
    compiled graph view is reduced to its version plus its array
    fields (all of which are exported constants), so its ASN->row dict
    never enters the stream.
    """

    def __init__(
        self, file: io.BytesIO, constants: Sequence[np.ndarray]
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._constants = tuple(constants)

    def persistent_id(self, obj: object) -> object:
        if isinstance(obj, np.ndarray):
            for index, array in enumerate(self._constants):
                if array is obj:
                    return (_PERSISTENT_TAG, index)
        return None

    def reducer_override(self, obj: object):  # type: ignore[no-untyped-def]
        if isinstance(obj, CompiledGraph):
            arrays = tuple(
                getattr(obj, name) for name in obj.array_fields()
            )
            return (_rebuild_compiled_graph, (obj.version, arrays))
        return NotImplemented


def _rebuild_compiled_graph(
    version: int, arrays: tuple[np.ndarray, ...]
) -> CompiledGraph:
    names = CompiledGraph.array_fields()
    return CompiledGraph.from_arrays(version, dict(zip(names, arrays)))


class _SkeletonUnpickler(pickle.Unpickler):
    """Resolves array tokens back to zero-copy shared views."""

    def __init__(
        self, file: io.BytesIO, arrays: Sequence[np.ndarray]
    ) -> None:
        super().__init__(file)
        self._arrays = tuple(arrays)

    def persistent_load(self, pid: object) -> object:
        if (
            isinstance(pid, tuple)
            and len(pid) == 2
            and pid[0] == _PERSISTENT_TAG
        ):
            return self._arrays[pid[1]]
        raise pickle.UnpicklingError(
            f"unknown persistent id in substrate skeleton: {pid!r}"
        )


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _next_segment_name() -> str:
    global _segment_counter
    _segment_counter += 1
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{_segment_counter}"


@dataclass(slots=True)
class SharedSubstrate:
    """Parent-side handle for one exported substrate.

    Owns the segment: hold it for the lifetime of the pool, then call
    :meth:`close` exactly once from a ``finally``.
    """

    manifest: SubstrateManifest
    _shm: SharedMemory | None

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        shm = self._shm
        self._shm = None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def export_substrate(substrate: "Substrate") -> SharedSubstrate:
    """Export *substrate* into one shared-memory segment.

    Copies every constant array into the segment, pickles the
    remaining skeleton (with arrays tokenized) after them, and returns
    the parent-side handle carrying the :class:`SubstrateManifest`.
    The substrate object itself is untouched and no longer needed
    afterwards -- the caller may drop it to keep parent memory flat.
    """
    from multiprocessing.shared_memory import SharedMemory

    from ..scenario.engine import substrate_constant_arrays

    pairs = substrate_constant_arrays(substrate)
    constants = [array for _, array in pairs]
    stream = io.BytesIO()
    _SkeletonPickler(stream, constants).dump(substrate)
    skeleton = stream.getvalue()

    specs: list[SharedArraySpec] = []
    offset = 0
    for name, array in pairs:
        offset = _aligned(offset)
        specs.append(
            SharedArraySpec(
                name=name,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
            )
        )
        offset += array.nbytes
    skeleton_offset = _aligned(offset)
    total = max(1, skeleton_offset + len(skeleton))

    digest = hashlib.sha256(
        repr(tuple(specs)).encode("utf-8") + b"\x00" + skeleton
    ).hexdigest()

    shm = SharedMemory(name=_next_segment_name(), create=True, size=total)
    try:
        for spec, (_, array) in zip(specs, pairs):
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            view[...] = array
        shm.buf[
            skeleton_offset : skeleton_offset + len(skeleton)
        ] = skeleton
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    manifest = SubstrateManifest(
        segment=shm.name,
        digest=digest,
        arrays=tuple(specs),
        skeleton_offset=skeleton_offset,
        skeleton_size=len(skeleton),
    )
    return SharedSubstrate(manifest=manifest, _shm=shm)


def export_shared_substrates(
    cells: Sequence["object"],
    *,
    min_cells: int = 2,
    should_stop: "Callable[[], bool] | None" = None,
) -> tuple[list[SharedSubstrate], dict[tuple[object, ...], SubstrateManifest]]:
    """Build + export one shared substrate per redundant signature.

    Groups *cells* (``SweepCell``-shaped: ``.config`` attribute) by
    :func:`~repro.scenario.engine.substrate_signature` and exports
    only signatures shared by at least *min_cells* cells -- exactly
    the ones every worker would otherwise rebuild; single-use
    signatures stay on the pickled path, where the (parallel)
    worker-side build is cheaper than a serial parent-side one.
    Before export the parent warms each letter's base routing table
    (``deployment.routing()``), so the warmed distance memos ride the
    segment and workers skip the recompute; warming is output-
    invariant (routing is a pure function of the announcement state).

    A signature whose build or export fails is skipped -- its cells
    fall back to worker-side builds.  *should_stop* is polled between
    signatures so a graceful drain is not held up by exports.

    Returns ``(handles, manifests)``; the caller owns the handles and
    must :meth:`~SharedSubstrate.close` each one after the pool is
    gone.
    """
    from ..scenario.engine import build_substrate, substrate_signature

    order: list[tuple[object, ...]] = []
    configs: dict[tuple[object, ...], object] = {}
    counts: dict[tuple[object, ...], int] = {}
    for cell in cells:
        config = cell.config  # type: ignore[attr-defined]
        signature = substrate_signature(config)
        if signature not in counts:
            order.append(signature)
            configs[signature] = config
            counts[signature] = 0
        counts[signature] += 1

    handles: list[SharedSubstrate] = []
    manifests: dict[tuple[object, ...], SubstrateManifest] = {}
    for signature in order:
        if should_stop is not None and should_stop():
            break
        if counts[signature] < min_cells:
            continue
        try:
            substrate = build_substrate(configs[signature])  # type: ignore[arg-type]
            for letter in substrate.letters:
                substrate.deployments[letter].routing()
            handle = export_substrate(substrate)
        except Exception:
            continue
        handles.append(handle)
        manifests[signature] = handle.manifest
    return handles, manifests


def _attach_segment(name: str) -> SharedMemory:
    """Map an existing segment without resource-tracker registration.

    Before Python 3.13 (which grew ``track=False``) merely *attaching*
    registers the segment with the process's resource tracker, which
    would unlink it out from under the parent when this worker exits.
    Suppressing registration for the duration of the attach is the
    standard workaround; ownership stays with the creating parent.
    """
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = original  # type: ignore[assignment]


def attach_substrate(
    manifest: SubstrateManifest,
) -> tuple[SharedMemory, "Substrate"]:
    """Reconstruct a substrate view over an exported segment.

    Returns ``(segment, substrate)``; the caller must keep the segment
    object referenced for as long as the substrate lives (the numpy
    views hold the buffer, but the mapping object going away would
    close it on some platforms).  Every manifest array is attached
    zero-copy and read-only; the skeleton supplies everything else,
    private to this process.
    """
    shm = _attach_segment(manifest.segment)
    try:
        arrays: list[np.ndarray] = []
        for spec in manifest.arrays:
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            if spec.readonly:
                view.flags.writeable = False
            arrays.append(view)
        raw = bytes(
            shm.buf[
                manifest.skeleton_offset :
                manifest.skeleton_offset + manifest.skeleton_size
            ]
        )
        substrate = _SkeletonUnpickler(io.BytesIO(raw), arrays).load()
    except BaseException:
        shm.close()
        raise
    return shm, substrate


def attached_arrays(
    manifest: SubstrateManifest, shm: SharedMemory
) -> Iterator[tuple[str, np.ndarray]]:
    """(name, zero-copy view) pairs for *manifest* over a mapped
    segment -- the raw-array face of :func:`attach_substrate`, used by
    round-trip tests and debugging tools."""
    for spec in manifest.arrays:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        if spec.readonly:
            view.flags.writeable = False
        yield spec.name, view


def leaked_segments() -> list[str]:
    """Names of repro sweep segments currently present in ``/dev/shm``
    (empty off Linux); the leak tests and CI assert this is empty
    after every sweep exit path."""
    try:
        entries = os.listdir("/dev/shm")
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    return sorted(
        entry for entry in entries if entry.startswith(SEGMENT_PREFIX)
    )
