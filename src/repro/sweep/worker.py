"""Pool-worker side of the sweep runner.

Each worker process keeps a small cache of
:class:`~repro.scenario.engine.Substrate` objects keyed by
:func:`~repro.scenario.engine.substrate_signature`: consecutive cells
that differ only in run-time knobs (events, overload model,
controllers, faults) reuse the expensive topology/deployment/VP build
instead of repeating it.  Substrate reuse is bit-identical to a fresh
build (``tests/scenario/test_substrate.py``), so caching cannot change
any output.

Fault-stream isolation: each cell's ``FaultPlan`` is resolved inside
:func:`~repro.scenario.engine.simulate` from a fresh
:class:`~repro.util.rng.RngFactory` seeded with that cell's own seed
-- the worker holds no shared fault RNG, so a cell's fault draws are
a pure function of its config, wherever it runs.

What crosses back: when the parent holds the cell's substrate (it
builds and keeps one for each signature that two or more cells share,
see :func:`run_cells`), the worker sends a
:class:`~repro.scenario.engine.ResultRecord` -- the run-owned result
fields and each letter's deployment run state -- and the parent
rebuilds the full result on its own copy, so no topology, facility
registry, botnet, collector or VP table, letter spec or routing cache
is pickled per cell, and results of one signature share the parent's
substrate as serial results share theirs.  A cell of a single-use
signature sends its full result.

Supervision contract: a worker never lets one cell's exception escape
the task -- every cell produces a :class:`CellOutcome`, carrying
the result, its record or the error string, plus the worker's pid
and the cell's routing-layer counter deltas (``PREFIX_CACHE_STATS`` /
``SHM_STATS``), so the parent can retry failed cells, spot which
process did what, and surface fallback storms.  Only process
death (crash, OOM kill) loses a task, and the runner detects that as
``BrokenProcessPool``.

The serial (``jobs=1``) path goes through :func:`run_cells_serial`,
which pickle-roundtrips the cells first: worker processes only ever
see pickled copies of cell configs, and mirroring that inline keeps
stateful objects inside a config (e.g. defense controllers, which
accumulate per-run state) from leaking between cells or back into the
caller's spec.  That is what makes ``jobs=1`` and ``jobs=N``
bit-identical by construction.
"""

from __future__ import annotations

import os
import pickle
import resource
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from ..devtools import sanitize
from ..netsim.anycast import PREFIX_CACHE_STATS
from ..scenario.engine import ResultRecord, Substrate, build_substrate
from ..scenario.engine import simulate, substrate_signature
from .shm import SHM_STATS, SubstrateManifest, attach_substrate

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

    from ..scenario.engine import ScenarioResult
    from .spec import SweepCell

#: Per-process substrate cache; signature -> substrate.  Bounded: a
#: chunk walks cells in index order, so only the most recent
#: signatures are worth keeping.
_SUBSTRATE_CACHE: dict[tuple[object, ...], Substrate] = {}
_CACHE_MAX = 4

#: Per-process attached-segment cache; manifest digest -> (segment,
#: substrate view).  Same FIFO bound as the build cache.  Eviction
#: only drops the references -- it must NOT ``close()`` the segment,
#: because live numpy views over its buffer would raise
#: ``BufferError``; the mapping goes away when the views do, and the
#: parent owns the unlink.
_SHM_CACHE: dict[str, tuple[SharedMemory, Substrate]] = {}

#: signature -> manifest routing table for the current task, installed
#: by :func:`run_cells` for the duration of one task.
_MANIFESTS: dict[tuple[object, ...], SubstrateManifest] = {}


@dataclass(frozen=True, slots=True)
class CellOutcome:
    """What one attempt at one cell produced.

    Exactly one of ``result``/``record``/``error`` is set: the
    :class:`~repro.scenario.engine.ResultRecord` when the parent holds
    the cell's substrate (it rebuilds the result on its own copy with
    :meth:`~repro.scenario.engine.ResultRecord.to_result`), the full
    result otherwise.  ``routing_stats`` holds this cell's *deltas* of
    the process-global routing counters (keys prefixed
    ``prefix_cache/`` and ``shm/``), so the parent can sum them across
    workers without double counting.
    """

    index: int
    result: "ScenarioResult | None"
    error: str | None
    worker_pid: int
    routing_stats: dict[str, int]
    #: This worker's peak RSS (``ru_maxrss``, KiB on Linux) observed
    #: right after the cell ran -- a high-water mark, not a per-cell
    #: delta, so the parent takes a max per pid, not a sum.
    peak_rss_kb: int = field(default=0)
    record: ResultRecord | None = None


def init_worker() -> None:
    """Process-pool initializer: empty caches, clean signal
    disposition.

    With the ``fork`` start method a worker inherits the parent's
    graceful-drain SIGINT/SIGTERM handlers (the runner installs them
    before spawning the pool); left in place they would swallow the
    supervisor's ``terminate()`` and turn every pool kill into a hang.
    Workers therefore restore SIGTERM to its default (die) and ignore
    SIGINT (a Ctrl-C goes to the whole foreground process group; the
    *parent* drains gracefully and decides the workers' fate).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _SUBSTRATE_CACHE.clear()
    _SHM_CACHE.clear()
    _MANIFESTS.clear()


def _shared_substrate_for(manifest: SubstrateManifest) -> Substrate:
    """Substrate view for *manifest*, attached at most once per
    process (keyed by content digest, so a pool respawn or segment
    re-export of identical content still hits the cache)."""
    cached = _SHM_CACHE.get(manifest.digest)
    if cached is not None:
        return cached[1]
    shm, substrate = attach_substrate(manifest)
    SHM_STATS["attach"] += 1
    while len(_SHM_CACHE) >= _CACHE_MAX:
        _SHM_CACHE.pop(next(iter(_SHM_CACHE)))
    _SHM_CACHE[manifest.digest] = (shm, substrate)
    return substrate


def _substrate_for(cell: SweepCell) -> Substrate:
    signature = substrate_signature(cell.config)
    manifest = _MANIFESTS.get(signature)
    if manifest is not None:
        try:
            substrate = _shared_substrate_for(manifest)
        except Exception:
            # Shared memory is a transport optimization, never a
            # correctness dependency: any attach failure (segment gone,
            # mapping refused, skeleton drift) falls back to the local
            # build below, which is bit-identical by the
            # substrate-reuse contract.
            SHM_STATS["fallback"] += 1
        else:
            SHM_STATS["cell"] += 1
            return substrate
    substrate = _SUBSTRATE_CACHE.get(signature)
    if substrate is None:
        substrate = build_substrate(cell.config)
        while len(_SUBSTRATE_CACHE) >= _CACHE_MAX:
            _SUBSTRATE_CACHE.pop(next(iter(_SUBSTRATE_CACHE)))
        _SUBSTRATE_CACHE[signature] = substrate
    return substrate


def _stats_snapshot() -> dict[str, int]:
    snapshot = {
        f"prefix_cache/{k}": v for k, v in PREFIX_CACHE_STATS.items()
    }
    snapshot.update({f"shm/{k}": v for k, v in SHM_STATS.items()})
    return snapshot


def _run_cell(
    cell: SweepCell, held: Collection[tuple[object, ...]]
) -> CellOutcome:
    """One attempt at one cell; exceptions become error outcomes.  The
    result goes home as a record when *held* names its signature."""
    pid = os.getpid()
    sanitizing = sanitize.enabled()
    before = _stats_snapshot()
    try:
        substrate = _substrate_for(cell)
        if sanitizing:
            # Per-cell draw accounting covers the simulate phase only:
            # the counters are zeroed *after* the substrate lookup,
            # because a build may be served from the per-process cache
            # -- counting its draws would make the telemetry depend on
            # cache warmth, not on the cell's config.  Zeroed here,
            # the reported ``sanitize/stream/*`` deltas are a pure
            # function of the cell's config, identical wherever (and
            # under whatever jobs count) the cell runs.
            sanitize.reset_streams()
        result = simulate(cell.config, substrate)
    except Exception as exc:
        return CellOutcome(
            index=cell.index,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            worker_pid=pid,
            routing_stats={},
            peak_rss_kb=_peak_rss_kb(),
        )
    after = _stats_snapshot()
    stats = {
        name: after[name] - before[name]
        for name in after
        if after[name] != before[name]
    }
    if sanitizing:
        stats.update(
            {
                f"sanitize/stream/{label}": count
                for label, count in sanitize.stream_report().items()
            }
        )
    as_record = substrate.signature in held
    return CellOutcome(
        index=cell.index,
        result=None if as_record else result,
        error=None,
        worker_pid=pid,
        routing_stats=stats,
        peak_rss_kb=_peak_rss_kb(),
        record=ResultRecord.of(result) if as_record else None,
    )


def _install_manifests(
    manifests: Mapping[tuple[object, ...], SubstrateManifest] | None,
) -> None:
    """Install (or clear, with ``None``) the signature -> manifest
    routing table for the current task."""
    _MANIFESTS.clear()
    if manifests:
        _MANIFESTS.update(manifests)


def _peak_rss_kb() -> int:
    """This process's lifetime peak RSS in KiB (``ru_maxrss`` is
    already KiB on Linux, bytes on macOS -- normalised here)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":
        peak //= 1024
    return int(peak)


def run_cells(
    cells: tuple[SweepCell, ...],
    manifests: Mapping[tuple[object, ...], SubstrateManifest] | None = None,
    held: Collection[tuple[object, ...]] = (),
) -> list[CellOutcome]:
    """Simulate one task's cells; one outcome per cell, index order.

    *manifests* (when the shared-memory layer is on) maps substrate
    signatures to shared-segment manifests; cells whose signature
    appears there are served from a zero-copy attached substrate
    instead of a local build.  Cells whose signature is in *held*, the
    substrates the parent built and kept, come home as records instead
    of full results.  A failing cell does not stop the rest of the
    task -- its outcome carries the error.
    """
    _install_manifests(manifests)
    try:
        return [_run_cell(cell, held) for cell in cells]
    finally:
        _install_manifests(None)


def run_cells_serial(cells: Sequence[SweepCell]) -> list[CellOutcome]:
    """Inline execution mirroring the process boundary.

    The cells are pickle-roundtripped before running, exactly as a
    pool worker would receive them, so the serial path sees the same
    fresh config copies as the parallel one.
    """
    return run_cells(pickle.loads(pickle.dumps(tuple(cells))))
