"""Deterministic parallel sweep engine.

Runs grids of :class:`~repro.scenario.config.ScenarioConfig`
variations (plus seed replication) across a supervised process pool,
with per-worker substrate caching, zero-copy shared-memory substrate
export (:mod:`repro.sweep.shm`), structured progress events,
replicate aggregation, crash-safe checkpointing, and retry/timeout
handling -- while guaranteeing outputs bit-identical to a serial,
uninterrupted run.  See ``docs/architecture.md`` ("Parallel sweeps",
"Zero-copy sweeps", and "Fault-tolerant sweeps").

``multiprocessing`` and ``concurrent.futures`` load only on the pool
path (``run_sweep(jobs > 1)`` and the shared-memory functions that
create or attach a segment), so a serial sweep never imports them.
"""

from .aggregate import CellSummary, MetricSummary, summarize
from .checkpoint import (
    CheckpointData,
    CheckpointError,
    CheckpointWriter,
    load_checkpoint,
    read_header,
    spec_digest,
)
from .metrics import cell_metrics
from .progress import (
    CELL_DONE,
    CELL_FAILED,
    CELL_RESTORED,
    CELL_RETRY,
    SWEEP_DONE,
    SWEEP_START,
    ProgressCallback,
    ProgressEvent,
)
from .runner import (
    SweepInterrupted,
    SweepResult,
    backoff_schedule_s,
    default_chunk_size,
    default_start_method,
    run_sweep,
    summaries_records,
)
from .shm import (
    SharedArraySpec,
    SharedSubstrate,
    SubstrateManifest,
    attach_substrate,
    export_shared_substrates,
    export_substrate,
    leaked_segments,
)
from .spec import SweepCell, SweepSpec, replicate_seeds

__all__ = [
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_RESTORED",
    "CELL_RETRY",
    "CellSummary",
    "CheckpointData",
    "CheckpointError",
    "CheckpointWriter",
    "MetricSummary",
    "ProgressCallback",
    "ProgressEvent",
    "SWEEP_DONE",
    "SWEEP_START",
    "SharedArraySpec",
    "SharedSubstrate",
    "SubstrateManifest",
    "SweepCell",
    "SweepInterrupted",
    "SweepResult",
    "SweepSpec",
    "attach_substrate",
    "backoff_schedule_s",
    "cell_metrics",
    "default_chunk_size",
    "default_start_method",
    "export_shared_substrates",
    "export_substrate",
    "leaked_segments",
    "load_checkpoint",
    "read_header",
    "replicate_seeds",
    "run_sweep",
    "spec_digest",
    "summaries_records",
    "summarize",
]
