"""The sweep runner: serial or process-parallel, supervised either way.

Determinism contract
--------------------

* Cells are enumerated by the spec (seeds outermost); every result
  lands in an index-keyed slot, never appended in completion order.
* Workers receive pickled cell copies; the serial path pickles too
  (:func:`~repro.sweep.worker.run_cells_serial`), so both paths see
  identical inputs.
* Each cell's simulation draws only from RNG streams derived from its
  own config seed; substrate reuse inside a worker is proven
  bit-identical to a fresh build.

Hence ``run_sweep(spec, jobs=N)`` returns bit-identical results for
every ``N``; only the progress-event interleaving and wall times vary.
``tests/sweep/test_parallel_golden.py`` asserts this against the
golden fixture.

Supervision contract
--------------------

Because every cell is a pure function of its own config, *when* and
*where* a cell runs -- first try or third retry, original pool or a
respawned one, this run or a resumed one -- cannot change its output.
The supervision layer leans on that:

* Worker death (``BrokenProcessPool``) and per-cell wall-clock
  timeouts are detected in the parent; the pool is respawned and only
  the incomplete cells are re-dispatched, with the attempt counter
  incremented for every cell that was in flight (the dying worker
  cannot be attributed more precisely than that).
* Failed attempts are retried up to ``max_retries`` with exponential
  backoff.  The backoff *schedule* is a pure function of the retry
  round (``backoff_base_s * 2**(round-1)``, capped) -- no wall-clock
  read feeds the decision; the parent just sleeps.
* A cell that exhausts its retries is quarantined: recorded as a
  failure, flagged ``cell-failed`` on its point's summary by
  :func:`~repro.sweep.aggregate.summarize`, and the sweep carries on.
* With ``checkpoint=<path>``, every completed cell is appended to a
  crash-safe write-ahead log the moment it arrives
  (:mod:`repro.sweep.checkpoint`); an existing, spec-matching log is
  resumed from automatically, and the merged output is bit-identical
  to an uninterrupted run.
* SIGINT/SIGTERM drain gracefully: in-flight work is abandoned (it is
  already durable or repeatable), the checkpoint is flushed, and
  :class:`SweepInterrupted` names it.  A second signal aborts
  immediately.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..util.env import SWEEP_SHM, env_flag
from .aggregate import CellSummary, summarize
from .checkpoint import CheckpointWriter, load_checkpoint
from .shm import (
    SharedSubstrate,
    SubstrateManifest,
    export_shared_substrates,
)
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
from .spec import SweepCell, SweepSpec
from .worker import CellOutcome, init_worker, run_cells, run_cells_serial

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from ..scenario.engine import ScenarioResult

#: Longest single backoff sleep, whatever the retry round.
BACKOFF_CAP_S = 30.0

#: How often the pool supervisor wakes to check deadlines/signals.
_POLL_S = 0.1


class SweepInterrupted(RuntimeError):
    """A sweep was stopped by SIGINT/SIGTERM after a graceful drain.

    Carries how far the sweep got and the checkpoint that holds it,
    already flushed by the time this is raised; the caller knows the
    command that resumes it.
    """

    def __init__(
        self,
        signal_name: str,
        completed: int,
        total: int,
        checkpoint_path: str | None,
    ) -> None:
        self.signal_name = signal_name
        self.completed = completed
        self.total = total
        self.checkpoint_path = checkpoint_path
        detail = f"{completed}/{total} cell(s) completed"
        if checkpoint_path is not None:
            detail += f", saved in {checkpoint_path}"
        else:
            detail += "; no checkpoint was configured, progress is lost"
        super().__init__(
            f"sweep interrupted by {signal_name} ({detail})"
        )


@dataclass(slots=True)
class SweepResult:
    """Everything a finished sweep produced.

    ``results`` is in cell-index order (identical for any worker
    count); a slot is ``None`` only for a quarantined cell, whose
    index then appears in ``failures``.  ``summaries`` is in point
    order with replicates folded (failed replicates flagged).
    ``elapsed_s``, ``attempts``, ``routing_stats``, and ``restored``
    are telemetry only and never feed back into any simulated
    quantity.
    """

    spec: SweepSpec
    cells: tuple[SweepCell, ...]
    results: list["ScenarioResult | None"]
    summaries: tuple[CellSummary, ...]
    jobs: int
    elapsed_s: float
    #: Quarantined cells: index -> failure description.
    failures: dict[int, str] = field(default_factory=dict)
    #: Attempts actually started per cell index (1 for a clean run).
    attempts: dict[int, int] = field(default_factory=dict)
    #: Summed per-cell routing-layer counter deltas across all
    #: workers (``prefix_cache/*`` and ``shm/*`` keys).
    routing_stats: dict[str, int] = field(default_factory=dict)
    #: Cell indices restored from the checkpoint instead of re-run.
    restored: tuple[int, ...] = ()
    checkpoint_path: str | None = None
    #: Shared-memory segments exported for this run (0 when the layer
    #: is disabled, the run was serial, or no signature was shared by
    #: enough cells to be worth exporting).
    shm_segments: int = 0
    #: Peak RSS per worker pid (KiB), as reported by the last outcome
    #: each worker returned.  Telemetry only.
    worker_rss_kb: dict[int, int] = field(default_factory=dict)

    def result_of(self, index: int) -> "ScenarioResult":
        result = self.results[index]
        if result is None:
            raise RuntimeError(
                f"cell {index} was quarantined: "
                f"{self.failures.get(index, 'unknown failure')}"
            )
        return result


def default_start_method() -> str:
    """``fork`` where available (cheap, shares the loaded code), else
    ``spawn``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def default_chunk_size(n_cells: int, jobs: int) -> int:
    """Contiguous cells per task: ~4 tasks per worker for balance,
    while keeping chunks long enough to hit the substrate cache."""
    return max(1, math.ceil(n_cells / max(1, jobs * 4)))


def backoff_schedule_s(
    round_index: int, base_s: float, cap_s: float = BACKOFF_CAP_S
) -> float:
    """Seconds to sleep before retry round *round_index* (1-based).

    Pure function of the round number -- the deterministic part of the
    backoff; only the parent's ``time.sleep`` consumes it.
    """
    if round_index < 1 or base_s <= 0.0:
        return 0.0
    return min(cap_s, base_s * (2.0 ** (round_index - 1)))


def _chunks(
    cells: Sequence[SweepCell], chunk_size: int
) -> list[tuple[SweepCell, ...]]:
    return [
        tuple(cells[start : start + chunk_size])
        for start in range(0, len(cells), chunk_size)
    ]


@dataclass(slots=True)
class _Supervisor:
    """Mutable bookkeeping shared by the serial and pool paths."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]
    progress: ProgressCallback | None
    max_retries: int
    writer: CheckpointWriter | None
    started: float
    slots: list["ScenarioResult | None"] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    tries: dict[int, int] = field(default_factory=dict)
    routing_stats: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    #: Signal name once a graceful stop was requested.
    stop_signal: str | None = None
    #: Shared-memory segments exported for the pool path.
    shm_segments: int = 0
    #: Peak RSS per worker pid (KiB); a high-water mark, so max-merged.
    worker_rss: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.slots:
            self.slots = [None] * len(self.cells)
        self.tries = {cell.index: 0 for cell in self.cells}

    # -- helpers -------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started  # repro: noqa DET003 -- progress/telemetry only; never reaches simulated outputs

    def emit(self, event: ProgressEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    def incomplete(self) -> list[SweepCell]:
        return [
            cell
            for cell in self.cells
            if self.slots[cell.index] is None
            and cell.index not in self.failures
        ]

    def restore(self, index: int, result: "ScenarioResult") -> None:
        self.slots[index] = result
        self.completed += 1
        self.emit(
            ProgressEvent(
                kind=CELL_RESTORED,
                completed=self.completed,
                total=len(self.cells),
                index=index,
                label=self.cells[index].label,
                elapsed_s=self.elapsed(),
            )
        )

    def store(self, outcome: CellOutcome) -> None:
        index = outcome.index
        if self.slots[index] is not None:
            raise RuntimeError(f"cell {index} produced twice")
        assert outcome.result is not None
        self.slots[index] = outcome.result
        self.completed += 1
        for name, value in outcome.routing_stats.items():
            self.routing_stats[name] = (
                self.routing_stats.get(name, 0) + value
            )
        if self.writer is not None:
            self.writer.record(self.cells[index], outcome.result)
        self.emit(
            ProgressEvent(
                kind=CELL_DONE,
                completed=self.completed,
                total=len(self.cells),
                index=index,
                label=self.cells[index].label,
                elapsed_s=self.elapsed(),
                worker_pid=outcome.worker_pid,
                attempt=self.tries[index],
                max_attempts=self.max_retries + 1,
            )
        )

    def fail_attempt(self, index: int, reason: str) -> None:
        """One attempt at *index* failed: schedule a retry or, when
        retries are exhausted, quarantine the cell."""
        attempts = self.tries[index]
        if attempts > self.max_retries:
            self.failures[index] = (
                f"failed after {attempts} attempt(s): {reason}"
            )
            self.emit(
                ProgressEvent(
                    kind=CELL_FAILED,
                    completed=self.completed,
                    total=len(self.cells),
                    index=index,
                    label=self.cells[index].label,
                    elapsed_s=self.elapsed(),
                    attempt=attempts,
                    max_attempts=self.max_retries + 1,
                    reason=reason,
                )
            )
        else:
            self.emit(
                ProgressEvent(
                    kind=CELL_RETRY,
                    completed=self.completed,
                    total=len(self.cells),
                    index=index,
                    label=self.cells[index].label,
                    elapsed_s=self.elapsed(),
                    attempt=attempts + 1,
                    max_attempts=self.max_retries + 1,
                    reason=reason,
                )
            )

    def handle_outcomes(self, outcomes: Sequence[CellOutcome]) -> None:
        for outcome in outcomes:
            if outcome.peak_rss_kb > 0:
                pid = outcome.worker_pid
                self.worker_rss[pid] = max(
                    self.worker_rss.get(pid, 0), outcome.peak_rss_kb
                )
            if outcome.error is None:
                self.store(outcome)
            else:
                self.fail_attempt(outcome.index, outcome.error)

    def interrupt(self, checkpoint_path: str | None) -> SweepInterrupted:
        return SweepInterrupted(
            self.stop_signal or "SIGINT",
            self.completed,
            len(self.cells),
            checkpoint_path,
        )


def _run_serial(
    sup: _Supervisor, chunk_size: int, backoff_base_s: float
) -> None:
    """Inline execution with the same retry/quarantine semantics as
    the pool path (no timeouts: there is no worker to kill)."""
    round_index = 0
    while True:
        todo = sup.incomplete()
        if not todo or sup.stop_signal:
            return
        if round_index > 0:
            time.sleep(backoff_schedule_s(round_index, backoff_base_s))
        size = chunk_size if round_index == 0 else 1
        for chunk in _chunks(todo, size):
            if sup.stop_signal:
                return
            for cell in chunk:
                sup.tries[cell.index] += 1
            sup.handle_outcomes(run_cells_serial(chunk))
        round_index += 1


@dataclass(slots=True)
class _Task:
    """One in-flight pool submission."""

    cells: tuple[SweepCell, ...]
    deadline: float | None  # perf_counter deadline, None = no timeout


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's worker processes (for timeouts and
    graceful drains -- ``shutdown()`` alone never stops running work).

    SIGTERM first (workers restore ``SIG_DFL`` in ``init_worker``),
    escalating to SIGKILL for anything still alive shortly after, so a
    stalled or signal-blocking worker cannot hang the supervisor.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
    # A worker killed mid-result-write leaves a truncated message in
    # the result pipe, and the executor's manager thread would block
    # in ``recv()`` forever -- the parent's own writer fd keeps the
    # pipe from ever hitting EOF.  Closing that fd turns the truncated
    # message into an EOF, the manager marks the pool broken and
    # exits, and interpreter shutdown (which joins manager threads)
    # cannot hang.
    queue = getattr(pool, "_result_queue", None)
    writer = getattr(queue, "_writer", None)
    if writer is not None:
        try:
            writer.close()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_pool(
    sup: _Supervisor,
    jobs: int,
    chunk_size: int,
    start_method: str | None,
    cell_timeout_s: float | None,
    backoff_base_s: float,
    checkpoint_path: str | None,
    shm_enabled: bool,
) -> None:
    # The pool stack loads here, on the one path that starts workers;
    # a serial sweep never imports it.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context(
        start_method or default_start_method()
    )
    pool: ProcessPoolExecutor | None = None

    def _spawn() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=init_worker,
        )

    # Shared-substrate export happens once, before any dispatch: the
    # parent owns every segment for the whole pool lifetime (respawns
    # included) and unlinks them in the ``finally`` below -- the one
    # cleanup covering normal completion, graceful drain, worker
    # death, and quarantine exits alike.
    shared: list[SharedSubstrate] = []
    manifests: dict[tuple[object, ...], SubstrateManifest] = {}
    try:
        if shm_enabled:
            shared, manifests = export_shared_substrates(
                sup.incomplete(),
                should_stop=lambda: sup.stop_signal is not None,
            )
            sup.shm_segments = len(shared)
        round_index = 0
        while True:
            todo = sup.incomplete()
            if not todo:
                return
            if sup.stop_signal:
                raise sup.interrupt(checkpoint_path)
            if round_index > 0:
                time.sleep(
                    backoff_schedule_s(round_index, backoff_base_s)
                )
            if pool is None:
                pool = _spawn()
            # Round 0 dispatches contiguous chunks (substrate-cache
            # friendly); retry rounds isolate cells one per task so a
            # poison cell only ever takes itself down.
            size = chunk_size if round_index == 0 else 1
            futures: dict[Future[list[CellOutcome]], _Task] = {}
            for chunk in _chunks(todo, size):
                for cell in chunk:
                    sup.tries[cell.index] += 1
                deadline = (
                    time.perf_counter() + cell_timeout_s * len(chunk)  # repro: noqa DET003 -- supervision deadline only; never reaches simulated outputs
                    if cell_timeout_s is not None
                    else None
                )
                futures[
                    pool.submit(run_cells, chunk, manifests or None)
                ] = _Task(cells=chunk, deadline=deadline)
            pool_broken = False
            while futures and not pool_broken:
                if sup.stop_signal:
                    _kill_pool(pool)
                    pool = None
                    raise sup.interrupt(checkpoint_path)
                done, _ = wait(
                    futures, timeout=_POLL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = futures.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        for cell in task.cells:
                            if sup.slots[cell.index] is None:
                                sup.fail_attempt(
                                    cell.index, "worker died"
                                )
                    else:
                        sup.handle_outcomes(outcomes)
                if pool_broken:
                    break
                now = time.perf_counter()  # repro: noqa DET003 -- supervision deadline only; never reaches simulated outputs
                expired = [
                    (future, task)
                    for future, task in futures.items()
                    if task.deadline is not None
                    and now > task.deadline
                    and not future.done()
                ]
                if expired:
                    # A hung worker cannot be preempted; kill the pool
                    # and let the next round re-dispatch survivors.
                    for future, task in expired:
                        futures.pop(future)
                        for cell in task.cells:
                            if sup.slots[cell.index] is None:
                                sup.fail_attempt(cell.index, "timeout")
                    pool_broken = True
            if pool_broken:
                # Everything still in flight died with the pool; an
                # attempt was started for each, so it counts.
                for task in futures.values():
                    for cell in task.cells:
                        if (
                            sup.slots[cell.index] is None
                            and cell.index not in sup.failures
                        ):
                            sup.fail_attempt(cell.index, "worker died")
                _kill_pool(pool)
                pool = None
            round_index += 1
    finally:
        # Workers must be gone (or at least past submission) before
        # the segments are unlinked; unlinking a still-mapped segment
        # is safe (the kernel keeps the memory until the last map
        # drops), and a worker whose attach races the unlink falls
        # back to a local build.
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for handle in shared:
            handle.close()


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    start_method: str | None = None,
    checkpoint: str | os.PathLike[str] | None = None,
    max_retries: int = 2,
    cell_timeout_s: float | None = None,
    backoff_base_s: float = 0.5,
    shm: bool | None = None,
) -> SweepResult:
    """Run every cell of *spec* and fold replicates into summaries.

    ``jobs=1`` runs inline; ``jobs>1`` uses a supervised
    ``ProcessPoolExecutor`` with a per-worker substrate cache, worker
    death/timeout detection, and retry with deterministic exponential
    backoff.  Outputs are bit-identical across ``jobs`` values, across
    retries, and across checkpoint resumes.

    On the pool path, substrates whose signature is shared by two or
    more cells are built once in the parent and exported to
    shared-memory segments that workers attach zero-copy
    (:mod:`repro.sweep.shm`); *shm* forces the layer on/off, and the
    default defers to ``REPRO_SWEEP_SHM`` (on unless set to ``0``).
    The layer is transport-only -- outputs are bit-identical with it
    on, off, or falling back mid-run.

    With *checkpoint*, completed cells are persisted to an append-only
    log as they finish; if the file already exists (and matches the
    spec), those cells are restored instead of re-run.
    ``cell_timeout_s`` bounds one cell's wall time (pool path only; a
    task's budget is ``cell_timeout_s * cells_in_task``).  A cell
    failing more than ``max_retries`` retries is quarantined, not
    fatal.  SIGINT/SIGTERM raise :class:`SweepInterrupted` after the
    checkpoint is flushed; a second signal aborts immediately.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise ValueError("cell_timeout_s must be positive")
    cells = spec.cells()
    if chunk_size is None:
        chunk_size = default_chunk_size(len(cells), jobs)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    started = time.perf_counter()  # repro: noqa DET003 -- progress/telemetry only; never reaches simulated outputs
    sup = _Supervisor(
        spec=spec,
        cells=cells,
        progress=progress,
        max_retries=max_retries,
        writer=None,
        started=started,
    )

    checkpoint_path: str | None = None
    restored_results: dict[int, "ScenarioResult"] = {}
    if checkpoint is not None:
        checkpoint_path = os.fspath(checkpoint)
        data = None
        if (
            os.path.exists(checkpoint_path)
            and os.path.getsize(checkpoint_path) > 0
        ):
            data = load_checkpoint(checkpoint_path, spec)
            restored_results = data.results
        sup.writer = CheckpointWriter(checkpoint_path, spec, data=data)

    sup.emit(
        ProgressEvent(
            kind=SWEEP_START, completed=0, total=len(cells)
        )
    )
    for index in sorted(restored_results):
        sup.restore(index, restored_results[index])

    # Graceful-drain signal handling: first SIGINT/SIGTERM sets a flag
    # the supervision loops poll; a second one aborts hard.  Handlers
    # can only be installed from the main thread -- elsewhere (e.g. a
    # sweep driven from a worker thread) signals keep their previous
    # behaviour.
    previous: dict[int, object] = {}

    def _request_stop(signum: int, frame: object) -> None:
        if sup.stop_signal is not None:
            raise KeyboardInterrupt
        sup.stop_signal = signal.Signals(signum).name

    in_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    if in_main_thread:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.getsignal(signum)
            signal.signal(signum, _request_stop)
    try:
        try:
            if jobs == 1:
                _run_serial(sup, chunk_size, backoff_base_s)
            else:
                shm_enabled = (
                    env_flag(SWEEP_SHM, default=True)
                    if shm is None
                    else shm
                )
                _run_pool(
                    sup, jobs, chunk_size, start_method,
                    cell_timeout_s, backoff_base_s, checkpoint_path,
                    shm_enabled,
                )
        except KeyboardInterrupt:
            sup.stop_signal = sup.stop_signal or "SIGINT"
        if sup.stop_signal is not None:
            raise sup.interrupt(checkpoint_path)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
        if sup.writer is not None:
            sup.writer.close()

    missing = [
        i
        for i, slot in enumerate(sup.slots)
        if slot is None and i not in sup.failures
    ]
    if missing:
        raise RuntimeError(f"cells never completed: {missing}")
    summaries = summarize(spec, sup.slots, failures=sup.failures)
    elapsed = sup.elapsed()
    sup.emit(
        ProgressEvent(
            kind=SWEEP_DONE,
            completed=sup.completed,
            total=len(cells),
            elapsed_s=elapsed,
        )
    )
    return SweepResult(
        spec=spec,
        cells=cells,
        results=sup.slots,
        summaries=summaries,
        jobs=jobs,
        elapsed_s=elapsed,
        failures=dict(sup.failures),
        attempts={
            index: count
            for index, count in sup.tries.items()
            if count > 0
        },
        routing_stats=dict(sup.routing_stats),
        restored=tuple(sorted(restored_results)),
        checkpoint_path=checkpoint_path,
        shm_segments=sup.shm_segments,
        worker_rss_kb=dict(sup.worker_rss),
    )


def summaries_records(
    summaries: Sequence[CellSummary],
) -> list[dict[str, object]]:
    """JSON-friendly per-cell summary records (for files and the CLI)."""
    return [summary.as_record() for summary in summaries]
