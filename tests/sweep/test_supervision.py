"""Supervision: retries, quarantine, timeouts, drain, resume.

Failures are injected with :func:`tests.sweep.cell_faults.inject`;
every healed or resumed run is checked bit-identical against an
uninterrupted ``jobs=1`` reference via
``result_arrays``/``diff_arrays`` -- the whole point of the
supervision layer is that crashes change *nothing* about the output.
"""

import os
import signal

import pytest

from repro.faults import CELL_FAILED
from repro.scenario import diff_arrays, result_arrays
from repro.sweep import (
    CELL_DONE,
    CELL_RESTORED,
    CELL_RETRY,
    SweepInterrupted,
    SweepSpec,
    backoff_schedule_s,
    run_sweep,
)

from .cell_faults import inject


@pytest.fixture(scope="module")
def spec(tiny_base):
    return SweepSpec.grid(tiny_base, {"baseline_days": [3, 7]})


@pytest.fixture(scope="module")
def reference(spec):
    return run_sweep(spec, jobs=1)


def _assert_identical(result, reference):
    assert not result.failures
    for a, b in zip(result.results, reference.results):
        assert not diff_arrays(result_arrays(a), result_arrays(b))


class TestBackoff:
    def test_schedule_is_deterministic_and_capped(self):
        assert backoff_schedule_s(0, 0.5) == 0.0
        assert backoff_schedule_s(1, 0.5) == 0.5
        assert backoff_schedule_s(2, 0.5) == 1.0
        assert backoff_schedule_s(3, 0.5) == 2.0
        assert backoff_schedule_s(50, 0.5) == 30.0
        assert backoff_schedule_s(2, 0.0) == 0.0


class TestRetryHeals:
    def test_serial_raise_retries_then_identical(
        self, spec, reference, monkeypatch
    ):
        inject(monkeypatch, 1, "raise")
        events = []
        result = run_sweep(
            spec, jobs=1, progress=events.append, backoff_base_s=0.0
        )
        _assert_identical(result, reference)
        retries = [e for e in events if e.kind == CELL_RETRY]
        assert len(retries) == 1
        assert retries[0].index == 1
        assert retries[0].attempt == 2
        assert "InjectedFault" in retries[0].reason
        assert result.attempts[1] == 2

    def test_pool_worker_kill_retries_then_identical(
        self, spec, reference, monkeypatch
    ):
        inject(monkeypatch, 1, "kill")
        events = []
        result = run_sweep(
            spec,
            jobs=2,
            chunk_size=1,
            progress=events.append,
            backoff_base_s=0.0,
        )
        _assert_identical(result, reference)
        assert any(
            e.kind == CELL_RETRY and "worker died" in e.reason
            for e in events
        )

    def test_stalled_cell_times_out_and_retries(
        self, spec, reference, monkeypatch
    ):
        inject(monkeypatch, 0, "stall", seconds=60)
        events = []
        result = run_sweep(
            spec,
            jobs=2,
            chunk_size=1,
            cell_timeout_s=5.0,
            progress=events.append,
            backoff_base_s=0.0,
        )
        _assert_identical(result, reference)
        assert any(
            e.kind == CELL_RETRY and "timeout" in e.reason
            for e in events
        )


class TestQuarantine:
    def test_poison_cell_flagged_not_fatal(self, spec, monkeypatch):
        inject(monkeypatch, 1, "raise", times=2)
        result = run_sweep(
            spec, jobs=1, max_retries=1, backoff_base_s=0.0
        )
        assert list(result.failures) == [1]
        assert "InjectedFault" in result.failures[1]
        assert result.attempts[1] == 2  # 1 try + 1 retry
        assert result.results[1] is None
        with pytest.raises(RuntimeError, match="quarantined"):
            result.result_of(1)
        # Point 1's summary exists but is flagged and metric-less.
        flagged = result.summaries[1]
        assert any(
            f.metric == CELL_FAILED for f in flagged.quality.flags
        )
        assert flagged.metrics == {}
        # The healthy point is untouched.
        assert result.summaries[0].metrics


class TestResume:
    def test_quarantined_run_resumes_bit_identical(
        self, tmp_path, spec, reference, monkeypatch
    ):
        path = tmp_path / "ckpt.jsonl"
        inject(monkeypatch, 1, "raise")
        first = run_sweep(
            spec,
            jobs=1,
            checkpoint=path,
            max_retries=0,
            backoff_base_s=0.0,
        )
        assert list(first.failures) == [1]
        # The healthy cell is durable; the fault is gone on resume
        # (fixed code, in real life) and only cell 1 re-runs.
        monkeypatch.undo()
        events = []
        resumed = run_sweep(
            spec, jobs=1, checkpoint=path, progress=events.append
        )
        assert resumed.restored == (0,)
        assert [
            e.index for e in events if e.kind == CELL_RESTORED
        ] == [0]
        assert [
            e.index for e in events if e.kind == CELL_DONE
        ] == [1]
        _assert_identical(resumed, reference)

    def test_sigint_drains_then_resumes_bit_identical(
        self, tmp_path, spec, reference
    ):
        path = tmp_path / "ckpt.jsonl"

        def interrupt_after_first(event):
            if event.kind == CELL_DONE:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep(
                spec, jobs=1, checkpoint=path,
                progress=interrupt_after_first,
            )
        assert excinfo.value.signal_name == "SIGINT"
        assert excinfo.value.completed == 1
        assert f"saved in {path}" in str(excinfo.value)

        resumed = run_sweep(spec, jobs=1, checkpoint=path)
        assert len(resumed.restored) == 1
        _assert_identical(resumed, reference)


class TestSharedMemorySupervision:
    def test_pool_kill_respawn_reattaches_bit_identical(
        self, spec, reference, monkeypatch
    ):
        # Kill a worker mid-run with segments exported: the respawned
        # pool's workers must reattach the *same* segments (the parent
        # owns them across respawns) and the healed run stays
        # bit-identical.
        inject(monkeypatch, 1, "kill")
        events = []
        result = run_sweep(
            spec,
            jobs=2,
            chunk_size=1,
            shm=True,
            progress=events.append,
            backoff_base_s=0.0,
        )
        _assert_identical(result, reference)
        assert any(
            e.kind == CELL_RETRY and "worker died" in e.reason
            for e in events
        )
        assert result.shm_segments == 1
        # Cell 1's retry ran in the respawned pool, and every cell's
        # successful attempt was served from the shared segment.  The
        # attach count is not checked: the killed worker reports
        # nothing, and if the other worker dies with the broken pool
        # before it returns cell 0, one respawned worker can serve both
        # cells and attach once.
        assert result.attempts[1] == 2
        assert result.routing_stats.get("shm/cell", 0) == spec.n_cells
        assert "shm/fallback" not in result.routing_stats

    def test_pickled_control_matches_shm_healed_run(
        self, spec, reference, monkeypatch
    ):
        inject(monkeypatch, 1, "kill")
        result = run_sweep(
            spec,
            jobs=2,
            chunk_size=1,
            shm=False,
            backoff_base_s=0.0,
        )
        _assert_identical(result, reference)
        assert result.attempts[1] == 2
        assert result.shm_segments == 0
        assert "shm/cell" not in result.routing_stats


class TestProgressTelemetry:
    def test_done_events_carry_pid_and_attempt(self, spec):
        events = []
        result = run_sweep(spec, jobs=2, progress=events.append)
        done = [e for e in events if e.kind == CELL_DONE]
        assert len(done) == spec.n_cells
        assert all(isinstance(e.worker_pid, int) for e in done)
        assert all(e.attempt == 1 for e in done)
        assert result.routing_stats  # per-worker counters summed
