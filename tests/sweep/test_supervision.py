"""Supervision: retries, quarantine, timeouts, drain, resume.

Failures are injected with the ``REPRO_SWEEP_CHAOS`` env hook
(:mod:`repro.sweep.chaos`); every healed or resumed run is checked
bit-identical against an uninterrupted ``jobs=1`` reference via
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
    CHAOS_ENV,
    ChaosError,
    SweepInterrupted,
    SweepSpec,
    backoff_schedule_s,
    parse_chaos,
    run_sweep,
)


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


class TestChaosParsing:
    def test_grammar(self):
        action = parse_chaos("stall:cell2@1:30")
        assert (action.action, action.cell_index) == ("stall", 2)
        assert (action.attempt, action.seconds) == (1, 30.0)
        assert parse_chaos("kill:cell3").attempt == 0
        assert parse_chaos("raise:cell1@*").attempt is None
        assert parse_chaos("") is None
        assert parse_chaos(None) is None

    def test_malformed_rejected(self):
        for bad in ("kill", "kill:3", "explode:cell1", "stall:cell2@x"):
            with pytest.raises(ValueError):
                parse_chaos(bad)


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
        monkeypatch.setenv(CHAOS_ENV, "raise:cell1@0")
        events = []
        result = run_sweep(
            spec, jobs=1, progress=events.append, backoff_base_s=0.0
        )
        _assert_identical(result, reference)
        retries = [e for e in events if e.kind == CELL_RETRY]
        assert len(retries) == 1
        assert retries[0].index == 1
        assert retries[0].attempt == 2
        assert "ChaosError" in retries[0].reason
        assert result.attempts[1] == 2

    def test_pool_worker_kill_retries_then_identical(
        self, spec, reference, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "kill:cell1@0")
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
        monkeypatch.setenv(CHAOS_ENV, "stall:cell0@0:60")
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
        monkeypatch.setenv(CHAOS_ENV, "raise:cell1@*")
        result = run_sweep(
            spec, jobs=1, max_retries=1, backoff_base_s=0.0
        )
        assert list(result.failures) == [1]
        assert "ChaosError" in result.failures[1]
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
        monkeypatch.setenv(CHAOS_ENV, "raise:cell1@*")
        first = run_sweep(
            spec,
            jobs=1,
            checkpoint=path,
            max_retries=0,
            backoff_base_s=0.0,
        )
        assert list(first.failures) == [1]
        # The healthy cell is durable; the chaos is gone on resume
        # (fixed code, in real life) and only cell 1 re-runs.
        monkeypatch.delenv(CHAOS_ENV)
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
        monkeypatch.setenv(CHAOS_ENV, "kill:cell1@0")
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
        # Both completed cells were served from shared substrates, and
        # at least two attaches happened: the original pool's and the
        # respawned pool's (fresh processes never inherit a mapping).
        assert result.routing_stats.get("shm/cell", 0) == spec.n_cells
        assert result.routing_stats.get("shm/attach", 0) >= 2
        assert "shm/fallback" not in result.routing_stats

    def test_pickled_control_matches_shm_healed_run(
        self, spec, reference, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "kill:cell1@0")
        result = run_sweep(
            spec,
            jobs=2,
            chunk_size=1,
            shm=False,
            backoff_base_s=0.0,
        )
        _assert_identical(result, reference)
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
