"""Zero-copy shared-memory substrates: round-trip, leaks, fallback.

Two invariants matter and both are absolute: attached substrates are
*bit-identical* to locally built ones (shared memory is a transport,
never a source of truth), and every exit path -- clean completion,
SIGINT drain, worker kill, quarantine -- leaves ``/dev/shm`` exactly
as it found it.
"""

import os
import signal

import numpy as np
import pytest

from repro.scenario import (
    diff_arrays,
    result_arrays,
    substrate_arrays,
)
from repro.scenario.engine import build_substrate, simulate
from repro.sweep import (
    CELL_DONE,
    SweepInterrupted,
    SweepSpec,
    attach_substrate,
    export_substrate,
    leaked_segments,
    run_sweep,
)
from repro.sweep.shm import attached_arrays
from repro.util import env

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


def _assert_no_leak():
    assert leaked_segments() == []


class TestRoundTrip:
    def test_every_manifest_array_bit_identical(self, tiny_base):
        substrate = build_substrate(tiny_base)
        expected = substrate_arrays(substrate)
        handle = export_substrate(substrate)
        try:
            manifest = handle.manifest
            assert {s.name for s in manifest.arrays} == set(expected)
            shm, attached = attach_substrate(manifest)
            views = dict(attached_arrays(manifest, shm))
            assert not diff_arrays(expected, views)
            assert all(
                not view.flags.writeable for view in views.values()
            )
            # The reconstructed substrate aliases the same shared
            # buffers, not private copies.
            assert np.shares_memory(
                attached.vps.lats, views["vps/lats"]
            )
            # The reconstructed substrate's arrays refuse writes at
            # the mutation site -- same contract the sanitizer's
            # freeze enforces.
            with pytest.raises(ValueError):
                attached.vps.lats[0] = 0.0
        finally:
            handle.close()
        _assert_no_leak()

    def test_attached_substrate_simulates_bit_identical(self, tiny_base):
        local = build_substrate(tiny_base)
        want = result_arrays(simulate(tiny_base, local))
        handle = export_substrate(local)
        try:
            _, attached = attach_substrate(handle.manifest)
            got = result_arrays(simulate(tiny_base, attached))
            assert not diff_arrays(got, want)
        finally:
            handle.close()
        _assert_no_leak()

    def test_manifest_digest_ignores_segment_name(self, tiny_base):
        substrate = build_substrate(tiny_base)
        first = export_substrate(substrate)
        second = export_substrate(substrate)
        try:
            assert first.manifest.segment != second.manifest.segment
            assert first.manifest.digest == second.manifest.digest
        finally:
            first.close()
            second.close()
        _assert_no_leak()


class TestSweepUsesSharedMemory:
    def test_clean_run_attaches_and_leaves_no_residue(
        self, spec, reference
    ):
        result = run_sweep(spec, jobs=2, shm=True)
        _assert_identical(result, reference)
        assert result.shm_segments == 1
        assert result.routing_stats.get("shm/cell", 0) == spec.n_cells
        assert result.routing_stats.get("shm/attach", 0) >= 1
        assert "shm/fallback" not in result.routing_stats
        _assert_no_leak()

    def test_worker_rss_telemetry_populated(self, spec):
        result = run_sweep(spec, jobs=2, shm=True)
        assert result.worker_rss_kb
        assert all(rss > 0 for rss in result.worker_rss_kb.values())

    def test_single_use_signatures_not_exported(self, tiny_base):
        # Replicate seeds give every cell a distinct substrate
        # signature (seed is a substrate field): nothing is shared by
        # >= 2 cells, so nothing is exported and workers build
        # locally, in parallel.
        spec = SweepSpec.grid(
            tiny_base, {"baseline_days": [3]}, seeds=(7, 8)
        )
        result = run_sweep(spec, jobs=2, shm=True)
        assert not result.failures
        assert result.shm_segments == 0
        _assert_no_leak()


class TestFallback:
    def test_env_knob_disables_layer(self, spec, reference, monkeypatch):
        monkeypatch.setenv(env.SWEEP_SHM, "0")
        result = run_sweep(spec, jobs=2)
        _assert_identical(result, reference)
        assert result.shm_segments == 0
        assert "shm/cell" not in result.routing_stats
        _assert_no_leak()

    def test_shm_argument_overrides_env(self, spec, reference, monkeypatch):
        monkeypatch.setenv(env.SWEEP_SHM, "0")
        result = run_sweep(spec, jobs=2, shm=True)
        _assert_identical(result, reference)
        assert result.shm_segments == 1

    def test_dead_segment_falls_back_to_local_build(
        self, spec, reference, monkeypatch
    ):
        # Sabotage every exported manifest so workers attach a segment
        # that does not exist: each cell must fall back to a local
        # build, bit-identical, with the fallback counted.
        import repro.sweep.runner as runner_module
        from repro.sweep.shm import export_shared_substrates

        def sabotaged(cells, **kwargs):
            handles, manifests = export_shared_substrates(
                cells, **kwargs
            )
            broken = {
                signature: type(manifest)(
                    segment=manifest.segment + "_gone",
                    digest=manifest.digest,
                    arrays=manifest.arrays,
                    skeleton_offset=manifest.skeleton_offset,
                    skeleton_size=manifest.skeleton_size,
                )
                for signature, manifest in manifests.items()
            }
            return handles, broken

        monkeypatch.setattr(
            runner_module, "export_shared_substrates", sabotaged
        )
        result = run_sweep(spec, jobs=2, shm=True)
        _assert_identical(result, reference)
        assert result.routing_stats.get("shm/fallback", 0) >= 1
        assert "shm/cell" not in result.routing_stats
        _assert_no_leak()


class TestLeakOnEveryExitPath:
    def test_sigint_before_export_skips_it(self, spec, monkeypatch):
        # A signal that lands once the parent has built its substrates
        # drains before any export: nothing is exported or leaked.
        import repro.sweep.runner as runner_module

        build, export = (
            runner_module._held_substrates,
            runner_module.export_shared_substrates,
        )
        exported = []

        def build_then_interrupt(cells, should_stop):
            held = build(cells, should_stop)
            os.kill(os.getpid(), signal.SIGINT)
            return held

        def counted(substrates, **kwargs):
            handles, manifests = export(substrates, **kwargs)
            exported.append(len(handles))
            return handles, manifests

        monkeypatch.setattr(
            runner_module, "_held_substrates", build_then_interrupt
        )
        monkeypatch.setattr(
            runner_module, "export_shared_substrates", counted
        )
        with pytest.raises(SweepInterrupted):
            run_sweep(spec, jobs=2, shm=True)
        assert exported == [0]
        _assert_no_leak()

    def test_sigint_drain_unlinks_segments(self, spec):
        def interrupt_after_first(event):
            if event.kind == CELL_DONE:
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(SweepInterrupted):
            run_sweep(
                spec, jobs=2, shm=True, chunk_size=1,
                progress=interrupt_after_first,
            )
        _assert_no_leak()

    def test_worker_kill_unlinks_segments(
        self, spec, reference, monkeypatch
    ):
        inject(monkeypatch, 1, "kill")
        result = run_sweep(
            spec, jobs=2, shm=True, chunk_size=1, backoff_base_s=0.0
        )
        _assert_identical(result, reference)
        assert result.attempts[1] == 2
        _assert_no_leak()

    def test_quarantine_unlinks_segments(self, spec, monkeypatch):
        inject(monkeypatch, 1, "raise")
        result = run_sweep(
            spec, jobs=2, shm=True, chunk_size=1,
            max_retries=0, backoff_base_s=0.0,
        )
        assert list(result.failures) == [1]
        _assert_no_leak()
