"""Runner behaviour: index keying, chunk invariance, progress stream."""

import dataclasses
import os
from pathlib import Path

import pytest

from repro import ScenarioConfig, simulate
from repro.attack.events import NOV2015_EVENTS
from repro.defense.controllers import GreedyShedController, OracleController
from repro.scenario import diff_arrays, result_arrays
from repro.scenario.presets import QUIET_WINDOW_START
from repro.sweep import (
    CELL_DONE,
    SWEEP_DONE,
    SWEEP_START,
    SweepSpec,
    default_chunk_size,
    run_sweep,
)


@pytest.fixture(scope="module")
def two_cell_spec(tiny_base):
    return SweepSpec.grid(tiny_base, {"baseline_days": [3, 7]})


@pytest.fixture(scope="module")
def serial(two_cell_spec):
    return run_sweep(two_cell_spec, jobs=1)


class TestRunner:
    def test_results_in_cell_order(self, two_cell_spec, serial):
        assert len(serial.results) == two_cell_spec.n_cells
        for cell, result in zip(serial.cells, serial.results):
            assert result.config == cell.config

    def test_chunk_size_invariance(self, two_cell_spec, serial):
        rechunked = run_sweep(two_cell_spec, jobs=1, chunk_size=1)
        for a, b in zip(serial.results, rechunked.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_rerun_is_identical(self, two_cell_spec, serial):
        again = run_sweep(two_cell_spec, jobs=1)
        for a, b in zip(serial.results, again.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_progress_stream(self, two_cell_spec):
        events = []
        run_sweep(two_cell_spec, jobs=1, progress=events.append)
        kinds = [e.kind for e in events]
        assert kinds[0] == SWEEP_START
        assert kinds[-1] == SWEEP_DONE
        cell_events = [e for e in events if e.kind == CELL_DONE]
        assert len(cell_events) == two_cell_spec.n_cells
        assert [e.completed for e in cell_events] == [1, 2]
        assert sorted(e.index for e in cell_events) == [0, 1]
        assert all(e.total == two_cell_spec.n_cells for e in events)

    def test_summaries_one_per_point(self, two_cell_spec, serial):
        assert len(serial.summaries) == two_cell_spec.n_points
        for point_index, summary in enumerate(serial.summaries):
            assert summary.point_index == point_index
            assert summary.metrics["availability"].n == 1

    def test_invalid_jobs(self, two_cell_spec):
        with pytest.raises(ValueError):
            run_sweep(two_cell_spec, jobs=0)

    def test_invalid_chunk_size(self, two_cell_spec):
        with pytest.raises(ValueError):
            run_sweep(two_cell_spec, jobs=1, chunk_size=0)


class TestDefaultChunkSize:
    def test_serial_prefers_long_chunks(self):
        assert default_chunk_size(16, 1) == 4

    def test_never_below_one(self):
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestEdgeGrids:
    """Degenerate grids must be bit-identical serial vs pool."""

    def _check(self, spec, **pool_kwargs):
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, **pool_kwargs)
        assert len(serial.results) == len(pooled.results) == spec.n_cells
        for a, b in zip(serial.results, pooled.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_no_axes_is_one_cell(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {})
        assert spec.n_cells == 1
        self._check(spec, jobs=2)

    def test_single_cell_grid(self, tiny_base):
        spec = SweepSpec.grid(tiny_base, {"baseline_days": [3]})
        assert spec.n_cells == 1
        self._check(spec, jobs=2)

    def test_chunk_size_larger_than_cell_count(self, two_cell_spec):
        self._check(two_cell_spec, jobs=2, chunk_size=64)

    def test_more_jobs_than_cells(self, two_cell_spec):
        self._check(two_cell_spec, jobs=4, chunk_size=1)


class TestStatefulControllers:
    def test_controller_state_never_leaks_between_runs(self, tiny_base):
        # GreedyShedController mutates internal state during a run; the
        # runner pickle-roundtrips every cell, so two sweeps over the
        # same spec -- and the spec's own base config -- stay pristine.
        import dataclasses

        from repro.defense.controllers import GreedyShedController

        controller = GreedyShedController()
        base = dataclasses.replace(
            tiny_base, controllers={"K": controller}
        )
        spec = SweepSpec.grid(base, {}, replicates=2)
        first = run_sweep(spec, jobs=1)
        assert controller._quiet == {}  # caller's instance untouched
        second = run_sweep(spec, jobs=1)
        for a, b in zip(first.results, second.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))


def _logs(result, letter):
    return result.deployments[letter].actions


class TestResultIsolation:
    def test_serial_results_keep_their_own_logs(self):
        """A serial sweep reuses one substrate: every result must hold
        its own routing-action records, agreeing with the pool run and
        with a standalone simulate of the same cell."""
        base = ScenarioConfig(
            seed=7, n_stubs=80, n_vps=40, letters=("H", "K"),
            include_nl=False,
        )
        event = {"events": NOV2015_EVENTS}
        quiet = {"events": (), "window_start": QUIET_WINDOW_START}
        spec = SweepSpec.from_points(base, [event, quiet, event, quiet])
        sweeps = {jobs: run_sweep(spec, jobs=jobs) for jobs in (1, 2)}
        for cell in spec.cells():
            standalone = simulate(cell.config)
            if cell.config.events:
                assert standalone.deployments["H"].actions
            for sweep in sweeps.values():
                result = sweep.results[cell.index]
                for letter in result.letters:
                    assert _logs(result, letter) == _logs(
                        standalone, letter
                    )


def _with_scaled_events(config, factor):
    """The same scenario with every attack's rate scaled by *factor*.

    Changes only a run-time knob, so both configs share one substrate
    signature.
    """
    events = tuple(
        dataclasses.replace(event, rate_qps=event.rate_qps * factor)
        for event in config.events
    )
    return dataclasses.replace(config, events=events)


class TestJobsParity:
    @pytest.mark.parametrize("jobs", [2])
    def test_attack_axis_bit_identical_across_jobs(self, tiny_base, jobs):
        """Cells differing only in attack rate reuse one substrate, and
        its routing tables, under ``jobs=1``; the pool must agree."""
        points = [
            {},
            {"events": _with_scaled_events(tiny_base, 2.0).events},
        ]
        spec = SweepSpec.from_points(tiny_base, points)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=jobs)
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))

    def test_spawned_workers_match_serial(self, monkeypatch):
        """A spawned worker hashes strings with its own seed; controller
        decisions must not depend on it (the oracle's three-site search
        sums in site order, not in set order)."""
        scripts = Path(__file__).resolve().parents[2] / "scripts"
        monkeypatch.syspath_prepend(str(scripts))
        from check_determinism import FAULT_PLAN

        base = ScenarioConfig(
            seed=7, n_stubs=60, n_vps=30, letters=("A", "H", "K"),
            include_nl=False, faults=FAULT_PLAN,
            controllers={
                "H": GreedyShedController(),
                "K": OracleController(max_withdrawals=3),
            },
        )
        spec = SweepSpec.from_points(base, [{}, {"baseline_days": 3}])
        serial = run_sweep(spec, jobs=1)
        parent_seed = os.environ.get("PYTHONHASHSEED")
        monkeypatch.setenv(
            "PYTHONHASHSEED", "2" if parent_seed == "1" else "1"
        )
        spawned = run_sweep(spec, jobs=2, start_method="spawn")
        assert not spawned.failures
        for a, b in zip(serial.results, spawned.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))
        # The oracle acts: K changes routes beyond the session reset's
        # two flaps.
        k_changes = [
            record
            for record in serial.results[0].deployments["K"].actions
            if record.changed_asns
        ]
        assert len(k_changes) > 2
