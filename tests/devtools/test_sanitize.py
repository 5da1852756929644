"""The runtime sanitizer (``REPRO_SANITIZE=1``) and the read-only
substrate it relies on.

Three properties are load-bearing:

* the sanitizer is *observational* -- a sanitized run is bit-identical
  to a plain one;
* shared substrate arrays are read-only from the moment they are
  built, sanitizer or not, so an injected in-place write raises
  ``ValueError`` at the mutation site (instead of silently corrupting
  sibling cells);
* per-stream draw counters are identical between ``jobs=1`` and
  ``jobs=N``, proving no RNG stream leaks across cells or processes.
"""

import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro import ScenarioConfig
from repro.devtools import sanitize
from repro.devtools.sanitize import (
    STREAM_DRAWS,
    counting_generator,
    reset_streams,
    stream_report,
)
from repro.datasets.observations import VantagePointTable
from repro.netsim import ASGraph, AsNode, AsRole, Relationship
from repro.netsim.asgraph import CompiledGraph
from repro.scenario import diff_arrays, result_arrays
from repro.scenario.engine import (
    Substrate,
    build_substrate,
    simulate,
    substrate_constant_arrays,
)
from repro.sweep import (
    CheckpointWriter,
    SweepSpec,
    load_checkpoint,
    run_sweep,
)
from repro.util import Location


@pytest.fixture
def tiny_config():
    return ScenarioConfig(
        seed=7, n_stubs=50, n_vps=30, letters=("A", "K"), include_nl=False
    )


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    reset_streams()
    yield
    reset_streams()


def _set_fields_only(self, state):
    for f, value in zip(fields(self), state):
        object.__setattr__(self, f.name, value)


class TestCountingGenerator:
    def test_draw_values_are_bit_identical(self):
        wrapped = counting_generator(np.random.default_rng(123), "t")
        bare = np.random.default_rng(123)
        assert np.array_equal(wrapped.normal(size=16), bare.normal(size=16))
        assert np.array_equal(
            wrapped.integers(0, 100, size=16),
            bare.integers(0, 100, size=16),
        )
        assert np.array_equal(
            wrapped.permutation(10), bare.permutation(10)
        )

    def test_counts_calls_per_label(self):
        reset_streams()
        try:
            generator = counting_generator(
                np.random.default_rng(1), "atlas.vps"
            )
            generator.random()
            generator.normal(size=1000)  # one call, whatever the size
            generator.integers(0, 5)
            assert STREAM_DRAWS == {"atlas.vps": 3}
        finally:
            reset_streams()

    def test_non_draw_attributes_pass_through_uncounted(self):
        reset_streams()
        try:
            base = np.random.default_rng(1)
            generator = counting_generator(base, "t")
            assert generator.bit_generator is base.bit_generator
            assert STREAM_DRAWS == {}
        finally:
            reset_streams()

    def test_stream_report_is_label_sorted(self):
        reset_streams()
        try:
            counting_generator(np.random.default_rng(1), "zeta").random()
            counting_generator(np.random.default_rng(2), "alpha").random()
            assert list(stream_report()) == ["alpha", "zeta"]
        finally:
            reset_streams()


class TestFreezing:
    def test_substrate_constants_are_frozen(self, monkeypatch, tiny_config):
        # Every array a substrate shares between runs is read-only
        # where its owner builds it; the sanitizer plays no part.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        substrate = build_substrate(tiny_config)
        vps = substrate.vps
        shared = [
            vps.ids, vps.asns, vps.lats, vps.lons,
            vps.regions, vps.firmware, vps.hijacked,
            substrate.botnet.asns, substrate.botnet.weights,
            substrate.collectors.peer_asns,
        ]
        for letter in substrate.letters:
            deployment = substrate.deployments[letter]
            deployment.routing()
            shared += [
                deployment.capacity_vector,
                deployment._fastpath_thresholds,
                deployment.announced_mask(),
            ]
        graph = substrate.topology.graph
        _, lats, lons = graph.coordinate_arrays()
        rows = graph.distance_memo()
        assert rows  # routing filled the tie-break memo
        shared += [lats, lons, *rows.values()]
        for array in shared:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            vps.lats[0] = 0.0
        with pytest.raises(ValueError):
            substrate.botnet.weights[0] = 0.5
        with pytest.raises(ValueError):
            substrate.collectors.peer_asns[0] = 1
        with pytest.raises(ValueError):
            deployment.capacity_vector[0] = 1e9
        with pytest.raises(ValueError):
            deployment._fastpath_thresholds[0] = 0.0
        with pytest.raises(ValueError):
            deployment.announced_mask()[0] = False
        with pytest.raises(ValueError):
            next(iter(rows.values()))[0] = 0.0

    def test_constants_stay_frozen_after_pickle_and_checkpoint(
        self, monkeypatch, tiny_config, tmp_path
    ):
        # NumPy unpickles arrays writable, and unpickling runs no
        # constructor, so each owner freezes its arrays again; a
        # pickled substrate and a result restored from a checkpoint
        # (the two ways a substrate crosses a pickle) stay read-only.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        # Before Python 3.11.4, dataclasses gives every frozen slots
        # class a ``__setstate__`` that only sets the fields, even over
        # the class's own, so the re-freeze must not rest on one.
        for cls in (CompiledGraph, VantagePointTable):
            monkeypatch.setattr(cls, "__setstate__", _set_fields_only)
        substrate = build_substrate(tiny_config)
        for deployment in substrate.deployments.values():
            deployment.routing()
            deployment.announced_mask()
        copied = pickle.loads(pickle.dumps(substrate))

        spec = SweepSpec.from_points(tiny_config, [{}])
        sweep = run_sweep(spec, jobs=1)
        path = tmp_path / "ckpt.jsonl"
        with CheckpointWriter(path, spec) as writer:
            writer.record(sweep.cells[0], sweep.results[0])
        restored = load_checkpoint(path, spec).results[0]
        held = Substrate(
            signature=(), topology=restored.topology,
            facilities=restored.facilities,
            deployments=restored.deployments, specs={},
            letters=restored.letters, vps=restored.atlas.vps,
            botnet=restored.botnet, collectors=restored.collectors,
        )

        for owner in (copied, held):
            arrays = substrate_constant_arrays(owner) + [
                (f"deployments/{letter}/announced", dep.announced_mask())
                for letter, dep in owner.deployments.items()
            ]
            kinds = {name.rsplit("/", 1)[0] for name, _ in arrays}
            assert {
                "vps", "botnet", "collectors", "deployments/A",
                "deployments/K", "graph/csr", "graph/coords",
                "graph/distance",
            } <= kinds
            assert [
                name for name, array in arrays if array.flags.writeable
            ] == []

    def test_injected_write_to_compiled_graph_array_raises(self):
        # CompiledGraph CSR views are read-only by construction: an
        # injected in-place write dies at the site with ValueError
        # rather than corrupting routing.
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(
                AsNode(asn=asn, location=Location(0.0, 0.0), role=AsRole.STUB)
            )
        graph.add_link(1, 2, Relationship.PROVIDER)
        graph.add_link(2, 3, Relationship.PEER)
        compiled = graph.compiled()
        with pytest.raises(ValueError):
            compiled.provider_indices[0] = 99
        with pytest.raises(ValueError):
            compiled.asn_of[0] = 99

    def test_sanitized_simulate_is_bit_identical(
        self, monkeypatch, tiny_config
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = result_arrays(simulate(tiny_config))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_streams()
        try:
            checked = result_arrays(simulate(tiny_config))
        finally:
            reset_streams()
        assert diff_arrays(plain, checked) == []


class TestDrawParity:
    """jobs=1 and jobs=2 must perform exactly the same per-cell draws."""

    def _spec(self, tiny_config):
        return SweepSpec.from_points(tiny_config, [{}], replicates=2)

    def test_stream_draw_counters_match_across_jobs(
        self, sanitized, tiny_config
    ):
        serial = run_sweep(self._spec(tiny_config), jobs=1)
        parallel = run_sweep(self._spec(tiny_config), jobs=2)

        serial_streams = {
            name: count
            for name, count in serial.routing_stats.items()
            if name.startswith("sanitize/stream/")
        }
        parallel_streams = {
            name: count
            for name, count in parallel.routing_stats.items()
            if name.startswith("sanitize/stream/")
        }
        assert serial_streams  # the counters actually flowed through
        assert serial_streams == parallel_streams

    def test_results_stay_bit_identical_under_sanitizer(
        self, sanitized, tiny_config
    ):
        serial = run_sweep(self._spec(tiny_config), jobs=1)
        parallel = run_sweep(self._spec(tiny_config), jobs=2)
        for a, b in zip(serial.results, parallel.results):
            assert not diff_arrays(result_arrays(a), result_arrays(b))


def test_enabled_tracks_environment(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitize.enabled() is False
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.enabled() is True
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert sanitize.enabled() is False
