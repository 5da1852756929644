"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import CORE_ANALYSES, Tracer, import_times  # noqa: E402

import repro.netsim.anycast  # noqa: E402
import repro.netsim.bgp  # noqa: E402

DEFAULT_SEED = 42
HELD_OUT_SEED = 7

#: Metrics that must be non-zero on a workload: the layers the
#: benchmark's table says move that workload's end-to-end metrics.
MOVES = {
    "paper": (
        "scenario.substrate.calls", "scenario.simulate.self_s",
        "scenario.batch.self_s", "scenario.bins_batched",
        "atlas.record.self_s", "atlas.flush.self_s", "atlas.records",
        "rssac.reports.self_s", "bgpmon.route_changes.self_s",
        "core.cleaning.self_s", "core.cleaning.kept_ratio",
        *(f"core.{m}.self_s" for m in CORE_ANALYSES),
        "core.results.render_s", "sweep.cells",
    ),
    "atlas-9k": (
        "scenario.batch.self_s", "scenario.bins_batched",
        "atlas.record.self_s", "atlas.flush.self_s", "atlas.records",
        "core.cleaning.self_s", "core.cleaning.kept_ratio",
        *(f"core.{m}.self_s" for m in CORE_ANALYSES),
        "core.results.render_s",
    ),
    "playbook": (
        "scenario.simulate.self_s", "scenario.bins_per_bin",
        "rootdns.apply_policies.calls", "rootdns.apply_policies.self_s",
        "defense.decide.calls", "defense.decide.self_s",
        "netsim.queueing.calls", "netsim.queueing.self_s",
        "netsim.routing.calls", "netsim.propagate.calls",
        "netsim.propagate.self_s", "netsim.routing.hit_ratio",
        "netsim.changes_from.self_s", "faults.self_s",
    ),
    "sweep": (
        "scenario.substrate.calls", "scenario.substrate.self_s",
        "netsim.prefix_cache.computes", "sweep.run.self_s", "sweep.cells",
        "sweep.shm.export_s", "sweep.shm.attach", "sweep.worker_rss_mb",
        "sweep.worker_pss_mb", "sweep.worker_uss_mb",
    ),
}

#: Metrics that must be zero: layers a workload does not reach.
FLAT = {
    "paper": ("defense.decide.calls", "faults.self_s", "scenario.bins_per_bin"),
    "atlas-9k": ("defense.decide.calls", "sweep.cells"),
    "playbook": ("core.cleaning.self_s", "core.rtt.self_s", "sweep.cells"),
    "sweep": ("core.cleaning.self_s", "atlas.records"),
}


@pytest.fixture(scope="module")
def traced():
    """Each workload traced in process at smoke size on the default seed.

    Runs before any untraced run of the same workload, so the serial
    sweep's per-process substrate cache is still cold.
    """
    runs = {}
    for name in workloads.NAMES:
        before = child._registry_snapshot()
        sampler = child.WorkerSampler()
        sampler.start()
        tracer = Tracer()
        start = time.perf_counter()
        with tracer:
            outcome = workloads.run(name, DEFAULT_SEED, smoke=True)
        wall_s = time.perf_counter() - start
        sampler.stop()
        after = child._registry_snapshot()
        delta = {k: after[k] - before[k] for k in after}
        metrics = child.traced_metrics(tracer, wall_s, outcome, delta, sampler)
        runs[name] = (tracer, outcome, metrics)
    return runs


@pytest.fixture(scope="module")
def untraced(traced):
    return {
        (name, seed): workloads.run(name, seed, smoke=True)
        for name in workloads.NAMES
        for seed in (DEFAULT_SEED, HELD_OUT_SEED)
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_held_out_seed_differs_and_is_clean(untraced, name):
    default = untraced[(name, DEFAULT_SEED)]
    held_out = untraced[(name, HELD_OUT_SEED)]
    assert default.failures == {} and held_out.failures == {}
    assert set(default.digests) == set(held_out.digests)
    for op in default.digests:
        if op.startswith("cell/"):
            assert default.digests[op] != held_out.digests[op], op


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reproduces_untraced_digests(traced, untraced, name):
    assert traced[name][1].digests == untraced[(name, DEFAULT_SEED)].digests


@pytest.mark.parametrize("name", workloads.NAMES)
def test_spans_nest_and_self_times_are_non_negative(traced, name):
    tracer = traced[name][0]
    assert tracer.spans
    for _, start, end, parent, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end
    assert min(tracer.self_times()) >= 0.0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_layer_fires_where_it_should(traced, name):
    metrics = traced[name][2]
    assert set(metrics) >= {
        n for n in bench.PER_LAYER
        if not n.startswith(("setup.", "trace.overhead"))
    }
    assert [m for m in MOVES[name] if not metrics[m] > 0] == []
    assert [m for m in FLAT[name] if metrics[m] != 0] == []
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_every_binding_site_is_patched_and_restored():
    original = repro.netsim.bgp.propagate
    assert repro.netsim.anycast.propagate is original
    with Tracer():
        wrapped = repro.netsim.bgp.propagate
        assert wrapped is not original
        assert repro.netsim.anycast.propagate is wrapped
        assert wrapped.__wrapped__ is original
    assert repro.netsim.bgp.propagate is original
    assert repro.netsim.anycast.propagate is original


def test_import_times_charge_the_nearest_repro_subpackage():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | json",
        "import time:       700 |        700 |       scipy.stats",
        "import time:        20 |        720 |     repro.core.correlation",
        "import time:        10 |        730 |   repro.core",
        "import time:         5 |        735 | repro",
    ])
    assert import_times(stderr) == pytest.approx(
        {"other": 1e-4, "core": 7.3e-4, "repro": 5e-6}
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
def test_command_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper",
         "--seed", str(HELD_OUT_SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert "error_rate" in proc.stdout
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in section}
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
