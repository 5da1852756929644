"""One cold run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run and reads the JSON
object it prints as its last stdout line.  ``ready`` is the
``time.monotonic()`` reading right after the imports, which the parent
subtracts from its own reading taken just before starting the process
to get ``setup_s``.

With ``--trace-out PATH`` the workload runs under :class:`Tracer`, the
Chrome trace is written to *PATH*, and the result carries the
per-layer metrics; the parent then also starts the interpreter with
``-X importtime``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

# The workload imports are the set-up being measured: interpreter start
# plus repro, numpy and scipy.
import workloads  # noqa: E402  (sets up sys.path for repro)

READY = time.monotonic()

from repro.netsim import DELTA_STATS  # noqa: E402
from repro.netsim.anycast import PREFIX_CACHE_STATS  # noqa: E402
from repro.sweep.shm import SHM_STATS  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

#: The three process-global telemetry registries, by metric prefix.
REGISTRIES = {
    "netsim.delta": DELTA_STATS,
    "netsim.prefix_cache": PREFIX_CACHE_STATS,
    "sweep.shm": SHM_STATS,
}

#: ``SweepResult.routing_stats`` key prefix of each registry.
ROUTING_STATS_PREFIX = {
    "netsim.delta": "delta/",
    "netsim.prefix_cache": "prefix_cache/",
    "sweep.shm": "shm/",
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _registry_snapshot() -> dict[str, int]:
    return {
        f"{prefix}.{key}": value
        for prefix, registry in REGISTRIES.items()
        for key, value in registry.items()
    }


class WorkerSampler(threading.Thread):
    """Polls this process's children while the workload runs.

    Per child pid it keeps the peak PSS and USS from
    ``/proc/<pid>/smaps_rollup`` (``ru_maxrss`` cannot tell shared
    pages from private ones) and the latest user+system CPU seconds
    from ``/proc/<pid>/stat``.
    """

    def __init__(self, interval_s: float = 0.01) -> None:
        super().__init__(daemon=True)
        self.interval_s = interval_s
        self.pss_kb: dict[int, int] = {}
        self.uss_kb: dict[int, int] = {}
        self.cpu_s: dict[int, float] = {}
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            self.sample()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    def sample(self) -> None:
        me = os.getpid()
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            pid = int(entry.name)
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                if int(fields[1]) != me:
                    continue
                with open(f"/proc/{pid}/smaps_rollup") as f:
                    rollup = f.read()
            except (OSError, IndexError, ValueError):
                continue  # exited between listing and reading
            self.cpu_s[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
            sizes = {}
            for line in rollup.splitlines()[1:]:
                key, _, rest = line.partition(":")
                sizes[key] = int(rest.split()[0])
            uss = sizes.get("Private_Clean", 0) + sizes.get("Private_Dirty", 0)
            self.pss_kb[pid] = max(self.pss_kb.get(pid, 0), sizes.get("Pss", 0))
            self.uss_kb[pid] = max(self.uss_kb.get(pid, 0), uss)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def traced_metrics(
    tracer: Tracer,
    wall_s: float,
    outcome: workloads.Outcome,
    registry_delta: dict[str, int],
    sampler: WorkerSampler,
) -> dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    totals = tracer.layer_totals()
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer.name, (0, 0.0))
        metrics[f"{layer.name}.calls"] = calls
        metrics[f"{layer.name}.self_s"] = self_s
    metrics.update(tracer.counters)
    metrics["core.results.render_s"] = metrics["core.results.render.self_s"]
    metrics["sweep.shm.export_s"] = metrics["sweep.shm.export.self_s"]

    routing = metrics["netsim.routing.calls"]
    metrics["netsim.routing.hit_ratio"] = (
        1.0 - metrics["netsim.propagate.calls"] / routing if routing else 0.0
    )
    vps = metrics["core.cleaning.vps"]
    metrics["core.cleaning.kept_ratio"] = (
        metrics["core.cleaning.kept"] / vps if vps else 0.0
    )

    # Registries: this process's counter deltas, plus the workers'
    # (reported per cell through SweepResult) on the pool path.
    stats = dict(registry_delta)
    sweep = outcome.sweep
    pooled = sweep is not None and sweep.jobs > 1
    if pooled:
        for prefix, key_prefix in ROUTING_STATS_PREFIX.items():
            for key, value in sweep.routing_stats.items():
                if key.startswith(key_prefix):
                    name = f"{prefix}.{key[len(key_prefix):]}"
                    stats[name] = stats.get(name, 0) + value
    metrics.update(stats)

    metrics["sweep.cells"] = len(sweep.cells) if sweep else 0
    metrics["sweep.retries"] = (
        sum(sweep.attempts.values()) - len(sweep.cells) if sweep else 0
    )
    workers = sorted(sweep.worker_rss_kb) if pooled else []
    metrics["sweep.worker_rss_mb"] = (
        sum(sweep.worker_rss_kb.values()) / 1024 if pooled else 0.0
    )
    metrics["sweep.worker_pss_mb"] = sum(
        sampler.pss_kb.get(pid, 0) for pid in workers
    ) / 1024
    metrics["sweep.worker_uss_mb"] = sum(
        sampler.uss_kb.get(pid, 0) for pid in workers
    ) / 1024
    # Supervision and dispatch: run_sweep's own time less the cell
    # compute on its critical path -- the inline cells (child spans) on
    # the serial path, the busiest worker's CPU time on the pool path.
    busiest = max((sampler.cpu_s.get(pid, 0.0) for pid in workers), default=0.0)
    metrics["sweep.run.self_s"] = max(0.0, metrics["sweep.run.self_s"] - busiest)

    metrics["trace.coverage"] = tracer.covered_seconds() / wall_s
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--imports-only", action="store_true",
                        help="exit once ready (warms caches, times nothing)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="trace the run and write a Chrome trace here")
    args = parser.parse_args(argv)
    if args.imports_only:
        print(json.dumps({"ready": READY}))
        return 0

    tracer = sampler = None
    if args.trace_out:
        before = _registry_snapshot()
        sampler = WorkerSampler()
        sampler.start()
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        outcome = workloads.run(args.workload, args.seed, smoke=args.smoke)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            sampler.stop()

    peak_kb = _peak_rss_kb()
    sweep = outcome.sweep
    if sweep is not None and sweep.jobs > 1:
        peak_kb += sum(sweep.worker_rss_kb.values())
    report = {
        "ready": READY,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "digests": outcome.digests,
        "failures": outcome.failures,
    }
    if tracer is not None:
        after = _registry_snapshot()
        delta = {name: after[name] - before[name] for name in after}
        report["layers"] = traced_metrics(
            tracer, wall_s, outcome, delta, sampler
        )
        with open(args.trace_out, "w", encoding="utf-8") as f:
            json.dump(tracer.chrome_trace(), f)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown (freeing ~1 GB of arrays at 9000 VPs):
    # it is not part of any metric and would only stretch each run.
    os._exit(code)
