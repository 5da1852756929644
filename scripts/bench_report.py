"""Record benchmark wall times in BENCH_*.json reports.

The default (engine) mode runs the same size grid as
``benchmarks/bench_engine_scaling.py`` plus the acceptance scenario
(seed=1, 300 stubs, 500 VPs), timing the acceptance run under both
engine paths -- segment-batched (REPRO_ENGINE_BATCH=1, the default)
and the per-bin reference loop (REPRO_ENGINE_BATCH=0) -- and writes
the results to ``BENCH_engine.json`` at the repo root.  The batched
wall time must clear the 2x floor against the recorded pre-batching
baseline (0.754 s); the report keeps both paths' timings so the file
documents the trade.

``--routing`` instead runs ``benchmarks/bench_routing.py`` (churn and
faulted end-to-end) and writes ``BENCH_routing.json``; add ``--smoke``
to shrink it to the CI equality-only sizes.

``--profile`` runs the acceptance scenario once under cProfile and
writes the top 25 functions by cumulative time to
``BENCH_profile.json`` instead of timing the grid.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--reps 3]
    PYTHONPATH=src python scripts/bench_report.py --profile
    PYTHONPATH=src python scripts/bench_report.py --routing [--smoke]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import json
import os
import platform
import pstats
import time
from pathlib import Path

from repro.scenario.config import ScenarioConfig
from repro.scenario.engine import simulate
from repro.util.env import ENGINE_BATCH

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (n_stubs, n_vps) grid mirrored by benchmarks/bench_engine_scaling.py.
SCALING_SIZES = [
    (200, 300),
    (200, 1500),
    (600, 300),
    (600, 1500),
]

#: The PR acceptance scenario.
ACCEPTANCE = {"seed": 1, "n_stubs": 300, "n_vps": 500}

#: Acceptance wall time recorded before segment batching landed; the
#: batched path must beat it by BATCH_FLOOR.
PRE_BATCH_BASELINE_S = 0.754
BATCH_FLOOR = 2.0


def host_metadata() -> dict:
    """The ``host`` block shared by every BENCH_* report writer.

    ``usable_cpus`` is the scheduler-visible core count (cgroup/
    affinity limits included), which is what wall-clock comparisons
    actually ran on; ``cpu_count`` is the raw machine size.
    """
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1,
    }


def time_simulate(**kwargs) -> float:
    """Wall time of one full simulate() call, in seconds.

    The collector is paused around the timed region (the
    pytest-benchmark convention) so a GC pause landing inside one rep
    does not masquerade as engine work.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        simulate(ScenarioConfig(**kwargs))
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def time_acceptance_once(batch: bool) -> float:
    """One acceptance wall time under one engine path.

    The previous env value is restored so the report run cannot leak
    mode into later timings.
    """
    previous = os.environ.get(ENGINE_BATCH)
    os.environ[ENGINE_BATCH] = "1" if batch else "0"
    try:
        return time_simulate(**ACCEPTANCE)
    finally:
        if previous is None:
            del os.environ[ENGINE_BATCH]
        else:
            os.environ[ENGINE_BATCH] = previous


def time_acceptance(reps: int) -> tuple[float, float]:
    """Best-of-*reps* acceptance wall times, ``(batched, per_bin)``.

    The two paths alternate within each rep so scheduler / host noise
    hits both equally instead of skewing whichever ran later; best-of
    keeps transient slowdowns out of the recorded numbers.
    """
    walls_batched = []
    walls_per_bin = []
    for _ in range(reps):
        walls_batched.append(time_acceptance_once(True))
        walls_per_bin.append(time_acceptance_once(False))
    return min(walls_batched), min(walls_per_bin)


def profile_acceptance(top_n: int = 25) -> list[dict]:
    """Top-*top_n* functions by cumulative time for one acceptance run."""
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(ScenarioConfig(**ACCEPTANCE))
    profiler.disable()
    stats = pstats.Stats(profiler)
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda kv: kv[1][3],
        reverse=True,
    )[:top_n]
    return [
        {
            "function": f"{Path(filename).name}:{line}:{name}",
            "ncalls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        }
        for (filename, line, name), (
            _cc, ncalls, tottime, cumtime, _callers,
        ) in entries
    ]


def run_routing(output: Path, smoke: bool) -> None:
    """Delegate to benchmarks/bench_routing.py and write *output*.

    The benchmark module lives outside the package tree, so it is
    loaded by file path; its own CLI handles sizing and the speedup
    floors (skipped in smoke mode).
    """
    bench_path = REPO_ROOT / "benchmarks" / "bench_routing.py"
    spec = importlib.util.spec_from_file_location("bench_routing", bench_path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = ["--out", str(output)]
    if smoke:
        argv.append("--smoke")
    raise SystemExit(module.main(argv))


def run_profile(output: Path) -> None:
    """Write the cProfile report for the acceptance scenario."""
    top = profile_acceptance()
    report = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": host_metadata(),
        "acceptance": dict(ACCEPTANCE),
        "note": (
            "one acceptance simulate() under cProfile, top 25 by "
            "cumulative time; profiling overhead inflates wall times "
            "-- compare shapes, not absolute seconds"
        ),
        "top_cumulative": top,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    for row in top[:10]:
        print(
            f"{row['cumtime_s']:8.3f}s cum {row['tottime_s']:8.3f}s tot "
            f"{row['ncalls']:>8}  {row['function']}"
        )
    print(f"wrote {output}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=float,
        default=PRE_BATCH_BASELINE_S,
        help="pre-batching wall time (s) of the acceptance scenario",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per acceptance timing (best-of is recorded)",
    )
    parser.add_argument(
        "--routing",
        action="store_true",
        help="run the routing benchmarks into BENCH_routing.json instead",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="with --routing: tiny sizes, equality asserts only",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the acceptance scenario into BENCH_profile.json",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the report",
    )
    args = parser.parse_args()

    if args.routing:
        run_routing(
            args.output or REPO_ROOT / "BENCH_routing.json", args.smoke
        )
    if args.profile:
        run_profile(args.output or REPO_ROOT / "BENCH_profile.json")
        return
    if args.output is None:
        args.output = REPO_ROOT / "BENCH_engine.json"

    report: dict = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": host_metadata(),
        "scaling": [],
    }

    for n_stubs, n_vps in SCALING_SIZES:
        wall = time_simulate(seed=1, n_stubs=n_stubs, n_vps=n_vps)
        report["scaling"].append(
            {"n_stubs": n_stubs, "n_vps": n_vps, "wall_s": round(wall, 3)}
        )
        print(f"stubs={n_stubs:4d} vps={n_vps:4d}: {wall:6.2f}s")

    batched, per_bin = time_acceptance(args.reps)
    speedup = args.baseline / batched
    acceptance = {
        **ACCEPTANCE,
        "wall_s": round(batched, 3),
        "wall_s_batched": round(batched, 3),
        "wall_s_per_bin": round(per_bin, 3),
        "baseline_wall_s": args.baseline,
        "speedup": round(speedup, 2),
        "reps": args.reps,
    }
    report["acceptance"] = acceptance
    print(
        f"acceptance {ACCEPTANCE}: batched {batched:.3f}s, "
        f"per-bin {per_bin:.3f}s "
        f"({speedup:.2f}x vs {args.baseline}s baseline)"
    )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if speedup < BATCH_FLOOR:
        raise SystemExit(
            f"batched acceptance {batched:.3f}s misses the "
            f"{BATCH_FLOOR}x floor vs the {args.baseline}s baseline "
            f"({speedup:.2f}x)"
        )


if __name__ == "__main__":
    main()
