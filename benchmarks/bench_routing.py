"""Routing-kernel wall time under route churn -> BENCH_routing.json.

Three measurements, all on the same flapping-origin schedule (the
workload BgpSessionReset faults and withdraw/absorber policies create,
where every bin needs a fresh propagation), one row per churned letter:

* ``reference`` -- the scalar BFS in ``repro.netsim.bgp_reference``;
* ``kernel`` -- the array kernel in ``repro.netsim.bgp`` over the
  compiled CSR view (the acceptance target is >= 5x on >= 500 ASes);
* ``cache_hit`` -- :meth:`AnycastPrefix.routing` cycling through
  recurring announcement states, i.e. the per-bin fast path.

Plus one end-to-end scenario with BgpSessionReset + PeerChurn faults,
run once with the reference routes patched in (``bgp_reference.table``,
the pre-kernel baseline) and once with the kernel, asserting
bit-identical result arrays and recording the wall-time improvement.

Each leg runs :data:`REPEATS` times (the churn legs after one warm-up
propagation); a row records the median as ``*_wall_s`` with the
individual runs beside it as ``*_runs_s``, and the speedups and K's
5x floor come from the medians.  Every reference-vs-kernel
propagation pair is checked for equality (same routes, same install
order); ``--smoke`` shrinks the sizes for CI, where only the equality
assertions matter, skips the speedup floor, and writes no file unless
``--out`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_routing.py \
        [--out BENCH_routing.json] [--propagations 24] [--stubs 3000] \
        [--smoke]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time

from repro import ScenarioConfig, simulate
from repro.faults import BgpSessionReset, FaultPlan, PeerChurn
from repro.netsim import anycast as anycast_module
from repro.netsim import bgp, bgp_reference
from repro.netsim.anycast import AnycastPrefix
from repro.netsim.topology import TopologyConfig, build_topology
from repro.rootdns.deployment import build_deployments
from repro.rootdns.letters import LETTERS_SPEC
from repro.scenario import diff_arrays, result_arrays
from repro.util.rng import component_rng
from repro.util.timegrid import EVENT_WINDOW_START as W

# The host-metadata block is shared with every other BENCH_* writer;
# it lives in scripts/bench_report.py, outside the package tree.
sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"),
)
from bench_report import host_metadata  # noqa: E402

#: The churned letters.  K's 15 global sites make withdrawals
#: reshuffle large catchments; E's 56 local sites (of 74) load the
#: local stage, where each local origin makes its host and neighbor
#: offers.
CHURN_LETTERS = ("K", "E")

#: The letter the speedup floor applies to, and the faulted scenario's.
LETTER = "K"

#: Timed runs of every leg.  One run of E's unchanged reference leg
#: read 0.44-0.82 s from run to run on a 2-vCPU VM, too wide to resolve
#: a 20% kernel change; the median of five is steadier.
REPEATS = 5


def timed(run) -> tuple[float, object]:
    """Wall time of ``run()`` and its result."""
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def leg(name: str, runs: list[float], digits: int) -> dict:
    """A leg's median wall time and its individual runs."""
    return {
        f"{name}_wall_s": round(statistics.median(runs), digits),
        f"{name}_runs_s": [round(run, digits) for run in runs],
    }


def churn_states(prefix: AnycastPrefix) -> list:
    """Distinct announcement states of a flapping-origin schedule.

    Cycles a withdrawn site and a partially-blocked site around the
    deployment, so consecutive states differ and nothing is a cache
    hit -- every state costs one full propagation.
    """
    sites = sorted(prefix.announced_sites())
    graph = prefix.graph
    states = []
    for step in range(len(sites)):
        down = sites[step % len(sites)]
        blocked_site = sites[(step + 1) % len(sites)]
        origins = []
        for code in sites:
            if code == down:
                continue
            origin = prefix.origin(code)
            if code == blocked_site:
                neighbors = sorted(graph.neighbors(origin.asn))
                origin = origin.with_blocked(
                    frozenset(neighbors[: len(neighbors) // 2])
                )
            origins.append(origin)
        states.append(origins)
    return states


def assert_equal_tables(kernel_table, ref_routes) -> None:
    kernel_routes = kernel_table.routes()
    assert list(kernel_routes) == list(ref_routes), "install order differs"
    assert kernel_routes == ref_routes, "routes differ"


def bench_propagations(
    letter: str, stubs: int, propagations: int, check_every: int
) -> dict:
    topology = build_topology(
        TopologyConfig(n_stubs=stubs), component_rng(1, "topology")
    )
    deployment = build_deployments(
        topology, letters={letter: LETTERS_SPEC[letter]}
    )[letter]
    graph = topology.graph
    states = churn_states(deployment.prefix)
    schedule = [states[i % len(states)] for i in range(propagations)]

    # Warm the per-graph memos (distance rows, CSR view) so neither
    # implementation pays one-off setup inside its timed loop.
    bgp_reference.propagate(graph, schedule[0])
    bgp.propagate(graph, schedule[0])

    # Cache-hit path: the same announcement states recur (policy loops
    # flap one site), so routing() serves LRU hits after the first lap.
    prefix = deployment.prefix
    flapped = sorted(prefix.announced_sites())[0]
    prefix.routing()
    prefix.set_announced(flapped, False)
    prefix.routing()

    def cache_hits() -> None:
        for step in range(propagations):
            prefix.set_announced(flapped, up=bool(step % 2))
            prefix.routing()

    ref_runs, kernel_runs, cache_runs = [], [], []
    for _ in range(REPEATS):
        wall, ref_tables = timed(
            lambda: [bgp_reference.propagate(graph, s) for s in schedule]
        )
        ref_runs.append(wall)
        wall, kernel_tables = timed(
            lambda: [bgp.propagate(graph, s) for s in schedule]
        )
        kernel_runs.append(wall)
        prefix.set_announced(flapped, True)
        cache_runs.append(timed(cache_hits)[0])

    for i in range(0, propagations, check_every):
        assert_equal_tables(kernel_tables[i], ref_tables[i])

    reference = leg("reference", ref_runs, 4)
    kernel = leg("kernel", kernel_runs, 4)
    return {
        "letter": letter,
        "n_ases": len(graph),
        "n_sites": len(deployment.site_order),
        "n_local_sites": sum(
            deployment.prefix.origin(code).scope is bgp.Scope.LOCAL
            for code in deployment.site_order
        ),
        "propagations": propagations,
        "repeats": REPEATS,
        **reference,
        **kernel,
        **leg("cache_hit", cache_runs, 4),
        "kernel_speedup": round(
            statistics.median(ref_runs) / statistics.median(kernel_runs), 2
        ),
        "tables_identical": True,
    }


def bench_faulted_scenario(stubs: int, vps: int) -> dict:
    hour = 3600
    resets = tuple(
        BgpSessionReset(
            letter=LETTER,
            site=site,
            start=W + (3 + 4 * i) * hour,
            duration_s=1800,
        )
        for i, site in enumerate(("AMS", "LHR", "FRA", "MIA", "VIE"))
    )
    plan = FaultPlan(
        specs=resets
        + (PeerChurn(start=W + 6 * hour, duration_s=2 * hour, fraction=0.5),)
    )
    config = ScenarioConfig(
        seed=7, n_stubs=stubs, n_vps=vps, letters=("A", LETTER),
        faults=plan,
    )

    original = anycast_module.propagate
    ref_runs, kernel_runs = [], []
    for _ in range(REPEATS):
        anycast_module.propagate = bgp_reference.table
        try:
            wall, ref_result = timed(lambda: simulate(config))
        finally:
            anycast_module.propagate = original
        ref_runs.append(wall)
        wall, kernel_result = timed(lambda: simulate(config))
        kernel_runs.append(wall)
        differences = diff_arrays(
            result_arrays(ref_result), result_arrays(kernel_result)
        )
        assert not differences, f"faulted outputs diverged: {differences}"

    return {
        "n_stubs": stubs,
        "n_vps": vps,
        "letters": ["A", LETTER],
        "faults": "5x BgpSessionReset + PeerChurn",
        "repeats": REPEATS,
        **leg("reference", ref_runs, 3),
        **leg("kernel", kernel_runs, 3),
        "speedup": round(
            statistics.median(ref_runs) / statistics.median(kernel_runs), 2
        ),
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="result file (default BENCH_routing.json; none with --smoke)",
    )
    parser.add_argument("--propagations", type=int, default=24)
    parser.add_argument("--stubs", type=int, default=3000)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes; assert equality only, no speedup floor",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        stubs, propagations, check_every = 40, 6, 1
        e2e_stubs, e2e_vps = 60, 40
    else:
        stubs, propagations, check_every = args.stubs, args.propagations, 4
        e2e_stubs, e2e_vps = 600, 200

    churn = [
        bench_propagations(letter, stubs, propagations, check_every)
        for letter in CHURN_LETTERS
    ]
    for row in churn:
        print(
            f"churn {row['letter']}: {row['n_ases']} ASes, "
            f"{row['n_local_sites']}/{row['n_sites']} sites local, "
            f"reference {row['reference_wall_s']}s, "
            f"kernel {row['kernel_wall_s']}s "
            f"({row['kernel_speedup']}x), "
            f"cache-hit {row['cache_hit_wall_s']}s",
            file=sys.stderr,
        )
    if not args.smoke:
        floored = churn[CHURN_LETTERS.index(LETTER)]
        assert floored["n_ases"] >= 500, "churn bench needs >= 500 ASes"
        assert floored["kernel_speedup"] >= 5.0, (
            f"{LETTER} kernel speedup {floored['kernel_speedup']}x "
            "below the 5x floor"
        )

    faulted = bench_faulted_scenario(e2e_stubs, e2e_vps)
    print(
        f"faulted e2e: reference {faulted['reference_wall_s']}s, "
        f"kernel {faulted['kernel_wall_s']}s ({faulted['speedup']}x)",
        file=sys.stderr,
    )

    payload = {
        "generated": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "host": host_metadata(),
        "note": (
            "churn = one row per letter: N distinct announcement "
            "states propagated back-to-back (reference vs array "
            "kernel vs LRU cache hits); faulted_e2e = one scenario "
            "with per-bin BGP session flaps, run with each propagate "
            "implementation and asserted bit-identical; every leg "
            f"runs {REPEATS} times, *_wall_s is the median of *_runs_s "
            "and the speedups are ratios of medians"
        ),
        "smoke": args.smoke,
        "churn": churn,
        "faulted_e2e": faulted,
    }
    out = args.out
    if out is None and not args.smoke:
        out = "BENCH_routing.json"
    if out is None:
        return 0
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
