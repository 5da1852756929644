"""Routing-kernel wall time under route churn -> BENCH_routing.json.

Three measurements, all on the same flapping-origin schedule (the
workload BgpSessionReset faults and withdraw/absorber policies create,
where every bin needs a fresh propagation):

* ``reference`` -- the scalar BFS in ``repro.netsim.bgp_reference``;
* ``kernel`` -- the array kernel in ``repro.netsim.bgp`` over the
  compiled CSR view (the acceptance target is >= 5x on >= 500 ASes);
* ``cache_hit`` -- :meth:`AnycastPrefix.routing` cycling through
  recurring announcement states, i.e. the per-bin fast path.

Plus one end-to-end scenario with BgpSessionReset + PeerChurn faults,
run once with the reference propagate patched in (the pre-kernel
baseline) and once with the kernel, asserting bit-identical result
arrays and recording the wall-time improvement.

Every reference-vs-kernel propagation pair is checked for equality
(same tables, same iteration order); ``--smoke`` shrinks the sizes for
CI, where only the equality assertions matter, and skips the speedup
floor.

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

#: The churned letter: K has the most global sites, so withdrawals
#: reshuffle the largest catchments.
LETTER = "K"


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


def assert_equal_tables(kernel_table, ref_table) -> None:
    kernel_routes = kernel_table._routes
    ref_routes = ref_table._routes
    assert list(kernel_routes) == list(ref_routes), "install order differs"
    assert kernel_routes == ref_routes, "routes differ"


def bench_propagations(
    stubs: int, propagations: int, check_every: int
) -> dict:
    topology = build_topology(
        TopologyConfig(n_stubs=stubs), component_rng(1, "topology")
    )
    deployment = build_deployments(
        topology, letters={LETTER: LETTERS_SPEC[LETTER]}
    )[LETTER]
    graph = topology.graph
    states = churn_states(deployment.prefix)
    schedule = [states[i % len(states)] for i in range(propagations)]

    # Warm the per-graph memos (distance rows, CSR view) so neither
    # implementation pays one-off setup inside its timed loop.
    bgp_reference.propagate(graph, schedule[0])
    bgp.propagate(graph, schedule[0])

    started = time.perf_counter()
    ref_tables = [bgp_reference.propagate(graph, s) for s in schedule]
    ref_wall = time.perf_counter() - started

    started = time.perf_counter()
    kernel_tables = [bgp.propagate(graph, s) for s in schedule]
    kernel_wall = time.perf_counter() - started

    for i in range(0, propagations, check_every):
        assert_equal_tables(kernel_tables[i], ref_tables[i])

    # Cache-hit path: the same announcement states recur (policy loops
    # flap one site), so routing() serves LRU hits after the first lap.
    flapped = sorted(deployment.prefix.announced_sites())[0]
    deployment.prefix.routing()
    deployment.prefix.withdraw(flapped, timestamp=0.0)
    deployment.prefix.routing()
    deployment.prefix.announce(flapped, timestamp=1.0)
    started = time.perf_counter()
    for step in range(propagations):
        deployment.prefix.set_announced(
            flapped, up=bool(step % 2), timestamp=float(step + 2)
        )
        deployment.prefix.routing()
    cache_wall = time.perf_counter() - started

    return {
        "n_ases": len(graph),
        "n_sites": len(deployment.site_order),
        "propagations": propagations,
        "reference_wall_s": round(ref_wall, 4),
        "kernel_wall_s": round(kernel_wall, 4),
        "cache_hit_wall_s": round(cache_wall, 4),
        "kernel_speedup": round(ref_wall / kernel_wall, 2),
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

    def timed_run():
        started = time.perf_counter()
        result = simulate(config)
        return time.perf_counter() - started, result_arrays(result)

    original = anycast_module.propagate
    anycast_module.propagate = bgp_reference.propagate
    try:
        ref_wall, ref_arrays = timed_run()
    finally:
        anycast_module.propagate = original
    kernel_wall, kernel_arrays = timed_run()

    differences = diff_arrays(ref_arrays, kernel_arrays)
    assert not differences, f"faulted outputs diverged: {differences}"
    return {
        "n_stubs": stubs,
        "n_vps": vps,
        "letters": ["A", LETTER],
        "faults": "5x BgpSessionReset + PeerChurn",
        "reference_wall_s": round(ref_wall, 3),
        "kernel_wall_s": round(kernel_wall, 3),
        "speedup": round(ref_wall / kernel_wall, 2),
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_routing.json")
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

    churn = bench_propagations(stubs, propagations, check_every)
    print(
        f"churn: {churn['n_ases']} ASes, "
        f"reference {churn['reference_wall_s']}s, "
        f"kernel {churn['kernel_wall_s']}s "
        f"({churn['kernel_speedup']}x), "
        f"cache-hit {churn['cache_hit_wall_s']}s",
        file=sys.stderr,
    )
    if not args.smoke:
        assert churn["n_ases"] >= 500, "churn bench needs >= 500 ASes"
        assert churn["kernel_speedup"] >= 5.0, (
            f"kernel speedup {churn['kernel_speedup']}x below the 5x floor"
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
            "churn = N distinct announcement states propagated "
            "back-to-back (reference vs array kernel vs LRU cache "
            "hits); faulted_e2e = one scenario with per-bin BGP "
            "session flaps, run with each propagate implementation "
            "and asserted bit-identical"
        ),
        "smoke": args.smoke,
        "churn": churn,
        "faulted_e2e": faulted,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
