"""Scalar reference implementation of valley-free route propagation.

This is the original per-Route BFS that :func:`repro.netsim.bgp.
propagate` replaced with an array kernel.  It is kept, bit-compatible,
for three reasons: it is the executable specification the property
tests pin the kernel against (``tests/property/test_bgp_kernel.py``),
it is far easier to audit against the paper's §2.1 routing model than
the vectorized code, and it is the baseline the routing benchmark
(``benchmarks/bench_routing.py``) measures speedups over.

:func:`propagate` returns its own format, a plain ``asn -> Route``
dict in install order; tests compare it with the kernel's
:meth:`~repro.netsim.bgp.RoutingTable.routes`.  :func:`table` packs
that dict into a :class:`~repro.netsim.bgp.RoutingTable`, so the whole
engine can run on reference routes (the routing benchmark's faulted
end-to-end leg).

Every ordering quirk here is load-bearing: ``min`` is stable (first
candidate wins full-key ties), candidate dicts iterate in first-
occurrence order, and the best dict iterates in first-install order.
The kernel reproduces all of it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .asgraph import ASGraph, Relationship
from .bgp import Origin, Route, RouteClass, RoutingTable, Scope, _Propagation


def propagate(graph: ASGraph, origins: list[Origin]) -> dict[int, Route]:
    """Compute the best route of every reached AS for one prefix.

    Withdrawn sites are simply omitted from *origins*.  The dict
    iterates in install order (each AS at its first route).
    """
    for origin in origins:
        if origin.asn not in graph:
            raise KeyError(f"origin AS {origin.asn} not in graph")

    # Tie-break distances, precomputed per origin over all ASes in one
    # vectorized pass and memoized on the graph across re-propagations
    # (policy loops re-announce the same origins every few bins).  The
    # coordinate arrays are only needed when some origin actually has a
    # location; an unlocated deployment ties everything at 0.0.
    located = {
        o.site: (o.asn, o.location, 1.0 - o.preference_discount)
        for o in origins
        if o.location is not None
    }
    dist_rows: dict[str, np.ndarray] = dict(
        zip(located, graph.distance_rows(list(located.values())))
    )
    row_of: dict[int, int] = {}
    if dist_rows:
        row_of, _, _ = graph.coordinate_arrays()

    def tiebreak(asn: int, origin: Origin) -> float:
        row = dist_rows.get(origin.site)
        if row is None:
            return 0.0
        return float(row[row_of[asn]])

    best: dict[int, Route] = {}

    def offer(asn: int, route: Route) -> bool:
        """Install *route* at *asn* if it wins; report whether it did."""
        if route.better_than(best.get(asn)):
            best[asn] = route
            return True
        return False

    global_origins = [o for o in origins if o.scope is Scope.GLOBAL]
    local_origins = [o for o in origins if o.scope is Scope.LOCAL]

    # --- Stage 1: customer-learned routes climb provider edges. -------
    frontier: list[tuple[int, Route]] = []
    for origin in global_origins:
        route = Route(
            site=origin.site,
            origin_asn=origin.asn,
            path=(origin.asn,),
            route_class=RouteClass.CUSTOMER,
            tiebreak=0.0,
        )
        if offer(origin.asn, route):
            frontier.append((origin.asn, route))
    origin_by_site = {o.site: o for o in origins}

    while frontier:
        candidates: dict[int, list[Route]] = defaultdict(list)
        for asn, route in frontier:
            if best.get(asn) != route:
                continue  # superseded at this level
            origin = origin_by_site[route.site]
            at_origin = len(route.path) == 1
            for provider in graph.providers(asn):
                if at_origin and provider in origin.blocked_neighbors:
                    continue
                candidates[provider].append(
                    Route(
                        site=route.site,
                        origin_asn=route.origin_asn,
                        path=route.path + (provider,),
                        route_class=RouteClass.CUSTOMER,
                        tiebreak=tiebreak(provider, origin),
                    )
                )
        frontier = []
        for asn, routes in candidates.items():
            winner = min(routes, key=Route.preference_key)
            if offer(asn, winner):
                frontier.append((asn, winner))

    customer_routed = {
        asn: route
        for asn, route in best.items()
        if route.route_class is RouteClass.CUSTOMER
    }

    # --- Stage 2: one peer hop from every customer-routed AS. ---------
    for asn, route in customer_routed.items():
        origin = origin_by_site[route.site]
        at_origin = len(route.path) == 1
        for peer in graph.peers(asn):
            if at_origin and peer in origin.blocked_neighbors:
                continue
            offer(
                peer,
                Route(
                    site=route.site,
                    origin_asn=route.origin_asn,
                    path=route.path + (peer,),
                    route_class=RouteClass.PEER,
                    tiebreak=tiebreak(peer, origin),
                ),
            )

    # --- Stage 3: everything rolls downhill to customers. -------------
    frontier = [(asn, route) for asn, route in best.items()]
    while frontier:
        candidates = defaultdict(list)
        for asn, route in frontier:
            if best.get(asn) != route:
                continue
            origin = origin_by_site[route.site]
            at_origin = len(route.path) == 1
            for customer in graph.customers(asn):
                if at_origin and customer in origin.blocked_neighbors:
                    continue
                candidates[customer].append(
                    Route(
                        site=route.site,
                        origin_asn=route.origin_asn,
                        path=route.path + (customer,),
                        route_class=RouteClass.PROVIDER,
                        tiebreak=tiebreak(customer, origin),
                    )
                )
        frontier = []
        for asn, routes in candidates.items():
            winner = min(routes, key=Route.preference_key)
            if offer(asn, winner):
                frontier.append((asn, winner))

    # --- Local sites: host AS and direct neighbors only. --------------
    for origin in local_origins:
        self_route = Route(
            site=origin.site,
            origin_asn=origin.asn,
            path=(origin.asn,),
            route_class=RouteClass.CUSTOMER,
            tiebreak=0.0,
        )
        offer(origin.asn, self_route)
        for neighbor, rel in graph.neighbors(origin.asn).items():
            if neighbor in origin.blocked_neighbors:
                continue
            # *rel* is the neighbor's role as seen from the origin; the
            # neighbor itself learned the route from the inverse side.
            if rel is Relationship.PROVIDER:
                neighbor_class = RouteClass.CUSTOMER  # learned from customer
            elif rel is Relationship.PEER:
                neighbor_class = RouteClass.PEER
            else:
                neighbor_class = RouteClass.PROVIDER  # learned from provider
            offer(
                neighbor,
                Route(
                    site=origin.site,
                    origin_asn=origin.asn,
                    path=(origin.asn, neighbor),
                    route_class=neighbor_class,
                    tiebreak=tiebreak(neighbor, origin),
                ),
            )

    return best


def table(graph: ASGraph, origins: list[Origin]) -> RoutingTable:
    """:func:`propagate`'s routes packed into a kernel-format table.

    Each route's path becomes a record chain, all chains go into the
    record forest in one batch, and the ASes are installed in the
    dict's order, so the table answers every query, and diffs against
    kernel tables on the same graph, exactly as the kernel's own
    table for *origins* would.
    """
    routes = propagate(graph, origins)
    state = _Propagation(graph, origins)
    row_of = state.compiled.row_of
    # The state is fresh, so positions in the batch are record indices.
    hops: list[int] = []
    parents: list[int] = []
    ends: list[int] = []
    for route in routes.values():
        parent = -1
        for hop in route.path:
            hops.append(row_of[hop])
            parents.append(parent)
            parent = len(hops) - 1
        ends.append(parent)
    recs = state.append_records(
        np.array(hops, dtype=np.int64), np.array(parents, dtype=np.int64)
    )
    values = list(routes.values())
    state.install_rows(
        np.array([row_of[asn] for asn in routes], dtype=np.int64),
        np.array([r.route_class for r in values], dtype=np.int8),
        np.array([r.path_len for r in values], dtype=np.int16),
        np.array([r.tiebreak for r in values], dtype=np.float64),
        np.array([state.site_idx[r.site] for r in values], dtype=np.int16),
        np.array([r.origin_asn for r in values], dtype=np.int64),
        recs[np.array(ends, dtype=np.int64)],
    )
    return RoutingTable(state.finish())
