"""Tuple-carrying-heap route computation: the routing kernel's oracle.

The pre-optimisation implementation of valley-free route selection,
kept outside the library as the frozen reference the dense kernel in
:mod:`repro.net.routing` must match route for route
(``tests/test_routing.py``) and as the baseline of
``benchmarks/test_bench_routing.py``.
"""

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.net.relationships import ASGraph
from repro.net.routing import Route, RouteKind



def _better(candidate: Route, incumbent: Optional[Route]) -> bool:
    """BGP decision: kind (local pref), then path length, then next hop."""
    if incumbent is None:
        return True
    if candidate.kind.value != incumbent.kind.value:
        return candidate.kind.value < incumbent.kind.value
    if candidate.as_path_length != incumbent.as_path_length:
        return candidate.as_path_length < incumbent.as_path_length
    cand_next = candidate.path[1] if len(candidate.path) > 1 else -1
    inc_next = incumbent.path[1] if len(incumbent.path) > 1 else -1
    return cand_next < inc_next


def _compute_routes_reference(graph: ASGraph, origins: Sequence[int]
                              ) -> Dict[int, Route]:
    """Pre-optimization tuple-based route computation (test oracle).

    Semantics are frozen: the dense kernel must select exactly the routes
    this implementation selects.
    """
    if not origins:
        raise TopologyError("need at least one origin")
    for origin in origins:
        if origin not in graph:
            raise TopologyError(f"origin ASN {origin} not in graph")

    best: Dict[int, Route] = {}

    # Phase 1: customer routes, BFS upward. A heap ordered by
    # (path_len, next_hop) makes selection deterministic and shortest-first.
    heap: List[Tuple[int, int, Tuple[int, ...]]] = []
    for origin in sorted(set(origins)):
        route = Route(path=(origin,), kind=RouteKind.ORIGIN)
        best[origin] = route
        heapq.heappush(heap, (0, -1, route.path))
    while heap:
        path_len, __, path = heapq.heappop(heap)
        holder = path[0]
        current = best.get(holder)
        if current is None or current.path != path:
            continue  # superseded by a better route
        for provider in sorted(graph.providers_of(holder)):
            candidate = Route(path=(provider,) + path,
                              kind=RouteKind.CUSTOMER)
            if _better(candidate, best.get(provider)):
                best[provider] = candidate
                heapq.heappush(
                    heap, (candidate.as_path_length, path[0], candidate.path))

    # Phase 2: peer routes — cross one peering link from any AS holding an
    # origin or customer route. Collect candidates first so that phase-2
    # routes never chain across two peer links.
    uphill_holders = [r for r in best.values()
                      if r.kind in (RouteKind.ORIGIN, RouteKind.CUSTOMER)]
    for route in sorted(uphill_holders, key=lambda r: (r.as_path_length,
                                                       r.path)):
        for peer in sorted(graph.peers_of(route.holder)):
            candidate = Route(path=(peer,) + route.path, kind=RouteKind.PEER)
            if _better(candidate, best.get(peer)):
                best[peer] = candidate

    # Phase 3: provider routes, BFS downward from every route holder.
    heap = []
    for route in best.values():
        heapq.heappush(heap, (route.as_path_length, -1, route.path))
    while heap:
        path_len, __, path = heapq.heappop(heap)
        holder = path[0]
        current = best.get(holder)
        if current is None or current.path != path:
            continue
        for customer in sorted(graph.customers_of(holder)):
            candidate = Route(path=(customer,) + path,
                              kind=RouteKind.PROVIDER)
            if _better(candidate, best.get(customer)):
                best[customer] = candidate
                heapq.heappush(
                    heap, (candidate.as_path_length, path[0], candidate.path))

    return best
