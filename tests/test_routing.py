"""Tests for valley-free route computation.

Includes hypothesis property tests asserting the Gao-Rexford invariants on
randomly wired graphs: every computed path must be valley-free (a sequence
of zero or more customer->provider steps, at most one peer step, then zero
or more provider->customer steps) and route preference must respect
customer > peer > provider.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.net.relationships import ASGraph, Relationship
from repro.net.routing import BgpSimulator, Route, RouteKind, compute_routes

from .routing_reference import _compute_routes_reference


def chain_graph():
    """5 <- 4 <- 3 <- 2 <- 1 provider chain (1 is on top)."""
    g = ASGraph()
    for asn in range(1, 6):
        g.add_as(asn)
    for customer, provider in ((2, 1), (3, 2), (4, 3), (5, 4)):
        g.add_c2p(customer, provider)
    return g


def diamond_graph():
    """Two providers over one destination, a peer link on top.

        10 ~~ 20      (peering)
        |      |
        1      2      (customers)
    """
    g = ASGraph()
    for asn in (1, 2, 10, 20):
        g.add_as(asn)
    g.add_c2p(1, 10)
    g.add_c2p(2, 20)
    g.add_p2p(10, 20)
    return g


class TestBasicRouting:
    def test_origin_route(self):
        routes = compute_routes(chain_graph(), [3])
        assert routes[3].kind is RouteKind.ORIGIN
        assert routes[3].path == (3,)

    def test_customer_route_propagates_up(self):
        routes = compute_routes(chain_graph(), [5])
        assert routes[1].kind is RouteKind.CUSTOMER
        assert routes[1].path == (1, 2, 3, 4, 5)

    def test_provider_route_propagates_down(self):
        routes = compute_routes(chain_graph(), [1])
        assert routes[5].kind is RouteKind.PROVIDER
        assert routes[5].path == (5, 4, 3, 2, 1)

    def test_peer_route_crosses_once(self):
        routes = compute_routes(diamond_graph(), [1])
        # 20 reaches 1 via its peer 10 (peer route), 2 via its provider.
        assert routes[20].kind is RouteKind.PEER
        assert routes[20].path == (20, 10, 1)
        assert routes[2].kind is RouteKind.PROVIDER
        assert routes[2].path == (2, 20, 10, 1)

    def test_unreachable_when_valley_required(self):
        # Two stubs under different providers with no provider
        # interconnection cannot reach each other.
        g = ASGraph()
        for asn in (1, 2, 10, 20):
            g.add_as(asn)
        g.add_c2p(1, 10)
        g.add_c2p(2, 20)
        routes = compute_routes(g, [1])
        assert 2 not in routes
        assert 20 not in routes

    def test_empty_origins_rejected(self):
        with pytest.raises(TopologyError):
            compute_routes(chain_graph(), [])

    def test_unknown_origin_rejected(self):
        with pytest.raises(TopologyError):
            compute_routes(chain_graph(), [99])


class TestRoutePreference:
    def test_customer_preferred_over_peer(self):
        # 10 can reach 1 via customer (10->1) even if a peer also offers.
        g = diamond_graph()
        routes = compute_routes(g, [1])
        assert routes[10].kind is RouteKind.CUSTOMER

    def test_shorter_path_wins_within_class(self):
        g = ASGraph()
        for asn in (1, 2, 3, 4):
            g.add_as(asn)
        # Destination 4 reachable from 1 via 2 (one intermediate) or
        # directly; direct customer route must win.
        g.add_c2p(4, 1)
        g.add_c2p(4, 2)
        g.add_c2p(2, 1)
        routes = compute_routes(g, [4])
        assert routes[1].path == (1, 4)

    def test_lowest_next_hop_tie_break(self):
        g = ASGraph()
        for asn in (1, 5, 6, 9):
            g.add_as(asn)
        # 9 reaches 1 via 5 or 6, same length; 5 must win.
        g.add_c2p(1, 5)
        g.add_c2p(1, 6)
        g.add_c2p(5, 9)
        g.add_c2p(6, 9)
        routes = compute_routes(g, [1])
        assert routes[9].path == (9, 5, 1)


class TestAnycast:
    def test_customer_class_decides_catchment(self):
        g = chain_graph()
        routes = compute_routes(g, [1, 5])
        # Both 2 and 4 have a customer route toward 5 and a provider
        # route toward 1: economics (customer class) wins both times,
        # even though 1 is fewer hops away from 2.
        assert routes[2].origin == 5
        assert routes[4].origin == 5
        # 1 itself is an origin.
        assert routes[1].kind is RouteKind.ORIGIN

    def test_customer_route_beats_closer_provider_route(self):
        g = chain_graph()
        routes = compute_routes(g, [1, 4])
        # 3 is one hop from 4 (customer route) and two from 1
        # (provider route): customer class wins regardless of length.
        assert routes[3].origin == 4
        assert routes[3].kind is RouteKind.CUSTOMER


class TestBgpSimulator:
    def test_graph_mutation_invalidates_cache_automatically(self):
        g = chain_graph()
        sim = BgpSimulator(g)
        assert sim.path(5, 1) == (5, 4, 3, 2, 1)
        g.add_c2p(5, 1)  # now a direct link exists
        # The graph epoch bump makes the stale entry unreachable — no
        # explicit invalidate() call needed.
        assert sim.path(5, 1) == (5, 1)

    def test_explicit_invalidate_still_works(self):
        g = chain_graph()
        sim = BgpSimulator(g)
        sim.path(5, 1)
        sim.invalidate()
        assert sim.cache_stats().entries == 0
        assert sim.path(5, 1) == (5, 4, 3, 2, 1)

    def test_cache_hit_and_miss_counters(self):
        sim = BgpSimulator(chain_graph())
        sim.path(5, 1)
        sim.path(4, 1)     # same origin set: cache hit
        sim.path(5, 2)     # different origin set: miss
        stats = sim.cache_stats()
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.entries == 2
        assert stats.evictions == 0
        assert 0.0 < stats.hit_rate < 1.0

    def test_cache_is_bounded_lru(self):
        g = chain_graph()
        sim = BgpSimulator(g, max_cache_entries=2)
        for origin in (1, 2, 3, 4, 5):
            sim.routes_to([origin])
        stats = sim.cache_stats()
        assert stats.entries == 2
        assert stats.evictions == 3
        # Most recently used sets are retained.
        sim.routes_to([5])
        assert sim.cache_stats().hits == 1

    def test_cache_stats_consistent_across_invalidate_and_epoch_bumps(self):
        """Counters survive invalidate() and epoch bumps coherently:
        lookups always equal hits + misses, entries stay bounded, and
        neither reset path manufactures phantom hits or evictions."""
        g = chain_graph()
        sim = BgpSimulator(g, max_cache_entries=2)
        lookups = 0
        for origin in (1, 2, 1, 3, 1):    # misses 1,2 / hit 1 / miss 3 ...
            sim.routes_to([origin])
            lookups += 1
        before = sim.cache_stats()
        assert before.hits + before.misses == lookups
        assert before.entries <= before.max_entries == 2
        assert before.evictions == 1      # {1,2} + 3 pushed one set out

        # Explicit invalidate: entries drop, cumulative counters persist.
        sim.invalidate()
        after_inv = sim.cache_stats()
        assert after_inv.entries == 0
        assert (after_inv.hits, after_inv.misses, after_inv.evictions) == \
            (before.hits, before.misses, before.evictions)

        # Re-warm: the cold lookup is a miss, not a hit.
        sim.routes_to([1])
        lookups += 1
        assert sim.cache_stats().misses == before.misses + 1

        # Epoch bump (graph edit): stale entries never count as hits,
        # and the implicit clear does not count as evictions.
        g.add_c2p(5, 1)
        sim.routes_to([1])
        lookups += 1
        after_bump = sim.cache_stats()
        assert after_bump.misses == before.misses + 2
        assert after_bump.hits == before.hits
        assert after_bump.evictions == before.evictions
        assert after_bump.entries == 1
        assert after_bump.hits + after_bump.misses == lookups

        # Repeating the lookup on the new epoch hits again.
        sim.routes_to([1])
        assert sim.cache_stats().hits == before.hits + 1

    def test_route_none_when_unreachable(self):
        g = ASGraph()
        g.add_as(1)
        g.add_as(2)
        assert BgpSimulator(g).route(1, 2) is None

    def test_catchment(self):
        sim = BgpSimulator(chain_graph())
        # Customer route toward 5 beats the provider route toward 1.
        assert sim.catchment(2, [1, 5]) == 5
        assert sim.catchment(1, [1, 5]) == 1


# -- hypothesis property tests ------------------------------------------------

@st.composite
def random_as_graph(draw):
    n = draw(st.integers(3, 14))
    g = ASGraph()
    for asn in range(n):
        g.add_as(asn)
    links = draw(st.lists(st.tuples(
        st.sampled_from(["c2p", "p2p"]),
        st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50))
    for kind, a, b in links:
        if a == b or g.relationship_of(a, b) is not None:
            continue
        # Keep the c2p hierarchy acyclic: only allow edges from higher
        # ASN (customer) to lower ASN (provider).
        if kind == "c2p":
            customer, provider = max(a, b), min(a, b)
            g.add_c2p(customer, provider)
        else:
            g.add_p2p(a, b)
    return g


def assert_valley_free(graph: ASGraph, route: Route) -> None:
    """Check the Gao-Rexford shape of a path (walking from holder to
    origin: uphill c2p steps, at most one peer step, downhill steps)."""
    path = route.path
    phase = "up"
    peer_crossings = 0
    for a, b in zip(path, path[1:]):
        rel = graph.relationship_of(a, b)
        assert rel is not None, f"path uses non-link {a}-{b}"
        if rel is Relationship.P2P:
            peer_crossings += 1
            assert phase == "up", "peer link crossed after going down"
            phase = "down"
        elif b in graph.providers_of(a):
            assert phase == "up", "uphill step after going down"
        else:
            phase = "down"
    assert peer_crossings <= 1


class TestHypothesisValleyFree:
    @given(random_as_graph(), st.integers(0, 13))
    @settings(max_examples=80, deadline=None)
    def test_property_all_routes_valley_free(self, graph, origin):
        if origin not in graph:
            return
        routes = compute_routes(graph, [origin])
        assert routes[origin].kind is RouteKind.ORIGIN
        for route in routes.values():
            assert route.origin == origin
            assert route.holder == route.path[0]
            assert_valley_free(graph, route)

    @given(random_as_graph(), st.integers(0, 13))
    @settings(max_examples=40, deadline=None)
    def test_property_deterministic(self, graph, origin):
        if origin not in graph:
            return
        first = compute_routes(graph, [origin])
        second = compute_routes(graph, [origin])
        assert {k: v.path for k, v in first.items()} == \
            {k: v.path for k, v in second.items()}

    @given(random_as_graph())
    @settings(max_examples=40, deadline=None)
    def test_property_customers_always_reach_providers(self, graph):
        # Every AS must be able to reach each of its direct providers.
        for asn in graph.asns:
            for provider in graph.providers_of(asn):
                routes = compute_routes(graph, [provider])
                assert asn in routes


# -- dense kernel vs reference implementation ---------------------------------

def random_topology(seed: int):
    """A seeded Internet-like topology plus anycast origin sets (size 1-4).

    Each AS picks 1-3 providers among lower-numbered ASes (the c2p
    hierarchy is acyclic by construction) and random peering links are
    sprinkled on top.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    g = ASGraph()
    for asn in range(n):
        g.add_as(asn)
    for asn in range(1, n):
        n_providers = min(asn, int(rng.integers(1, 4)))
        for provider in rng.choice(asn, size=n_providers, replace=False):
            g.add_c2p(asn, int(provider))
    for __ in range(n):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b and g.relationship_of(a, b) is None:
            g.add_p2p(a, b)
    origin_sets = [sorted(int(x) for x in rng.choice(n, size=k,
                                                     replace=False))
                   for k in (1, 1, 2, 3, 4)]
    return g, origin_sets


def assert_matches_reference(graph: ASGraph, origins) -> None:
    """The dense table must be bit-identical to the tuple-based oracle."""
    table = compute_routes(graph, origins)
    reference = _compute_routes_reference(graph, origins)
    assert set(table) == set(reference)
    assert len(table) == len(reference)
    assert table.holder_set() == set(reference)
    for asn, ref_route in reference.items():
        assert table.path_of(asn) == ref_route.path
        assert table.kind_of(asn) is ref_route.kind
        assert table.origin_of(asn) == ref_route.origin
        assert table.length_of(asn) == ref_route.as_path_length
        assert table[asn] == ref_route


class TestDenseReferenceEquivalence:
    """The optimized kernel selects exactly the reference's routes."""

    @given(random_as_graph(),
           st.lists(st.integers(0, 13), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_reference(self, graph, origins):
        origins = [o for o in origins if o in graph]
        if not origins:
            return
        assert_matches_reference(graph, origins)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_topologies_match_reference(self, seed):
        # 24 seeded topologies x 5 origin sets each, including
        # multi-origin anycast sets of sizes 2-4.
        graph, origin_sets = random_topology(seed)
        for origins in origin_sets:
            assert_matches_reference(graph, origins)

    def test_bulk_paths_match_reference(self):
        graph, origin_sets = random_topology(seed=7)
        origins = origin_sets[-1]
        table = compute_routes(graph, origins)
        reference = _compute_routes_reference(graph, origins)
        everyone = sorted(graph.asns)
        paths = table.paths_for(everyone)
        assert set(paths) == set(everyone)
        for asn in everyone:
            ref = reference.get(asn)
            assert paths[asn] == (ref.path if ref is not None else None)

    @pytest.mark.parametrize("pick", [0, -1], ids=["unicast", "anycast"])
    def test_walked_paths_match_reference(self, pick):
        graph, origin_sets = random_topology(seed=7)
        origins = origin_sets[pick]
        table = compute_routes(graph, origins)
        reference = _compute_routes_reference(graph, origins)
        srcs = np.array(sorted(graph.asns)[::-1] + [10**6], dtype=np.int64)
        rows, hops, nexts = table.walk_paths(srcs)
        assert list(rows) == sorted(rows)
        walked = {}
        for row, hop, nxt in zip(rows.tolist(), hops.tolist(),
                                 nexts.tolist()):
            walked.setdefault(row, []).append((hop, nxt))
        for row, asn in enumerate(srcs.tolist()):
            ref = reference.get(asn)
            if ref is None:
                assert row not in walked
                continue
            assert tuple(h for h, __ in walked[row]) == ref.path
            assert [n for __, n in walked[row]] == list(ref.path[1:]) + [-1]
