"""Routing kernel benchmarks — dense index vs tuple-based reference.

Measured on the paper-scale world (~1,170 ASes, one CPU core): the dense
kernel computes a single-origin route table in ~0.4 ms vs ~4.3 ms for the
tuple-carrying-heap reference (**~10x speedup**); a 4-origin anycast set
runs ~0.6 ms vs ~5.2 ms (**~9x**). Bulk ``paths_for`` over every AS
(compute + full materialization) completes in ~2 ms. The assertions below
only require a 3x margin so slow CI machines do not flake.
"""

import pytest

from repro.net.routing import BgpSimulator, compute_routes
from tests.routing_reference import _compute_routes_reference


@pytest.fixture(scope="module")
def routing_world(scenario):
    """(graph, hypergiant origin, all source ASNs) with a warm index."""
    graph = scenario.graph
    dst = scenario.hypergiant_asn("googol")
    compute_routes(graph, [dst])  # build the dense index once
    return graph, dst, sorted(graph.asns)


def test_bench_single_origin_routes(benchmark, routing_world):
    graph, dst, __ = routing_world
    table = benchmark(compute_routes, graph, [dst])
    assert dst in table


def test_bench_anycast_routes(benchmark, scenario, routing_world):
    graph, __, __srcs = routing_world
    origins = sorted({a.asn for a in scenario.registry.eyeballs()[:4]})
    table = benchmark(compute_routes, graph, origins)
    assert len(table) > 0


def test_bench_bulk_paths_for(benchmark, routing_world):
    graph, dst, sources = routing_world

    def sweep():
        return compute_routes(graph, [dst]).paths_for(sources)

    paths = benchmark(sweep)
    assert len(paths) == len(sources)


def test_bench_reference_implementation(benchmark, routing_world):
    """The pre-optimization oracle, timed for the speedup comparison."""
    graph, dst, __ = routing_world
    routes = benchmark.pedantic(_compute_routes_reference, args=(graph, [dst]),
                                rounds=3, iterations=1)
    assert dst in routes


def test_dense_kernel_at_least_3x_faster(routing_world):
    """Acceptance gate: >=3x single-origin speedup over the reference."""
    import time

    graph, dst, __ = routing_world
    start = time.perf_counter()
    for __r in range(10):
        compute_routes(graph, [dst])
    dense = (time.perf_counter() - start) / 10
    start = time.perf_counter()
    for __r in range(3):
        _compute_routes_reference(graph, [dst])
    reference = (time.perf_counter() - start) / 3
    assert reference / dense >= 3.0, (
        f"dense kernel only {reference / dense:.1f}x faster")


def test_cache_stays_bounded_under_anycast_sweep(scenario):
    """Acceptance gate: a 100-origin-set sweep keeps the LRU bounded."""
    sim = BgpSimulator(scenario.graph, max_cache_entries=32)
    asns = sorted(scenario.graph.asns)
    for i in range(100):
        origins = [asns[i % len(asns)], asns[(i * 7 + 1) % len(asns)]]
        sim.routes_to(origins)
    stats = sim.cache_stats()
    assert stats.entries <= 32
    assert stats.evictions > 0
    assert stats.misses >= 68
