"""The routing engine must be bit-identical to the seed oracle.

The seed repository computed LCPs with a path-enumerating best-first
search.  The :class:`~repro.routing.engine.RoutingEngine` replaced it
with a predecessor-pointer Dijkstra plus single-source-tree memoization;
these tests keep the seed algorithm alive as a reference implementation
and assert byte-identical ``(path, cost)`` results — including the
``avoiding=`` restriction and the VCG payments derived from them — on
the paper's Figure 1 network and on randomized biconnected graphs.
"""

import heapq
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, RoutingError
from repro.routing import (
    PathCost,
    RoutingEngine,
    engine_for,
    figure1_graph,
    lcp_tree,
    lowest_cost_path,
    route_payments,
)
from repro.workloads import random_biconnected_graph

# ----------------------------------------------------------------------
# The seed oracle, verbatim: path-carrying best-first search.
# ----------------------------------------------------------------------


def _seed_path_key(cost, path):
    return (cost, len(path), tuple(repr(n) for n in path))


def seed_lowest_cost_path(graph, source, destination, avoiding=None):
    """The seed repository's reference LCP algorithm (kept for parity)."""
    if source == destination:
        return PathCost(path=(source,), cost=0.0)
    best = {}
    heap = [(_seed_path_key(0.0, (source,)), 0.0, (source,))]
    while heap:
        _, cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and _seed_path_key(*best[node]) <= _seed_path_key(
            cost, path
        ):
            continue
        best[node] = (cost, path)
        if node == destination:
            continue
        extension_cost = 0.0 if node == source else graph.cost(node)
        for neighbor in graph.neighbors(node):
            if neighbor == avoiding or neighbor in path:
                continue
            new_cost = cost + extension_cost
            new_path = path + (neighbor,)
            if neighbor in best and _seed_path_key(
                *best[neighbor]
            ) <= _seed_path_key(new_cost, new_path):
                continue
            heapq.heappush(
                heap, (_seed_path_key(new_cost, new_path), new_cost, new_path)
            )
    if destination not in best:
        raise RoutingError(f"no path from {source!r} to {destination!r}")
    cost, path = best[destination]
    return PathCost(path=path, cost=cost)


def _tie_heavy_graph(seed):
    """A random biconnected graph engineered to hit the tie-breaker.

    Every third graph allows zero transit costs and every fourth snaps
    costs to integers, so equal-cost paths (needing the hops and then
    the lexicographic rule) occur constantly.
    """
    rng = random.Random(seed)
    low = 0.0 if seed % 3 == 0 else 1.0
    graph = random_biconnected_graph(
        rng.randint(4, 9), rng, cost_range=(low, 4.0)
    )
    if seed % 4 == 0:
        graph = graph.with_costs(
            {node: float(int(graph.cost(node))) for node in graph.nodes}
        )
    return graph


# ----------------------------------------------------------------------
# Bit-identical parity with the seed algorithm
# ----------------------------------------------------------------------


class TestSeedParity:
    def test_figure1_exhaustive_with_avoidance(self):
        graph = figure1_graph()
        for source in graph.nodes:
            for destination in graph.nodes:
                if source == destination:
                    continue
                ours = lowest_cost_path(graph, source, destination)
                ref = seed_lowest_cost_path(graph, source, destination)
                assert ours.path == ref.path
                assert ours.cost == ref.cost
                for avoided in graph.nodes:
                    if avoided in (source, destination):
                        continue
                    ours = lowest_cost_path(
                        graph, source, destination, avoiding=avoided
                    )
                    ref = seed_lowest_cost_path(
                        graph, source, destination, avoiding=avoided
                    )
                    assert ours.path == ref.path
                    assert ours.cost == ref.cost

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_graphs_byte_identical(self, seed):
        """Property: (path, cost) equals the seed oracle on every pair
        of a random (tie-heavy) biconnected graph."""
        graph = _tie_heavy_graph(seed)
        for source in graph.nodes:
            for destination in graph.nodes:
                if source == destination:
                    continue
                ours = lowest_cost_path(graph, source, destination)
                ref = seed_lowest_cost_path(graph, source, destination)
                assert ours.path == ref.path
                assert ours.cost == ref.cost

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_graphs_avoidance_byte_identical(self, seed):
        """Property: LCP_{-k} agrees with the seed oracle, including
        which (source, destination, k) triples are disconnected."""
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0xA5A5)
        nodes = list(graph.nodes)
        for _ in range(12):
            source, destination, avoided = rng.sample(nodes, 3)
            try:
                ref = seed_lowest_cost_path(
                    graph, source, destination, avoiding=avoided
                )
            except RoutingError:
                with pytest.raises(RoutingError):
                    lowest_cost_path(
                        graph, source, destination, avoiding=avoided
                    )
                continue
            ours = lowest_cost_path(
                graph, source, destination, avoiding=avoided
            )
            assert ours.path == ref.path
            assert ours.cost == ref.cost

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    # Seeds whose payments differed in the last bit while cost queries
    # could be answered from a tree rooted at the other endpoint.
    @example(237)
    @example(743)
    @example(825)
    @example(1189)
    def test_random_graph_payments_byte_identical(self, seed):
        """Property: VCG payments equal the seed formula exactly."""
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0x5A5A)
        nodes = list(graph.nodes)
        for _ in range(6):
            source, destination = rng.sample(nodes, 2)
            bundle = route_payments(graph, source, destination)
            ref_route = seed_lowest_cost_path(graph, source, destination)
            assert bundle.route.path == ref_route.path
            assert bundle.route.cost == ref_route.cost
            assert set(bundle.payments) == set(ref_route.transit_nodes)
            for transit in ref_route.transit_nodes:
                expected = (
                    graph.cost(transit)
                    + seed_lowest_cost_path(
                        graph, source, destination, avoiding=transit
                    ).cost
                    - ref_route.cost
                )
                assert bundle.payments[transit] == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(237)
    def test_costs_ignore_reverse_rooted_trees(self, seed):
        """Property: ``cost()`` and ``detour_costs()`` return the same
        bits whether or not a tree rooted at the destination (full or
        cost-only) was cached first, and match the seed oracle."""
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0x3C3C)
        nodes = list(graph.nodes)
        for _ in range(6):
            source, destination, avoided = rng.sample(nodes, 3)
            full_reverse = RoutingEngine(graph)
            full_reverse.tree(destination, avoiding=avoided)
            labels_reverse = RoutingEngine(graph)
            labels_reverse.cost(destination, source, avoiding=avoided)
            expected = seed_lowest_cost_path(
                graph, source, destination, avoiding=avoided
            ).cost
            for engine in (RoutingEngine(graph), full_reverse, labels_reverse):
                cost = engine.cost(source, destination, avoiding=avoided)
                assert cost == expected
            for engine in (RoutingEngine(graph), full_reverse, labels_reverse):
                batch = engine.detour_costs(source, avoided, [destination])
                assert batch == {destination: expected}


# ----------------------------------------------------------------------
# Engine-specific behaviour: trees, caching, validation
# ----------------------------------------------------------------------


class TestEngineFacade:
    def test_tree_matches_pairwise_queries(self, fig1):
        engine = RoutingEngine(fig1)
        tree = engine.tree("Z")
        assert set(tree) == set(fig1.nodes) - {"Z"}
        for destination, entry in tree.items():
            ref = seed_lowest_cost_path(fig1, "Z", destination)
            assert entry.path == ref.path
            assert entry.cost == ref.cost

    def test_avoidance_tree_single_run(self, fig1):
        engine = RoutingEngine(fig1)
        tree = engine.tree("X", avoiding="C")
        assert engine.runs == 1
        assert all("C" not in entry.path for entry in tree.values())
        # Z is still reachable around C (biconnectivity).
        assert tree["Z"].path == ("X", "A", "Z")

    def test_trees_are_memoized(self, fig1):
        engine = RoutingEngine(fig1)
        first = engine.tree("X")
        again = engine.tree("X")
        assert first is again
        assert engine.runs == 1
        assert engine.hits == 1
        engine.clear_cache()
        assert engine.cached_trees == 0
        engine.tree("X")
        assert engine.runs == 2

    def test_engine_for_is_shared_per_graph(self, fig1):
        assert engine_for(fig1) is engine_for(fig1)
        other = figure1_graph()
        assert engine_for(other) is not engine_for(fig1)

    def test_engine_cache_does_not_pin_graphs(self):
        """Regression: the engine must not hold a strong reference to
        its graph, or the weak per-graph cache can never evict."""
        import gc
        import weakref

        graph = figure1_graph()
        engine_for(graph).tree("X")
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_tree_mapping_is_read_only(self, fig1):
        tree = engine_for(fig1).tree("Z")
        with pytest.raises(TypeError):
            tree["C"] = None

    def test_lcp_tree_supports_avoidance(self, fig1):
        tree = lcp_tree(fig1, "X", avoiding="C")
        assert "C" not in tree
        assert all("C" not in entry.path for entry in tree.values())

    def test_avoidance_drops_disconnected_destinations(self):
        from repro.routing import ASGraph

        # a-b-c chain plus a-c: avoiding b keeps everything reachable,
        # avoiding c on the (a, d) pair disconnects d.
        graph = ASGraph(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
        )
        tree = engine_for(graph).tree("a", avoiding="c")
        assert "d" not in tree
        with pytest.raises(RoutingError, match="no path"):
            lowest_cost_path(graph, "a", "d", avoiding="c")

    def test_validation_errors_match_seed_contract(self, fig1):
        engine = engine_for(fig1)
        with pytest.raises(GraphError):
            engine.path("ghost", "A")
        with pytest.raises(GraphError):
            engine.path("A", "ghost")
        with pytest.raises(GraphError):
            engine.tree("ghost")
        with pytest.raises(RoutingError, match="endpoint"):
            engine.path("X", "Z", avoiding="X")
        with pytest.raises(RoutingError):
            engine.tree("X", avoiding="X")
        trivial = engine.path("A", "A")
        assert trivial.path == ("A",) and trivial.cost == 0.0


# ----------------------------------------------------------------------
# Early-exit (partial) trees
# ----------------------------------------------------------------------


class TestPartialTrees:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_partial_matches_full_tree(self, seed):
        """Property: every partial-tree entry is bit-identical to the
        full tree's, for random target subsets on tie-heavy graphs."""
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0xBEEF)
        nodes = list(graph.nodes)
        source = rng.choice(nodes)
        targets = rng.sample(nodes, rng.randint(1, len(nodes)))
        engine = RoutingEngine(graph)
        partial = engine.partial_tree(source, targets)
        full = RoutingEngine(graph).tree(source)
        expected = {
            t for t in targets if t != source and t in full
        }
        assert set(partial) == expected
        for destination in partial:
            assert partial[destination].path == full[destination].path
            assert partial[destination].cost == full[destination].cost

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_partial_matches_full_avoidance_tree(self, seed):
        """Property: early exit agrees with the full LCP_{-k} tree,
        including which targets the restriction disconnects."""
        graph = _tie_heavy_graph(seed)
        rng = random.Random(seed ^ 0xFACE)
        nodes = list(graph.nodes)
        source, avoided = rng.sample(nodes, 2)
        targets = rng.sample(nodes, rng.randint(1, len(nodes) - 1))
        engine = RoutingEngine(graph)
        partial = engine.partial_tree(source, targets, avoiding=avoided)
        full = RoutingEngine(graph).tree(source, avoiding=avoided)
        expected = {
            t
            for t in targets
            if t not in (source, avoided) and t in full
        }
        assert set(partial) == expected
        for destination in partial:
            assert partial[destination].path == full[destination].path
            assert partial[destination].cost == full[destination].cost

    def test_early_exit_settles_fewer_nodes(self):
        """On a long ring, stopping at a close target must not pay for
        the whole tree: the near side settles, the far side does not."""
        graph = ring_for_partial(24)
        engine = RoutingEngine(graph)
        near = graph.nodes[1]
        partial = engine.partial_tree(graph.nodes[0], (near,))
        assert set(partial) == {near}
        assert engine.partial_runs == 1
        # Early exit: only a handful of the 24 nodes ever settled.
        assert engine.settled <= 4
        # The full tree is a separate computation, not the cached partial.
        full = engine.tree(graph.nodes[0])
        assert len(full) == 23
        assert engine.runs == 2
        assert engine.settled >= 24

    def test_partial_results_are_cached(self, fig1):
        engine = RoutingEngine(fig1)
        one = engine.partial_tree("X", ("Z",))
        two = engine.partial_tree("X", ("Z",))
        assert one is two
        assert engine.runs == 1 and engine.hits == 1

    def test_full_tree_serves_partial_queries(self, fig1):
        engine = RoutingEngine(fig1)
        full = engine.tree("X")
        partial = engine.partial_tree("X", ("Z", "D"))
        assert engine.runs == 1  # no second Dijkstra
        assert set(partial) == {"Z", "D"}
        assert partial["Z"].path == full["Z"].path

    def test_clear_cache_drops_partials(self, fig1):
        engine = RoutingEngine(fig1)
        engine.partial_tree("X", ("Z",))
        engine.clear_cache()
        engine.partial_tree("X", ("Z",))
        assert engine.runs == 2

    def test_source_and_avoided_targets_are_skipped(self, fig1):
        engine = RoutingEngine(fig1)
        partial = engine.partial_tree("X", ("X", "C", "Z"), avoiding="C")
        assert set(partial) == {"Z"}
        assert engine.partial_tree("X", ("X",)) == {}

    def test_validation_matches_tree_contract(self, fig1):
        engine = RoutingEngine(fig1)
        with pytest.raises(GraphError):
            engine.partial_tree("ghost", ("A",))
        with pytest.raises(GraphError):
            engine.partial_tree("A", ("ghost",))
        with pytest.raises(GraphError):
            engine.partial_tree("A", ("B",), avoiding="ghost")
        with pytest.raises(RoutingError):
            engine.partial_tree("A", ("B",), avoiding="A")


def ring_for_partial(count):
    """A unit-cost ring big enough to make early exit observable."""
    from repro.routing import ASGraph

    names = [f"r{i:02d}" for i in range(count)]
    return ASGraph(
        {name: 1.0 for name in names},
        [(names[i], names[(i + 1) % count]) for i in range(count)],
    )
