"""Run-level key space: rank order, id stability, fill-order independence.

Every kernel of a run interns its node ids and ``(destination, avoided)``
keys in one shared :class:`~repro.routing.kernel.KeySpace`, so a key's
id depends on which kernel met it first.  The kernel is only sound if
that never shows: ids must stay stable as the space grows, ranks must
equal ``repr`` order after any insertion order, and kernels on a shared
space filled in an arbitrary order must behave exactly like kernels on
private spaces — same wire deltas at every settle, same digests, same
work counters — through initial convergence and membership churn.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import ASGraph, figure1_graph
from repro.routing.kernel import (
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    KeySpace,
    ReplayKernel,
    kernel_fixed_point,
)
from repro.sim.churn import evolved_graphs, random_churn_schedule
from repro.workloads import random_biconnected_graph

node_ids = st.one_of(st.text(max_size=3), st.integers(-20, 20))


def _ranked_nodes(space):
    """The space's nodes in rank order."""
    ranked = sorted(range(len(space.nodes)), key=space.rank.__getitem__)
    return [space.nodes[did] for did in ranked]


class TestRanks:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(node_ids, unique=True, max_size=25))
    def test_ranks_equal_repr_order_after_any_insertion_order(self, nodes):
        space = KeySpace()
        for count, node in enumerate(nodes, start=1):
            space.node_id(node)
            assert sorted(space.rank) == list(range(count))
            assert _ranked_nodes(space) == sorted(nodes[:count], key=repr)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(node_ids, unique=True, min_size=2, max_size=12), st.randoms())
    def test_avoid_keys_intern_their_nodes_in_rank_order(self, nodes, rng):
        space = KeySpace()
        keys = [(a, b) for a in nodes for b in nodes if a != b]
        rng.shuffle(keys)
        for key in keys:
            space.avoid_id(key)
        assert _ranked_nodes(space) == sorted(nodes, key=repr)

    def test_built_from_a_node_set_ids_equal_ranks(self):
        nodes = ["n10", "n02", "b", "n01", "a7"]
        space = KeySpace(nodes)
        assert space.rank == list(range(len(nodes)))
        assert space.nodes == sorted(nodes, key=repr)

    def test_join_appends_and_reranks(self):
        space = KeySpace(["n1", "n3"])
        assert space.node_id("n2") == 2  # appended id ...
        assert space.rank == [0, 2, 1]  # ... ranked between its peers


class TestIdStability:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(node_ids, unique=True, min_size=2, max_size=10),
        st.lists(node_ids, unique=True, max_size=10),
        st.randoms(),
    )
    def test_ids_stay_stable_as_the_space_grows(self, first, later, rng):
        space = KeySpace(first)
        node_seen = {node: space.node_id(node) for node in first}
        keys = [(a, b) for a in first for b in first if a != b]
        rng.shuffle(keys)
        aid_seen = {key: space.avoid_id(key) for key in keys}
        grown = first + [node for node in later if node not in node_seen]
        more = [(a, b) for a in grown for b in grown if a != b]
        rng.shuffle(more)
        for key in more:
            space.avoid_id(key)
        for node, did in node_seen.items():
            assert space.node_id(node) == did
            assert space.nodes[did] == node
        for key, aid in aid_seen.items():
            assert space.avoid_id(key) == aid
            assert space.avoid_keys[aid] == key
        for aid, (dest, avoided) in enumerate(space.avoid_keys):
            assert space.nodes[space.avoid_dest[aid]] == dest
            assert space.nodes[space.avoid_avoided[aid]] == avoided
            assert aid in space.dest_aids[space.avoid_dest[aid]]
        assert sum(len(aids) for aids in space.dest_aids) == len(space.avoid_keys)


def _prefilled_space(graph, rng, extra=()):
    """A space holding every node and avoidance key, in shuffled order."""
    nodes = list(graph.nodes) + list(extra)
    keys = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(nodes)
    rng.shuffle(keys)
    space = KeySpace()
    for node in nodes:
        space.node_id(node)
    for key in keys:
        space.avoid_id(key)
    return space


class _FillOrderTandem:
    """Kernels on one shuffled shared space vs kernels on private spaces.

    Synchronous rounds as in
    :func:`~repro.routing.kernel.kernel_fixed_point`; after every
    settle the two sides must emit identical deltas and hold identical
    digests and counters.  Joins and leaves follow the dynamic engine's
    kernel-level event application (a joiner bootstraps from the live
    declarations; its peers resend their full tables across the new
    links).
    """

    def __init__(self, graph, space):
        self.space = space
        self.order = sorted(graph.nodes, key=repr)
        self.costs = {node: graph.cost(node) for node in self.order}
        self.pairs = {}
        self.mailbox = {node: [] for node in self.order}
        for node in self.order:
            self._start(node, graph.neighbors(node))

    def _start(self, node, neighbors):
        pair = (
            ReplayKernel(node, neighbors, self.costs[node], keys=self.space),
            ReplayKernel(node, neighbors, self.costs[node]),
        )
        for kernel in pair:
            for other in sorted(self.costs, key=repr):
                kernel.note_cost_declaration(other, self.costs[other])
            kernel.reset_phase2()
            kernel.recompute_routes()
            kernel.recompute_avoidance()
            kernel.derive_pricing()
        self.pairs[node] = pair
        self.mailbox.setdefault(node, [])
        shared, private = pair
        route = shared.consume_route_delta()
        avoid = shared.consume_avoid_delta()
        assert (route, avoid) == (
            private.consume_route_delta(),
            private.consume_avoid_delta(),
        ), node
        self._post(node, KIND_RT_UPDATE, route)
        self._post(node, KIND_PRICE_UPDATE, avoid)

    def _post(self, src, kind, rows, to=None):
        if not rows:
            return
        for neighbor in self.pairs[src][0].neighbors if to is None else (to,):
            if neighbor in self.mailbox:
                self.mailbox[neighbor].append((kind, src, rows))

    def _settle(self, node):
        shared, private = self.pairs[node]
        deltas = shared.settle()
        assert deltas == private.settle(), node
        self.assert_node_in_sync(node)
        self._post(node, KIND_RT_UPDATE, deltas[0])
        self._post(node, KIND_PRICE_UPDATE, deltas[1])

    def assert_node_in_sync(self, node):
        shared, private = self.pairs[node]
        assert shared.full_digest() == private.full_digest(), node
        assert shared.computation_count == private.computation_count, node
        assert shared.stats.as_dict() == private.stats.as_dict(), node

    def converge(self, max_rounds=10_000):
        for _ in range(max_rounds):
            if not any(self.mailbox.values()):
                for node in self.pairs:
                    self.assert_node_in_sync(node)
                return
            inbox = self.mailbox
            self.mailbox = {node: [] for node in inbox}
            for node in sorted(inbox, key=repr):
                for kind, src, rows in inbox[node]:
                    for kernel in self.pairs[node]:
                        if kind == KIND_RT_UPDATE:
                            kernel.apply_route_delta(src, rows)
                        else:
                            kernel.apply_avoid_delta(src, rows)
                self._settle(node)
        raise AssertionError("fill-order tandem failed to converge")

    def leave(self, node):
        for peer in self.pairs[node][0].neighbors:
            for kernel in self.pairs[peer]:
                kernel.detach_neighbor(node)
        del self.pairs[node]
        del self.mailbox[node]
        del self.costs[node]
        for member in sorted(self.pairs, key=repr):
            for kernel in self.pairs[member]:
                kernel.retract_cost_declaration(node)

    def join(self, node, cost, peers):
        self.costs[node] = cost
        for member in sorted(self.pairs, key=repr):
            for kernel in self.pairs[member]:
                kernel.note_cost_declaration(node, cost)
        for peer in peers:
            for kernel in self.pairs[peer]:
                kernel.attach_neighbor(node)
            shared = self.pairs[peer][0]
            route_rows = tuple(
                (dest, entry.cost, entry.path)
                for dest in shared.routing.destinations
                if (entry := shared.routing.entry(dest)) is not None
            )
            avoid_rows = tuple(
                (key[0], key[1], entry.cost, entry.path)
                for key, entry in sorted(
                    shared.avoid.items(),
                    key=lambda kv: (repr(kv[0][0]), repr(kv[0][1])),
                )
            )
            self.mailbox.setdefault(node, [])
            self._post(peer, KIND_RT_UPDATE, route_rows, to=node)
            self._post(peer, KIND_PRICE_UPDATE, avoid_rows, to=node)
        self._start(node, peers)

    def kick(self, skip=()):
        for node in sorted(self.pairs, key=repr):
            if node not in skip:
                self._settle(node)

    def assert_fixed_point(self, graph):
        oracle = kernel_fixed_point(graph)
        assert sorted(oracle, key=repr) == sorted(self.pairs, key=repr)
        for node, kernel in oracle.items():
            assert self.pairs[node][0].full_digest() == kernel.full_digest(), node


class TestFillOrderIndependence:
    def test_random_graphs(self):
        for seed in (0, 1, 2):
            graph = random_biconnected_graph(10, random.Random(seed))
            space = _prefilled_space(graph, random.Random(100 + seed))
            net = _FillOrderTandem(graph, space)
            net.converge()
            net.assert_fixed_point(graph)

    def test_tie_heavy_unit_costs(self):
        base = random_biconnected_graph(10, random.Random(6))
        graph = ASGraph({node: 1.0 for node in base.nodes}, base.edges)
        net = _FillOrderTandem(graph, _prefilled_space(graph, random.Random(7)))
        net.converge()
        net.assert_fixed_point(graph)

    def test_figure1_on_an_empty_shared_space(self):
        # No prefill: the shared side interns on first sight, so its ids
        # follow the run's delivery order instead of any one kernel's.
        graph = figure1_graph()
        net = _FillOrderTandem(graph, KeySpace())
        net.converge()
        net.assert_fixed_point(graph)

    def test_churn_join_and_leave_schedule(self):
        graph = random_biconnected_graph(10, random.Random(21))
        schedule = random_churn_schedule(
            graph,
            random.Random(22),
            epochs=3,
            events_per_epoch=2,
            kinds=("join", "leave"),
            require="biconnected",
            seed=22,
        )
        joiners = [
            event.node
            for events in schedule.epochs
            for event in events
            if event.kind == "join"
        ]
        assert joiners, "schedule drew no join"
        net = _FillOrderTandem(graph, _prefilled_space(graph, random.Random(23)))
        net.converge()
        snapshots = evolved_graphs(graph, schedule)
        for events, snapshot in zip(schedule.epochs, snapshots):
            joined = set()
            for event in events:
                if event.kind == "leave":
                    net.leave(event.node)
                else:
                    peers = sorted(
                        {a if b == event.node else b for a, b in event.links}, key=repr
                    )
                    net.join(event.node, float(event.cost), peers)
                    joined.add(event.node)
            net.kick(skip=joined)
            net.converge()
            net.assert_fixed_point(snapshot)
