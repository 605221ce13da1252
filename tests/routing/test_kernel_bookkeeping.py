"""Memoized table digests and the entry-time avoidance rescan rule.

* DATA2/DATA3* cache ``stable_digest()`` and drop the cache in every
  mutator; over any sequence of ``update``/``remove``/``set_price``/
  ``clear_destination`` the memo must equal a fresh hash of the table.
* When a destination enters a kernel's universe, only the avoidance
  keys whose offers were stored while it was outside are rescanned;
  keys first offered after entry go through the fused ingest.  The
  explicit scenarios below store avoid rows for a destination *before*
  any route row for it (frozen offers), then let the route row arrive,
  and require ``settle()`` to land exactly where a full rescan and the
  pure-kernel fixed point land — also for a destination that leaves and
  re-enters.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.routing.tables as tables_module
from repro.routing import PricingTable, RouteEntry, RoutingTable
from repro.routing.kernel import KeySpace, ReplayKernel, kernel_fixed_point
from repro.sim.crypto import stable_hash
from repro.workloads import random_biconnected_graph

DESTS = ("a", "b", "c", "d")
dests = st.sampled_from(DESTS)
costs = st.floats(0.0, 5.0, allow_nan=False).map(lambda c: round(c, 1))

route_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), dests, costs, st.lists(dests, max_size=3)),
        st.tuples(st.just("remove"), dests),
    ),
    max_size=40,
)
price_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set_price"),
            dests,
            dests,
            costs,
            st.frozensets(dests, max_size=2),
        ),
        st.tuples(st.just("clear_destination"), dests),
    ),
    max_size=40,
)


class TestDigestMemo:
    @settings(max_examples=200, deadline=None)
    @given(route_ops)
    def test_routing_memo_tracks_every_mutation(self, ops):
        table = RoutingTable("o")
        assert table.stable_digest() == stable_hash(table.as_dict())
        for op in ops:
            if op[0] == "update":
                _, dest, cost, path = op
                table.update(dest, RouteEntry(cost=cost, path=("o", *path, dest)))
            else:
                table.remove(op[1])
            assert table.stable_digest() == stable_hash(table.as_dict())

    @settings(max_examples=200, deadline=None)
    @given(price_ops)
    def test_pricing_memo_tracks_every_mutation(self, ops):
        table = PricingTable("o")
        assert table.stable_digest() == stable_hash(table.as_dict())
        for op in ops:
            if op[0] == "set_price":
                _, dest, transit, price, tag = op
                table.set_price(dest, transit, price, tag)
            else:
                table.clear_destination(op[1])
            assert table.stable_digest() == stable_hash(table.as_dict())

    def test_unchanged_tables_hash_once(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return stable_hash(value)

        monkeypatch.setattr(tables_module, "stable_hash", counting)
        routing, pricing = RoutingTable("o"), PricingTable("o")
        routing.update("a", RouteEntry(cost=1.0, path=("o", "b", "a")))
        pricing.set_price("a", "b", 2.0, frozenset({"b"}))
        for _ in range(3):
            routing.stable_digest()
            pricing.stable_digest()
        assert len(calls) == 2
        # No-op mutators keep the memo; real ones drop it.
        routing.update("a", RouteEntry(cost=1.0, path=("o", "b", "a")))
        routing.remove("zz")
        pricing.set_price("a", "b", 2.0, frozenset({"b"}))
        pricing.clear_destination("zz")
        routing.stable_digest()
        pricing.stable_digest()
        assert len(calls) == 2
        routing.remove("a")
        pricing.clear_destination("a")
        routing.stable_digest()
        pricing.stable_digest()
        assert len(calls) == 4


def _avoid_digest(kernel):
    return stable_hash({key: (e.cost, e.path) for key, e in kernel.avoid.items()})


def _route_rows(kernel):
    return tuple(
        (dest, entry.cost, entry.path)
        for dest in kernel.routing.destinations
        if (entry := kernel.routing.entry(dest)) is not None
    )


def _avoid_rows(kernel):
    return tuple(
        (key[0], key[1], entry.cost, entry.path)
        for key, entry in sorted(
            kernel.avoid.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
        )
    )


class _Twins:
    """One owner's kernel fed an op stream twice: settled vs full rescan."""

    def __init__(self, graph, owner, keys):
        self.kernels = []
        for space in (keys, None):
            kernel = ReplayKernel(
                owner, graph.neighbors(owner), graph.cost(owner), keys=space
            )
            for node in sorted(graph.nodes, key=repr):
                kernel.note_cost_declaration(node, graph.cost(node))
            kernel.reset_phase2()
            kernel.recompute_routes()
            kernel.recompute_avoidance()
            kernel.derive_pricing()
            kernel.consume_route_delta()
            kernel.consume_avoid_delta()
            self.kernels.append(kernel)

    def route(self, src, rows):
        for kernel in self.kernels:
            kernel.apply_route_delta(src, rows)

    def avoid(self, src, rows):
        for kernel in self.kernels:
            kernel.apply_avoid_delta(src, rows)

    def settle_and_compare(self):
        settled, full = self.kernels
        settled.settle()
        full.recompute_routes()
        full.recompute_avoidance()
        full.derive_pricing()
        assert settled.routing_digest() == full.routing_digest()
        assert _avoid_digest(settled) == _avoid_digest(full)
        assert settled.pricing_digest() == full.pricing_digest()
        # Nothing is left for a full rescan of the settled kernel to do.
        assert not settled.recompute_avoidance()
        assert _avoid_digest(settled) == _avoid_digest(full)
        return settled


def _entry_cases(graph):
    """(owner, non-neighbour destination) pairs of a graph."""
    for owner in sorted(graph.nodes, key=repr):
        near = set(graph.neighbors(owner))
        for dest in sorted(graph.nodes, key=repr):
            if dest != owner and dest not in near:
                yield owner, dest


class TestEntryTimeRescans:
    def _graph(self):
        return random_biconnected_graph(9, random.Random(11))

    def test_frozen_offers_settle_to_the_full_rescan_and_fixed_point(self):
        graph = self._graph()
        oracle = kernel_fixed_point(graph)
        space = KeySpace(graph.nodes)
        cases = list(_entry_cases(graph))
        assert cases
        for owner, dest in cases:
            twins = _Twins(graph, owner, space)
            neighbors = sorted(graph.neighbors(owner), key=repr)
            late = neighbors[len(neighbors) // 2 :]
            rows = {src: _avoid_rows(oracle[src]) for src in neighbors}
            # Rows for ``dest`` first, while it is outside the universe.
            for src in neighbors:
                twins.avoid(src, tuple(r for r in rows[src] if r[0] == dest))
            # Early neighbours' other avoid rows arrive before any route
            # row too; late neighbours' arrive after (the fused path).
            for src in neighbors:
                if src not in late:
                    twins.avoid(src, tuple(r for r in rows[src] if r[0] != dest))
            for src in neighbors:
                twins.route(src, _route_rows(oracle[src]))
            for src in late:
                twins.avoid(src, tuple(r for r in rows[src] if r[0] != dest))
            settled = twins.settle_and_compare()
            assert settled.routing_digest() == oracle[owner].routing_digest(), owner
            assert _avoid_digest(settled) == _avoid_digest(oracle[owner]), owner
            assert settled.pricing_digest() == oracle[owner].pricing_digest(), owner

    def test_destination_that_leaves_and_reenters(self):
        graph = self._graph()
        oracle = kernel_fixed_point(graph)
        space = KeySpace(graph.nodes)
        for owner, dest in _entry_cases(graph):
            twins = _Twins(graph, owner, space)
            neighbors = sorted(graph.neighbors(owner), key=repr)
            for src in neighbors:
                twins.route(src, _route_rows(oracle[src]))
                twins.avoid(src, _avoid_rows(oracle[src]))
            twins.settle_and_compare()
            dest_rows = {
                src: tuple(r for r in _avoid_rows(oracle[src]) if r[0] == dest)
                for src in neighbors
            }
            # Every neighbour withdraws its route to ``dest``: it leaves.
            for src in neighbors:
                twins.route(src, ((dest, None, ()),))
            left = twins.settle_and_compare()
            assert left.routing.entry(dest) is None
            assert not any(key[0] == dest for key in left.avoid)
            # While outside: withdraw and re-offer its avoid rows, so the
            # stored offers differ in history from the settled state.
            for src in neighbors:
                withdrawn = tuple((r[0], r[1], None, ()) for r in dest_rows[src])
                twins.avoid(src, withdrawn)
                twins.avoid(src, dest_rows[src])
            twins.settle_and_compare()
            # Re-entry: the route rows come back.
            for src in neighbors:
                twins.route(
                    src, tuple(r for r in _route_rows(oracle[src]) if r[0] == dest)
                )
            settled = twins.settle_and_compare()
            assert settled.full_digest() == oracle[owner].full_digest(), owner
            assert _avoid_digest(settled) == _avoid_digest(oracle[owner]), owner

    def test_entry_rescans_only_the_frozen_keys(self):
        # Route rows first, then every avoid row: nothing was frozen at
        # entry, so the settle performs no avoidance rescan at all.
        graph = self._graph()
        oracle = kernel_fixed_point(graph)
        owner, _dest = next(_entry_cases(graph))
        twins = _Twins(graph, owner, KeySpace(graph.nodes))
        settled = twins.kernels[0]
        before = settled.stats.avoid_rescans
        neighbors = sorted(graph.neighbors(owner), key=repr)
        for src in neighbors:
            twins.route(src, _route_rows(oracle[src]))
        for src in neighbors:
            twins.avoid(src, _avoid_rows(oracle[src]))
        settled.settle()
        assert settled.stats.avoid_rescans == before
        assert settled.full_digest() == oracle[owner].full_digest()
        assert _avoid_digest(settled) == _avoid_digest(oracle[owner])
