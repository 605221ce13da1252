"""Tests for overhead metrics and the simulator's drop markers."""

from repro.obs.events import BUS, KIND_MARKER
from repro.sim import MetricsRegistry, NetworkTopology, ProtocolNode, Simulator


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = MetricsRegistry()
        metrics.record_send("a", payload_units=3, kind="rt-update")
        metrics.record_send("a", payload_units=2, kind="price-update")
        metrics.record_send("a", payload_units=0, kind="rt-update")
        metrics.record_receive("b")
        metrics.record_computation("a")
        metrics.record_computation("a", as_checker=True)
        assert metrics.node("a").messages_sent == 3
        assert metrics.node("a").payload_units_sent == 5
        assert metrics.messages_of_kind("rt-update") == 2
        assert metrics.messages_of_kind("price-update") == 1
        assert metrics.messages_of_kind("bank-report") == 0
        assert metrics.node("b").messages_received == 1
        assert metrics.node("a").computations == 1
        assert metrics.node("a").checker_computations == 1

    def test_aggregates(self):
        metrics = MetricsRegistry()
        metrics.record_send("a", 2)
        metrics.record_send("b", 4)
        metrics.record_computation("a")
        summary = metrics.summary()
        assert summary["total_messages"] == 2
        assert summary["total_payload_units"] == 6
        assert summary["total_computations"] == 1
        assert summary["total_checker_computations"] == 0

    def test_as_dict(self):
        metrics = MetricsRegistry()
        metrics.record_send("a")
        d = metrics.node("a").as_dict()
        assert d["messages_sent"] == 1

    def test_per_node_view_is_copy(self):
        metrics = MetricsRegistry()
        metrics.record_send("a")
        view = metrics.per_node
        view.clear()
        assert metrics.node("a").messages_sent == 1


class TestDropMarker:
    def test_inbound_filter_drop_emits_one_marker(self):
        class Sink(ProtocolNode):
            def on_data(self, message):
                raise AssertionError("a dropped message was dispatched")

        topo = NetworkTopology.from_edges([("a", "b")])
        sim = Simulator(topo)
        a, b = ProtocolNode("a"), Sink("b")
        b.inbound = lambda message: None
        sim.add_node(a)
        sim.add_node(b)
        with BUS.capture() as sink:
            a.send("b", "data")
            sim.run_until_quiescent()
        drops = [
            e for e in sink.events
            if e.kind == KIND_MARKER and e.name == "sim.drop"
        ]
        assert len(drops) == 1
        assert drops[0].attrs == {
            "node": "b", "kind": "data", "reason": "inbound-filter"
        }
        # The message was sent and delivered before the filter dropped it.
        assert sim.metrics.node("a").messages_sent == 1
        assert sim.metrics.node("b").messages_received == 1

    def test_drop_without_sink_is_silent(self):
        topo = NetworkTopology.from_edges([("a", "b")])
        sim = Simulator(topo)
        a = ProtocolNode("a")
        a.outbound = lambda message: None
        sim.add_node(a)
        sim.add_node(ProtocolNode("b"))
        assert not BUS.enabled
        a.send("b", "data")
        sim.run_until_quiescent()
        assert sim.metrics.total_messages == 0
