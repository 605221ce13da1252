"""Tests for the deviation experiments (protocol <-> analysis glue)."""

import random

import pytest

from repro.errors import MechanismError
from repro.experiments import (
    deviation_table,
    make_runner,
    routing_distributed_mechanism,
)
from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    PlainFPSSProtocol,
)
from repro.mechanism import TypeProfile, check_ic, check_strong_ac, check_strong_cc
from repro.workloads import ring_graph, uniform_all_pairs


@pytest.fixture(scope="module")
def setup():
    graph = ring_graph(4, random.Random(11))
    return graph, uniform_all_pairs(graph)


class TestRunners:
    def test_faithful_runner_baseline(self, setup):
        graph, traffic = setup
        runner = make_runner(graph, traffic)
        utilities, detected = runner(None, None)
        assert set(utilities) == set(graph.nodes)
        assert not detected

    def test_faithful_runner_detects(self, setup):
        graph, traffic = setup
        runner = make_runner(graph, traffic)
        _, detected = runner(graph.nodes[0], "payment-underreport")
        assert detected

    def test_plain_runner_never_detects(self, setup):
        graph, traffic = setup
        runner = make_runner(graph, traffic, faithful=False)
        _, detected = runner(graph.nodes[0], "payment-underreport")
        assert not detected

    @pytest.mark.parametrize(
        "faithful, protocol",
        [(True, FaithfulFPSSProtocol), (False, PlainFPSSProtocol)],
    )
    def test_baseline_is_the_obedient_protocol_run(
        self, setup, faithful, protocol
    ):
        graph, traffic = setup
        utilities, detected = make_runner(graph, traffic, faithful)(None, None)
        assert utilities == protocol(graph, traffic).run().utilities
        assert not detected


class TestDeviationTables:
    def test_faithful_table_is_faithful(self, setup):
        graph, traffic = setup
        table = deviation_table(
            graph,
            traffic,
            nodes=[graph.nodes[0]],
            deviations=("payment-underreport", "packet-drop", "cost-lie"),
        )
        assert table.is_faithful()
        assert table.detection_rate(excluding=("cost-lie",)) == 1.0

    def test_plain_table_shows_gains(self, setup):
        graph, traffic = setup
        table = deviation_table(
            graph,
            traffic,
            faithful=False,
            nodes=[graph.nodes[0]],
            deviations=("payment-underreport",),
        )
        assert not table.is_faithful()
        assert table.max_gain > 0

    def test_plain_default_explores_plain_capable_entries_only(self, setup):
        graph, traffic = setup
        table = deviation_table(
            graph, traffic, faithful=False, nodes=[graph.nodes[0]]
        )
        explored = list(table.by_deviation())
        assert explored == [
            name
            for name, spec in DEVIATION_CATALOGUE.items()
            if spec.plain_capable
        ]
        assert "copy-drop" not in explored
        assert not any(outcome.detected for outcome in table.outcomes)


class TestDistributedMechanismPackaging:
    @pytest.mark.parametrize("faithful", [True, False])
    def test_default_strategy_space_follows_the_flavour(self, setup, faithful):
        graph, traffic = setup
        dm = routing_distributed_mechanism(graph, traffic, faithful=faithful)
        for node in graph.nodes:
            names = [s.name for s in dm.strategies_of(node)]
            assert names[0] == "suggested"
            assert names[1:] == [
                name
                for name, spec in DEVIATION_CATALOGUE.items()
                if faithful or spec.plain_capable
            ]

    def test_compatibility_checks_pass_on_faithful(self, setup):
        graph, traffic = setup
        dm = routing_distributed_mechanism(
            graph,
            traffic,
            deviations=("cost-lie", "copy-drop", "payment-underreport"),
        )
        types = [TypeProfile({n: graph.cost(n) for n in graph.nodes})]
        assert check_ic(dm, types).holds
        assert check_strong_cc(dm, types).holds
        assert check_strong_ac(dm, types).holds

    def test_plain_mechanism_fails_strong_ac(self, setup):
        graph, traffic = setup
        dm = routing_distributed_mechanism(
            graph,
            traffic,
            deviations=("payment-underreport",),
            faithful=False,
        )
        types = [TypeProfile({n: graph.cost(n) for n in graph.nodes})]
        assert not check_strong_ac(dm, types).holds

    def test_types_quantifier_changes_costs(self, setup):
        graph, traffic = setup
        dm = routing_distributed_mechanism(
            graph, traffic, deviations=("cost-lie",)
        )
        doubled = TypeProfile({n: graph.cost(n) * 2 for n in graph.nodes})
        run = dm.run_suggested(doubled)
        base = dm.run_suggested(
            TypeProfile({n: graph.cost(n) for n in graph.nodes})
        )
        assert run.utilities != base.utilities

    def test_joint_deviations_rejected_by_engine(self, setup):
        graph, traffic = setup
        dm = routing_distributed_mechanism(
            graph, traffic, deviations=("cost-lie",)
        )
        types = TypeProfile({n: graph.cost(n) for n in graph.nodes})
        nodes = graph.nodes
        lie = dm.strategies_of(nodes[0])[1]
        with pytest.raises(MechanismError, match="unilateral"):
            dm.run({nodes[0]: lie, nodes[1]: lie}, types)
