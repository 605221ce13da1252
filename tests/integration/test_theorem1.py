"""Integration: Theorem 1 on the full stack.

"The extended FPSS specification is a faithful implementation of the
VCG-based shortest-path interdomain routing mechanism."  These tests
exercise the complete pipeline — simulator, distributed protocol,
checkers, bank, settlement, deviation explorer — on the paper's own
network and on random biconnected graphs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import deviation_table, routing_distributed_mechanism
from repro.faithful import DEVIATION_CATALOGUE
from repro.mechanism import (
    TypeProfile,
    audit_strategyproofness,
    TypeSpace,
    proposition2_verdict,
)
from repro.routing import figure1_graph
from repro.workloads import random_biconnected_graph, uniform_all_pairs

#: A fast but representative deviation subset for sweep tests.
FAST_DEVIATIONS = (
    "cost-lie",
    "false-route-announce",
    "copy-alter",
    "payment-underreport",
    "packet-drop",
)


@pytest.mark.slow
class TestTheorem1OnFigure1:
    """Full deviation grid on Figure 1 (~25s): slow tier.

    The random-graph faithfulness property below keeps Theorem-1
    coverage in the tier-1 suite.
    """

    @pytest.fixture(scope="class")
    def table(self):
        graph = figure1_graph()
        return deviation_table(graph, uniform_all_pairs(graph))

    def test_no_deviation_profits(self, table):
        assert table.is_faithful()
        assert table.max_gain <= 1e-9

    def test_every_detectable_deviation_detected(self, table):
        assert table.detection_rate(excluding=("cost-lie",)) == 1.0

    def test_full_grid_was_explored(self, table):
        graph = figure1_graph()
        assert len(table.outcomes) == len(graph.nodes) * len(
            DEVIATION_CATALOGUE
        )


class TestPlainCounterpart:
    def test_plain_fpss_is_not_faithful(self):
        graph = figure1_graph()
        table = deviation_table(
            graph,
            uniform_all_pairs(graph),
            faithful=False,
            nodes=("C", "D"),
            deviations=(
                "false-route-announce",
                "charge-understate",
                "payment-underreport",
                "packet-drop",
            ),
        )
        assert not table.is_faithful()
        names = {o.deviation for o in table.profitable}
        assert "payment-underreport" in names


class TestTheorem1OnRandomGraphs:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000))
    def test_faithfulness_property(self, seed):
        """Property: on random biconnected graphs, a random node
        running any fast-catalogue deviation never profits against the
        faithful specification."""
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 6), rng)
        deviator = rng.choice(list(graph.nodes))
        table = deviation_table(
            graph,
            uniform_all_pairs(graph),
            nodes=[deviator],
            deviations=FAST_DEVIATIONS,
        )
        assert table.is_faithful()
        assert table.detection_rate(excluding=("cost-lie",)) == 1.0


class TestProposition2Pipeline:
    """The full Proposition-2 argument, executed end to end."""

    def test_verdict_faithful(self):
        rng = random.Random(5)
        graph = random_biconnected_graph(4, rng)
        traffic = uniform_all_pairs(graph)
        dm = routing_distributed_mechanism(
            graph, traffic, deviations=FAST_DEVIATIONS
        )

        # Premise 1: the corresponding centralized mechanism (VCG
        # transit pricing) is strategyproof; audited over cost
        # perturbations of this very graph.
        from repro.mechanism import (
            DirectRevelationMechanism,
            Outcome,
            UtilityFunction,
        )
        from repro.routing import economics_under_traffic

        spaces = {
            node: TypeSpace(
                values=(graph.cost(node), graph.cost(node) * 2.0)
            )
            for node in graph.nodes
        }

        def outcome_rule(reports):
            declared = graph.with_costs(
                {n: reports.type_of(n) for n in reports.agents}
            )
            economics = economics_under_traffic(
                declared, declared, traffic, payment_rule="vcg"
            )
            # Transfers carry the money flows; the *volume transited*
            # (recoverable as true_transit_cost / declared cost) rides
            # in the decision so the valuation can charge each agent
            # its TRUE cost for the traffic the reports routed over it.
            volumes = {
                n: (
                    economics[n].true_transit_cost / declared.cost(n)
                    if declared.cost(n) > 0
                    else 0.0
                )
                for n in graph.nodes
            }
            return Outcome(
                decision=volumes,
                transfers={
                    n: economics[n].received - economics[n].paid
                    for n in graph.nodes
                },
            )

        def valuation(agent, decision, true_type):
            return -float(true_type) * decision[agent]

        center = DirectRevelationMechanism(
            outcome_rule, spaces, UtilityFunction(valuation), name="fpss-center"
        )
        sp_report = audit_strategyproofness(center)

        # Premises 2-3 + conclusion, via the generic verifier.
        types = [TypeProfile({n: graph.cost(n) for n in graph.nodes})]
        verdict = proposition2_verdict(dm, types, sp_report)
        assert verdict.faithful, verdict.reasons
