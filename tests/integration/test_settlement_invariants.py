"""Property tests on settlement arithmetic across deviation runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faithful import (
    DEVIATION_CATALOGUE,
    run_deviation,
)
from repro.workloads import random_biconnected_graph, uniform_all_pairs

EXECUTION_DEVIATIONS = (
    "charge-understate",
    "payment-underreport",
    "packet-drop",
    "misroute",
    "transit-misroute",
)


class TestSettlementInvariants:
    @settings(max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(EXECUTION_DEVIATIONS),
    )
    def test_invariants_hold_under_any_execution_deviation(
        self, seed, deviation
    ):
        """For every execution-phase deviation run:

        * innocent nodes never pay penalties;
        * enforced charges never exceed received payments plus the
          deviator's penalties (money is not created);
        * every node's utility decomposes exactly into the four
          settlement components.
        """
        rng = random.Random(seed)
        graph = random_biconnected_graph(rng.randint(4, 6), rng)
        deviator = rng.choice(list(graph.nodes))
        result = run_deviation(
            graph,
            uniform_all_pairs(graph),
            node=deviator,
            spec=DEVIATION_CATALOGUE[deviation],
        )
        assert result.progressed  # execution frauds pass construction

        for node in graph.nodes:
            if node != deviator:
                assert result.penalties[node] == 0.0
            assert result.utilities[node] == pytest.approx(
                result.received[node]
                - result.charged[node]
                - result.penalties[node]
                - result.incurred[node]
            )

        total_charged = sum(result.charged.values())
        total_received = sum(result.received.values())
        total_penalties = sum(result.penalties.values())
        # Charges fund transit payments; reimbursements to innocent
        # off-path carriers are funded from the deviator's penalties.
        assert total_received <= total_charged + total_penalties + 1e-6

    def test_faithful_baseline_is_exactly_balanced(self):
        rng = random.Random(3)
        graph = random_biconnected_graph(5, rng)
        result = run_deviation(graph, uniform_all_pairs(graph))
        assert sum(result.received.values()) == pytest.approx(
            sum(result.charged.values())
        )
        assert sum(result.penalties.values()) == 0.0
