"""Section 5: antisocial objectives escape the faithfulness guarantee.

"Certain nodes may make worsening the outcome of other nodes the main
goal besides maximizing their own utility.  In the real world,
companies are willing to take a short-term loss to drive competitors
out of business."

The faithful specification makes every catalogued deviation *selfishly*
losing (Theorem 1), but a spiteful objective u_i - spite * sum(u_-i)
can still rate network-torching deviations positively: catch-and-punish
deters the rational, not the vindictive.
"""

import pytest

from repro.experiments import deviation_table
from repro.routing import figure1_graph
from repro.workloads import uniform_all_pairs

GRAPH = figure1_graph()
TRAFFIC = uniform_all_pairs(GRAPH)


@pytest.fixture(scope="module")
def table():
    return deviation_table(
        GRAPH,
        TRAFFIC,
        nodes=("C",),
        deviations=("false-route-announce", "payment-underreport", "cost-lie"),
    )


class TestSelfishVsAntisocial:
    def test_selfish_gains_all_non_positive(self, table):
        """Theorem 1's guarantee: rational nodes have nothing to gain."""
        assert table.is_faithful()

    def test_construction_torching_attracts_the_spiteful(self, table):
        """Forcing non-progress costs the deviator ~750 but costs the
        other five nodes ~1000 each: spite=1 rates it positive."""
        outcome = next(
            o for o in table.outcomes if o.deviation == "false-route-announce"
        )
        assert outcome.gain < 0  # selfishly terrible
        assert outcome.others_gain < 0  # everyone else suffers more
        assert outcome.antisocial_gain(spite=1.0) > 0  # spite pays

    def test_mild_spite_is_still_deterred(self, table):
        """With a small spite coefficient the penalties still dominate:
        the guarantee degrades gradually, not at spite=0+."""
        outcome = next(
            o for o in table.outcomes if o.deviation == "payment-underreport"
        )
        # Settlement-phase fraud hurts the deviator (~-15.5) while
        # barely touching others; even spite=0.5 cannot make it pay.
        assert outcome.antisocial_gain(spite=0.5) < 0

    def test_welfare_accounting_consistent(self, table):
        for outcome in table.outcomes:
            reconstructed = outcome.gain + outcome.others_gain
            assert reconstructed == pytest.approx(
                outcome.deviant_total - outcome.baseline_total
            )
