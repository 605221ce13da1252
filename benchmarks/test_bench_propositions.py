"""E9 — Propositions 1 and 2, validated by enumeration.

Proposition 1: IC + CC + AC (same equilibrium) => faithful.
Proposition 2: strategyproof center + strong-CC + strong-AC => faithful.

The harness checks both implications on (a) exhaustively enumerated
synthetic mechanisms over a grid of per-class deviation gains, and
(b) the real routing mechanism.  Constructed counterexamples (a
non-strategyproof naive-pricing center; a joint-deviation leak) must
be correctly rejected.
"""

import itertools

from repro.analysis import render_table
from repro.experiments import routing_distributed_mechanism
from repro.mechanism import (
    DistributedMechanism,
    DistributedStrategy,
    MechanismRun,
    TypeProfile,
    check_ex_post_nash,
    proposition1_verdict,
)
from repro.specs import ActionClass
from repro.workloads import ring_graph, uniform_all_pairs

IR = ActionClass.INFORMATION_REVELATION
MP = ActionClass.MESSAGE_PASSING
COMP = ActionClass.COMPUTATION

SUGGESTED = DistributedStrategy(name="suggested")
STRATEGIES = (
    SUGGESTED,
    DistributedStrategy(name="lie", deviation_classes=frozenset({IR})),
    DistributedStrategy(name="drop", deviation_classes=frozenset({MP})),
    DistributedStrategy(name="corrupt", deviation_classes=frozenset({COMP})),
    DistributedStrategy(
        name="joint", deviation_classes=frozenset({MP, COMP})
    ),
)


def synthetic_mechanism(gains):
    def engine(assignment, types):
        return MechanismRun(
            utilities={
                agent: 10.0 + gains.get(strategy.name, 0.0)
                for agent, strategy in assignment.items()
            }
        )

    return DistributedMechanism(
        engine,
        {"a": STRATEGIES, "b": STRATEGIES},
        {"a": SUGGESTED, "b": SUGGESTED},
    )


def enumerate_implication_grid():
    """Check Prop 1's implication over a grid of deviation payoffs.

    For every assignment of gains in {-1, 0, +1} to the four deviation
    strategies, the verdict's premise/conclusion bookkeeping must be
    internally consistent: whenever IC, CC and AC hold over the *full*
    strategy space (joint deviations included), the suggested profile
    is an ex post Nash equilibrium.
    """
    profiles = [TypeProfile({"a": 0, "b": 0})]
    checked = 0
    confirmed = 0
    for combo in itertools.product((-1.0, 0.0, 1.0), repeat=4):
        gains = dict(zip(("lie", "drop", "corrupt", "joint"), combo))
        mechanism = synthetic_mechanism(gains)
        verdict = proposition1_verdict(mechanism, profiles)
        full = check_ex_post_nash(mechanism, profiles)
        checked += 1
        # Internal consistency: verdict.faithful iff full check holds.
        assert verdict.faithful == full.holds
        # The implication direction with the strong reading of the
        # premise: all catalogued deviations unprofitable => faithful.
        if all(gain <= 0 for gain in combo):
            assert verdict.faithful
            confirmed += 1
        # Counterexample direction: any profitable deviation anywhere
        # must defeat faithfulness.
        if any(gain > 0 for gain in combo):
            assert not verdict.faithful
    return checked, confirmed


def test_bench_proposition1_grid(benchmark):
    checked, confirmed = benchmark.pedantic(
        enumerate_implication_grid, rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["mechanisms enumerated", "faithful instances confirmed"],
            [[checked, confirmed]],
            title="E9: Proposition 1 implication grid (3^4 mechanisms)",
        )
    )
    assert checked == 81


def test_bench_proposition2_routing(benchmark):
    """Prop 2's premises and conclusion on the real routing stack."""
    import random

    graph = ring_graph(4, random.Random(11))
    traffic = uniform_all_pairs(graph)

    def verdict():
        from repro.mechanism import (
            check_ic,
            check_strong_ac,
            check_strong_cc,
        )

        dm = routing_distributed_mechanism(
            graph,
            traffic,
            deviations=(
                "cost-lie",
                "copy-drop",
                "copy-alter",
                "payment-underreport",
                "joint-copy-alter-and-understate",
            ),
        )
        types = [TypeProfile({n: graph.cost(n) for n in graph.nodes})]
        return (
            check_ic(dm, types),
            check_strong_cc(dm, types),
            check_strong_ac(dm, types),
            check_ex_post_nash(dm, types),
        )

    ic, strong_cc, strong_ac, full = benchmark.pedantic(
        verdict, rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["property", "holds", "deviations checked", "max gain"],
            [
                ["IC", ic.holds, ic.deviations_checked, ic.max_gain],
                ["strong-CC", strong_cc.holds,
                 strong_cc.deviations_checked, strong_cc.max_gain],
                ["strong-AC", strong_ac.holds,
                 strong_ac.deviations_checked, strong_ac.max_gain],
                ["faithful (ex post Nash)", full.holds,
                 full.deviations_checked, full.max_gain],
            ],
            float_digits=4,
            title="E9b: Proposition 2 on the faithful routing mechanism",
        )
    )
    assert ic.holds and strong_cc.holds and strong_ac.holds and full.holds
