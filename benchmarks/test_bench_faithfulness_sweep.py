"""E5 — Theorem 1: faithful vs plain FPSS deviation-gain comparison.

For each manipulation, compares the deviator's utility gain in the
*plain* protocol (no checkers, trusting settlement) against the same
deviation in the *faithful* extension.  Expected shape: strictly
positive gains exist in plain FPSS (showing the extension is
necessary), and every gain is <= 0 in the faithful extension (Theorem
1), across the paper's network and random biconnected graphs.
"""

import random

import pytest

from repro.analysis import render_table
from repro.experiments import deviation_table
from repro.faithful import DEVIATION_CATALOGUE
from repro.workloads import random_biconnected_graph, uniform_all_pairs

PLAIN_CAPABLE = tuple(
    name for name, spec in DEVIATION_CATALOGUE.items() if spec.plain_capable
)


def run_sweep(fig1, fig1_traffic):
    plain = deviation_table(
        fig1, fig1_traffic, faithful=False, deviations=PLAIN_CAPABLE
    )
    faithful = deviation_table(fig1, fig1_traffic, deviations=PLAIN_CAPABLE)
    return plain, faithful


@pytest.mark.slow
def test_bench_faithfulness_sweep_figure1(benchmark, fig1, fig1_traffic):
    plain, faithful = benchmark.pedantic(
        run_sweep, args=(fig1, fig1_traffic), rounds=1, iterations=1
    )

    plain_by = plain.by_deviation()
    faithful_by = faithful.by_deviation()
    rows = []
    for name in PLAIN_CAPABLE:
        plain_max = max(o.gain for o in plain_by[name])
        faithful_max = max(o.gain for o in faithful_by[name])
        rows.append([name, plain_max, faithful_max])
    print()
    print(
        render_table(
            ["manipulation", "best gain (plain FPSS)", "best gain (faithful)"],
            rows,
            title="E5: who profits where (max over deviant nodes, Figure 1)",
        )
    )

    # The extension is necessary: plain FPSS leaks strictly positive
    # gains for several manipulation classes...
    assert plain.max_gain > 1.0
    profitable = {o.deviation for o in plain.profitable}
    assert {"charge-understate", "payment-underreport"} <= profitable
    # ...and sufficient: no deviation profits against the extension.
    assert faithful.is_faithful()


def test_bench_faithfulness_sweep_random_graphs(benchmark):
    """The same comparison over random biconnected topologies."""

    def sweep():
        outcomes = []
        for seed in (3, 17):
            rng = random.Random(seed)
            graph = random_biconnected_graph(5, rng)
            traffic = uniform_all_pairs(graph)
            deviator = graph.nodes[seed % len(graph.nodes)]
            plain = deviation_table(
                graph, traffic, faithful=False, nodes=[deviator],
                deviations=("payment-underreport", "packet-drop"),
            )
            faithful = deviation_table(
                graph, traffic, nodes=[deviator],
                deviations=("payment-underreport", "packet-drop"),
            )
            outcomes.append((seed, plain.max_gain, faithful.max_gain))
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["seed", "plain max gain", "faithful max gain"],
            outcomes,
            title="E5b: random biconnected graphs",
        )
    )
    for _seed, plain_gain, faithful_gain in outcomes:
        assert plain_gain > 0.0
        assert faithful_gain <= 1e-9
