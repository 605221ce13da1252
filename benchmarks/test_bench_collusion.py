"""E11 — The "without collusion" boundary of ex post Nash.

The paper adopts "ex post Nash (without collusion)" (Section 1).  This
experiment shows that assumption is load-bearing: a coalition of a
deviant principal and **all** of its checkers evades detection (every
witness is complicit), while any coalition leaving a single honest
checker is caught — the executable form of "there is always at least
one checker that will catch any attempted deviation" (Section 4.2).

A second, less obvious shape on Figure 1: although detection is
evaded, the coalition's *total* utility change is negative — the
accomplices lose more than the principal gains, so no budget-balanced
side payments could make the whole coalition strictly better off here.
Evasion is possible; joint profitability is not automatic.
"""

from repro.analysis import render_table
from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    run_deviation,
)
from repro.faithful.collusion import coalition_factory

PRINCIPAL = "C"
SPEC = DEVIATION_CATALOGUE["false-route-announce"]


def run_scenarios(graph, traffic):
    checkers = graph.neighbors(PRINCIPAL)
    baseline = run_deviation(graph, traffic)
    unilateral = run_deviation(graph, traffic, node=PRINCIPAL, spec=SPEC)
    partial = FaithfulFPSSProtocol(
        graph,
        traffic,
        node_factory=coalition_factory(SPEC, PRINCIPAL, checkers[:-1]),
    ).run()
    full = FaithfulFPSSProtocol(
        graph,
        traffic,
        node_factory=coalition_factory(SPEC, PRINCIPAL, checkers),
    ).run()
    return baseline, unilateral, partial, full


def test_bench_collusion_boundary(benchmark, fig1, fig1_traffic):
    baseline, unilateral, partial, full = benchmark.pedantic(
        run_scenarios, args=(fig1, fig1_traffic), rounds=1, iterations=1
    )
    checkers = fig1.neighbors(PRINCIPAL)
    coalition = (PRINCIPAL,) + checkers

    def gain(result, nodes):
        return sum(
            result.utilities[n] - baseline.utilities[n] for n in nodes
        )

    rows = [
        [
            "unilateral deviant",
            unilateral.detection.detected_any,
            gain(unilateral, (PRINCIPAL,)),
            gain(unilateral, coalition),
        ],
        [
            f"coalition missing one checker ({checkers[-1]} honest)",
            partial.detection.detected_any,
            gain(partial, (PRINCIPAL,)),
            gain(partial, coalition),
        ],
        [
            "full coalition (principal + every checker)",
            full.detection.detected_any,
            gain(full, (PRINCIPAL,)),
            gain(full, coalition),
        ],
    ]
    print()
    print(
        render_table(
            ["scenario", "detected", "principal gain", "coalition gain"],
            rows,
            float_digits=2,
            title="E11: collusion vs the checker scheme (Figure 1, node C)",
        )
    )

    # Unilateral and almost-full coalitions are caught...
    assert unilateral.detection.detected_any
    assert partial.detection.detected_any
    # ...the full coalition evades and the principal profits...
    assert not full.detection.detected_any
    assert full.progressed
    assert gain(full, (PRINCIPAL,)) > 0
    # ...but on this instance the coalition as a whole still loses.
    assert gain(full, coalition) < 0
