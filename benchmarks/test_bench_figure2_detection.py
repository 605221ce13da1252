"""E4 — Figure 2 / Section 4.3: catch-and-punish detection matrix.

Runs every catalogued manipulation (the paper's manipulations 1-4 plus
the execution frauds) by every node of the Figure 1 network against
the faithful specification.  Expected shape:

* detection rate 1.0 over deviations with an observable effect
  (``cost-lie`` is excluded: a consistent type misreport is permitted
  and neutralised by VCG rather than detected);
* the all-obedient baseline is never falsely flagged.
"""

import pytest

from repro.analysis import render_table
from repro.experiments import deviation_table
from repro.faithful import DEVIATION_CATALOGUE, FaithfulFPSSProtocol


def run_detection_matrix(graph, traffic):
    return deviation_table(graph, traffic)


@pytest.mark.slow
def test_bench_figure2_detection_matrix(benchmark, fig1, fig1_traffic):
    table = benchmark.pedantic(
        run_detection_matrix,
        args=(fig1, fig1_traffic),
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, outcomes in sorted(table.by_deviation().items()):
        fired = [o for o in outcomes if o.detected or abs(o.gain) > 1e-9]
        detected = sum(1 for o in fired if o.detected)
        rows.append(
            [
                name,
                len(outcomes),
                len(fired),
                detected,
                max((o.gain for o in outcomes), default=0.0),
            ]
        )
    print()
    print(
        render_table(
            ["manipulation", "runs", "fired", "detected", "max gain"],
            rows,
            title="E4: detection matrix on Figure 1 (deviant x node)",
        )
    )

    assert table.detection_rate(excluding=("cost-lie",)) == 1.0
    assert table.is_faithful()


def test_bench_no_false_positives(benchmark, fig1, fig1_traffic):
    """The obedient baseline certifies with zero flags."""

    def baseline():
        return FaithfulFPSSProtocol(fig1, fig1_traffic).run()

    result = benchmark.pedantic(baseline, rounds=1, iterations=1)
    assert result.progressed
    assert not result.detection.detected_any
    assert result.detection.all_flags == []
