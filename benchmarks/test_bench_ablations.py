"""Ablations and Section-5 interactions (design-choice experiments).

Three experiments on the knobs ``docs/architecture.md`` describes
(checker flags and checkpoint restarts, sections 0 and 4):

* **A1 — checker flags are necessary.** With the bank reduced to
  digest comparison only (flags ignored), update *suppression* escapes:
  a principal that computes correctly but never announces keeps its own
  tables and every mirror in perfect agreement, so only the checkers'
  pending-broadcast flags can catch it.
* **A2 — checkpoint cost of the restart budget.** A persistent
  construction deviant forces one full phase re-run per allowed
  restart; construction work scales linearly in the budget (the
  "added complexity" of Section 3.9's checkpoints under attack).
* **A3 — Section 5: omission faults cause false punishment.** An
  obedient node with a lossy channel is flagged by the same machinery
  that catches rational deviants; the false-detection probability
  grows with the loss rate.
"""

import random

from repro.analysis import render_table
from repro.faithful import (
    DEVIATION_CATALOGUE,
    FaithfulFPSSProtocol,
    FaithfulRoutingNode,
    faithful_deviant_factory,
)
from repro.sim import OmissionAdapter


def test_bench_ablation_flags_necessary(benchmark, fig1, fig1_traffic):
    spec = DEVIATION_CATALOGUE["route-suppress"]

    def run_both():
        with_flags = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=faithful_deviant_factory(spec, "C"),
            bank_honors_flags=True,
        ).run()
        without_flags = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=faithful_deviant_factory(spec, "C"),
            bank_honors_flags=False,
        ).run()
        return with_flags, without_flags

    with_flags, without_flags = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["bank configuration", "suppression detected", "certified"],
            [
                ["digests + checker flags", with_flags.detection.detected_any,
                 with_flags.progressed],
                ["digests only (ablated)",
                 without_flags.detection.detected_any,
                 without_flags.progressed],
            ],
            title="A1: update suppression vs the bank's evidence sources",
        )
    )
    assert with_flags.detection.detected_any
    assert not without_flags.detection.detected_any  # the escape


def test_bench_ablation_restart_budget(benchmark, fig1, fig1_traffic):
    spec = DEVIATION_CATALOGUE["false-route-announce"]

    def sweep():
        rows = []
        for budget in (0, 1, 2, 3):
            result = FaithfulFPSSProtocol(
                fig1,
                fig1_traffic,
                node_factory=faithful_deviant_factory(spec, "C"),
                max_restarts=budget,
            ).run()
            rows.append(
                [budget, result.detection.restarts,
                 result.construction_events, result.progressed]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["restart budget", "restarts", "construction events", "certified"],
            rows,
            title="A2: cost of checkpoints under a persistent deviant",
        )
    )
    events = [row[2] for row in rows]
    assert all(later > earlier for earlier, later in zip(events, events[1:]))
    assert not any(row[3] for row in rows)  # never certifies


def test_bench_section5_omission_false_punish(benchmark, fig1, fig1_traffic):
    """False-detection rate of an OBEDIENT but lossy node."""

    def measure(probs=(0.0, 0.05, 0.2, 0.5), trials=4):
        rows = []
        for prob in probs:
            detected = 0
            for trial in range(trials):
                def lossy(node_id, cost, signing, prob=prob, trial=trial):
                    node = FaithfulRoutingNode(node_id, cost, signing)
                    if node_id == "C":
                        OmissionAdapter(
                            node,
                            random.Random(trial * 7 + 1),
                            send_drop_prob=prob,
                        )
                    return node

                result = FaithfulFPSSProtocol(
                    fig1, fig1_traffic, node_factory=lossy
                ).run()
                detected += bool(result.detection.detected_any)
            rows.append([prob, detected / trials])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["send-omission probability", "false-detection rate"],
            rows,
            title="A3: Section 5 — omission faults on an obedient node",
        )
    )
    assert rows[0][1] == 0.0  # lossless channel: never falsely flagged
    assert rows[-1][1] == 1.0  # heavy loss: always (falsely) punished
