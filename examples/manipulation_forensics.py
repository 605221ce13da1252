#!/usr/bin/env python3
"""Manipulation forensics: watch the checkers and the bank at work.

Reproduces: the Section 4.3 manipulation catalogue and the Section
4.2 claim that checkers plus bank checkpoints detect every
construction-phase manipulation (the detection half of Proposition 1).

Installs each construction-phase manipulation from Section 4.3 on one
node of the Figure 1 network, runs the faithful protocol, and prints
the forensic trail: which checkers raised which flags, what the bank
decided at each checkpoint, and the deviator's final utility.

Run:  python examples/manipulation_forensics.py
"""

from collections import Counter

from repro.analysis import render_table
from repro.faithful import DEVIATION_CATALOGUE, run_deviation
from repro.routing import figure1_graph
from repro.workloads import uniform_all_pairs

SCENARIOS = (
    ("false-route-announce", "C", "announces shaded (cheaper) path costs"),
    ("route-suppress", "D", "computes correctly but never announces"),
    ("copy-drop", "C", "withholds checker copies of received updates"),
    ("copy-alter", "D", "forwards doctored checker copies"),
    ("copy-spoof", "C", "fabricates a copy claiming a neighbour sent it"),
    ("payment-underreport", "X", "reports half its DATA4 obligations"),
    ("packet-drop", "C", "silently drops transiting packets"),
)


def main() -> None:
    graph = figure1_graph()
    traffic = uniform_all_pairs(graph)
    baseline = run_deviation(graph, traffic)
    print(
        f"baseline: certified={baseline.progressed}, "
        f"flags={len(baseline.detection.all_flags)}\n"
    )

    summary_rows = []
    for name, target, description in SCENARIOS:
        spec = DEVIATION_CATALOGUE[name]
        result = run_deviation(graph, traffic, node=target, spec=spec)

        print(f"--- {name} by {target}: {description} ---")
        for decision in result.detection.checkpoint_decisions:
            verdict = "green-light" if decision.green_light else "RESTART"
            suspects = (
                f" suspects={decision.suspects}" if decision.suspects else ""
            )
            print(f"  [{decision.checkpoint}] {verdict}{suspects}")
        flag_counts = Counter(
            (flag.kind.value, flag.checker)
            for flag in result.detection.all_flags
        )
        for (kind, checker), count in sorted(flag_counts.items(), key=repr):
            who = f"checker {checker}" if checker else "bank"
            print(f"  flag {kind} x{count} (raised by {who})")
        gain = result.utilities[target] - baseline.utilities[target]
        print(
            f"  outcome: progressed={result.progressed}, "
            f"U({target}) change {gain:+.2f}\n"
        )
        summary_rows.append(
            [
                name,
                target,
                "yes" if result.detection.detected_any else "no",
                len(result.detection.all_flags),
                gain,
            ]
        )

    print(
        render_table(
            ["manipulation", "node", "detected", "flags", "utility gain"],
            summary_rows,
            float_digits=2,
            title="Forensic summary (gain <= 0 everywhere: Theorem 1)",
        )
    )


if __name__ == "__main__":
    main()
