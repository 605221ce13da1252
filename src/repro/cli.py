"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``lcp``
    Print the lowest-cost-path tree of a topology from one source
    (optionally the ``LCP_{-k}`` tree avoiding one node).
``payments``
    Print per-node all-pairs VCG payment totals.
``run``
    Run the faithful (or plain) FPSS mechanism and print the settled
    economics and detection report.
``deviate``
    Install one catalogued manipulation on one node, run both the plain
    and faithful protocols, and print the gain/detection comparison.
``catalogue``
    List the manipulation catalogue with classifications.
``sweep``
    Expand a scenario grid (a JSON spec file or the stock grid), run
    it serially or across a worker pool, print per-cell summaries, and
    write CSV/JSON artifacts.  ``--shard I/N`` runs one deterministic
    shard of the grid; ``--resume DIR`` skips cells already recorded
    in a prior artifact directory.
``sweep-merge``
    Merge shard (or partial-run) artifact directories into one
    combined artifact set, recomputing summaries from raw rows.
``tail``
    Print (or ``--follow``) the ``telemetry.jsonl`` feed a sweep run
    with ``--telemetry`` publishes, human-readable or as raw JSON.
``status``
    Reduce a (possibly live, possibly truncated) telemetry feed to a
    progress report: cells done, rate, ETA, error classes, counters.
``lint``
    Run the determinism/replay-safety static analyzer over ``src/repro``
    (or ``--paths``); exits nonzero on any active finding.

Topologies are selected with ``--graph``: ``figure1`` (the paper's
example) or ``random:<n>:<seed>`` (a random biconnected graph).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from .analysis import render_table
from .analysis.lint import lint_paths
from .errors import ExperimentError, ReproError
from .experiments import (
    SweepRunner,
    canonical_results,
    default_sweep,
    merge_artifacts,
    parse_sweep,
    shard_grid,
    summarize,
    validate_group_by,
    write_artifacts,
)
from .faithful import DEVIATION_CATALOGUE, run_deviation
from .obs import (
    FeedFollower,
    SweepFeed,
    feed_path,
    feed_status,
    read_feed,
    render_event,
    render_status,
)
from .routing import ASGraph, all_pairs_payments, engine_for, figure1_graph
from .workloads import random_biconnected_graph, uniform_all_pairs


def resolve_graph(spec: str) -> ASGraph:
    """Parse a ``--graph`` argument into an AS graph."""
    if spec == "figure1":
        return figure1_graph()
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ReproError(
                f"bad graph spec {spec!r}; expected random:<n>:<seed>"
            )
        size, seed = int(parts[1]), int(parts[2])
        return random_biconnected_graph(size, random.Random(seed))
    raise ReproError(
        f"unknown graph {spec!r}; use 'figure1' or 'random:<n>:<seed>'"
    )


def cmd_lcp(args: argparse.Namespace) -> int:
    """Print the centralized LCP (or LCP_{-k}) tree of one source."""
    graph = resolve_graph(args.graph)
    source = args.source or graph.nodes[0]
    if source not in graph:
        raise ReproError(f"unknown source {source!r}")
    engine = engine_for(graph)
    avoiding = args.avoiding
    if avoiding is not None and avoiding not in graph:
        raise ReproError(f"unknown node {avoiding!r}")
    tree = engine.tree(source, avoiding=avoiding)
    rows = [
        [destination, "-".join(str(n) for n in entry.path), entry.cost]
        for destination, entry in sorted(tree.items(), key=repr)
    ]
    title = f"Lowest-cost paths from {source}"
    if avoiding is not None:
        title += f" avoiding {avoiding}"
    print(render_table(["destination", "LCP", "transit cost"], rows, title=title))
    return 0


def cmd_payments(args: argparse.Namespace) -> int:
    """Print per-node all-pairs VCG payment totals."""
    graph = resolve_graph(args.graph)
    payments = all_pairs_payments(graph)
    received = {node: 0.0 for node in graph.nodes}
    paid = {node: 0.0 for node in graph.nodes}
    for (source, _), bundle in payments.items():
        paid[source] += bundle.total_payment
        for transit, payment in bundle.payments.items():
            received[transit] += payment
    engine = engine_for(graph)
    rows = [
        [node, graph.cost(node), received[node], paid[node]]
        for node in graph.nodes
    ]
    print(
        render_table(
            ["node", "declared cost", "VCG received", "VCG paid"],
            rows,
            float_digits=2,
            title=(
                f"All-pairs FPSS/VCG payments "
                f"({len(payments)} pairs, {engine.runs} Dijkstra runs)"
            ),
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the faithful (or plain) mechanism and print the economics."""
    graph = resolve_graph(args.graph)
    traffic = uniform_all_pairs(graph, volume=args.volume)
    result = run_deviation(graph, traffic, faithful=not args.plain)
    print(f"protocol:   {'plain' if args.plain else 'faithful'} FPSS")
    print(f"certified:  {result.progressed}")
    print(f"restarts:   {result.detection.restarts}")
    print(f"flags:      {len(result.detection.all_flags)}")
    rows = [
        [
            node,
            result.received.get(node, 0.0),
            result.charged.get(node, 0.0),
            result.incurred.get(node, 0.0),
            result.utilities[node],
        ]
        for node in sorted(result.utilities, key=repr)
    ]
    print(
        render_table(
            ["node", "received", "charged", "incurred", "utility"],
            rows,
            float_digits=2,
            title="Settled economics",
        )
    )
    return 0


def cmd_deviate(args: argparse.Namespace) -> int:
    """Compare one manipulation's gain/detection across protocols."""
    graph = resolve_graph(args.graph)
    if args.node not in graph:
        raise ReproError(f"unknown node {args.node!r}")
    if args.deviation not in DEVIATION_CATALOGUE:
        raise ReproError(
            f"unknown deviation {args.deviation!r}; see 'catalogue'"
        )
    spec = DEVIATION_CATALOGUE[args.deviation]
    traffic = uniform_all_pairs(graph, volume=args.volume)

    rows = []
    for faithful in (False, True) if spec.plain_capable else (True,):
        base = run_deviation(graph, traffic, faithful)
        deviated = run_deviation(graph, traffic, faithful, args.node, spec)
        if faithful:
            detected = "yes" if deviated.detection.detected_any else "no"
        else:
            detected = "n/a (no detector)"
        rows.append(
            [
                "faithful" if faithful else "plain",
                deviated.utilities[args.node] - base.utilities[args.node],
                detected,
                deviated.detection.restarts,
            ]
        )
    print(
        render_table(
            ["protocol", "deviator gain", "detected", "restarts"],
            rows,
            float_digits=3,
            title=f"{args.deviation} by {args.node}",
        )
    )
    return 0


def parse_shard(text: str) -> tuple:
    """Parse ``--shard I/N`` (1-based) into a 0-based (index, count)."""
    parts = text.split("/")
    try:
        index, count = int(parts[0]), int(parts[1])
    except (IndexError, ValueError):
        raise ExperimentError(
            f"bad shard {text!r}; expected I/N, e.g. --shard 2/4"
        ) from None
    if len(parts) != 2 or not 1 <= index <= count:
        raise ExperimentError(
            f"bad shard {text!r}; need 1 <= I <= N, e.g. --shard 2/4"
        )
    return index - 1, count


def _print_cell_table(summaries, metric: str) -> None:
    """The per-cell table both sweep commands print."""
    rows = []
    for summary in summaries:
        stats = summary.stats.get(metric)
        rows.append(
            [
                summary.label(),
                summary.scenarios,
                summary.failures,
                stats.mean if stats else float("nan"),
                stats.std if stats else float("nan"),
                stats.minimum if stats else float("nan"),
                stats.maximum if stats else float("nan"),
            ]
        )
    print(
        render_table(
            ["cell", "n", "fail", "mean", "std", "min", "max"],
            rows,
            float_digits=3,
            title=f"Per-cell {metric}",
        )
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Expand and execute a scenario grid; print per-cell summaries."""
    if args.spec is not None:
        try:
            with open(args.spec) as handle:
                document = json.load(handle)
        except OSError as exc:
            raise ExperimentError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"spec file is not valid JSON: {exc}") from exc
        sweep = parse_sweep(document)
    else:
        sweep = default_sweep()
    group_by = (
        validate_group_by(part for part in args.group_by.split(",") if part)
        if args.group_by
        else sweep.group_by
    )
    scenarios = sweep.scenarios
    shard_note = ""
    if args.shard is not None:
        index, count = parse_shard(args.shard)
        scenarios = shard_grid(scenarios, index, count)
        shard_note = (
            f" [shard {index + 1}/{count}: "
            f"{len(scenarios)}/{len(sweep.scenarios)} cells]"
        )
    runner = SweepRunner(
        scenarios,
        workers=args.workers,
        resume_dir=args.resume,
        retry_errors=args.retry_errors,
        allow_empty=args.shard is not None,
        progress=args.progress,
    )
    if args.telemetry:
        os.makedirs(args.out, exist_ok=True)
        with SweepFeed(args.out) as feed:
            raw = runner.run(
                store_dir=args.out, feed=feed, feed_name=sweep.name
            )
    else:
        raw = runner.run(store_dir=args.out)
    results = canonical_results(raw)
    summaries = summarize(results, group_by=group_by)
    paths = write_artifacts(
        results, summaries, args.out, name=sweep.name, group_by=group_by
    )

    failures = sum(1 for r in results if not r.ok)
    wall = sum(r.wall_time for r in results)
    resume_note = f", {runner.reused} reused" if args.resume else ""
    print(
        f"sweep '{sweep.name}'{shard_note}: {len(results)} scenarios"
        f"{resume_note}, {len(summaries)} cells, {failures} failures, "
        f"{runner.workers} worker(s), {wall:.2f}s scenario time"
    )
    for result in results:
        if not result.ok:
            error = result.error or "unknown"
            error_class = error.split(":", 1)[0]
            print(
                f"failed cell [{error_class}] {result.spec.content_key()} "
                f"(probe={result.spec.probe}): {error}"
            )
    _print_cell_table(summaries, args.metric)
    for kind, path in sorted(paths.items()):
        print(f"artifact [{kind}]: {path}")
    return 1 if failures else 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Print (or follow) a sweep's telemetry feed."""
    path = feed_path(args.feed)

    def show(event) -> None:
        if args.format == "json":
            print(json.dumps(event.to_json_obj(), sort_keys=True), flush=True)
        else:
            print(render_event(event), flush=True)

    if args.follow:
        follower = FeedFollower(path)
        try:
            for event in follower.follow(
                poll_interval=args.interval, max_polls=args.max_polls
            ):
                show(event)
        except KeyboardInterrupt:
            pass
        return 0
    if not os.path.exists(path):
        raise ExperimentError(
            f"no telemetry feed at {path!r} "
            "(run the sweep with --telemetry, or pass --follow to wait)"
        )
    for event in read_feed(path):
        show(event)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Reduce a telemetry feed to a progress report."""
    path = feed_path(args.feed)
    if not os.path.exists(path):
        raise ExperimentError(
            f"no telemetry feed at {path!r} (run the sweep with --telemetry)"
        )
    status = feed_status(read_feed(path))
    if args.format == "json":
        print(json.dumps(status.to_json_obj(), indent=2, sort_keys=True))
    else:
        print(render_status(status))
    return 0


def cmd_sweep_merge(args: argparse.Namespace) -> int:
    """Merge shard artifact directories into one combined artifact set."""
    group_by = (
        validate_group_by(part for part in args.group_by.split(",") if part)
        if args.group_by
        else None  # recovered from the inputs' own sweep.json
    )
    report = merge_artifacts(
        args.dirs, args.out, name=args.name, group_by=group_by
    )
    failures = sum(1 for r in report.results if not r.ok)
    print(
        f"merged '{report.name}': {len(report.results)} cells from "
        f"{report.sources} artifact dir(s), {report.overlaps} "
        f"overlapping, {failures} failures"
    )
    _print_cell_table(report.summaries, args.metric)
    for kind, path in sorted(report.paths.items()):
        print(f"artifact [{kind}]: {path}")
    return 1 if failures else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism analyzer; nonzero exit on active findings."""
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    report = lint_paths(paths)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def cmd_catalogue(_args: argparse.Namespace) -> int:
    """List the manipulation catalogue with classifications."""
    rows = [
        [
            spec.name,
            "/".join(sorted(c.value for c in spec.classes)),
            spec.stage,
            "yes" if spec.plain_capable else "no",
        ]
        for spec in DEVIATION_CATALOGUE.values()
    ]
    print(
        render_table(
            ["deviation", "action classes", "stage", "plain-capable"],
            sorted(rows),
            title="Manipulation catalogue (Section 4.3)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser with per-command epilogs."""
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Faithful distributed mechanisms (Shneidman & Parkes, PODC 2004)",
        formatter_class=raw,
        epilog=(
            "examples:\n"
            "  python -m repro lcp --graph random:16:1 --source n00\n"
            "  python -m repro deviate false-route-announce C\n"
            "  python -m repro sweep --workers 0 --metric overpayment_ratio\n"
            "Topologies: 'figure1' (the paper's example) or "
            "'random:<n>:<seed>'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lcp = sub.add_parser(
        "lcp",
        help="print an LCP tree",
        formatter_class=raw,
        epilog=(
            "Computes the centralized lowest-cost-path tree from one "
            "source\n(the oracle the distributed FPSS fixed point is "
            "verified against).\n\n"
            "examples:\n"
            "  python -m repro lcp                      # Figure 1, first node\n"
            "  python -m repro lcp --source C --avoiding B\n"
            "  python -m repro lcp --graph random:32:7 --source n00"
        ),
    )
    lcp.add_argument("--graph", default="figure1")
    lcp.add_argument("--source", default=None)
    lcp.add_argument(
        "--avoiding",
        default=None,
        help="print the LCP_{-k} tree that avoids this node",
    )
    lcp.set_defaults(func=cmd_lcp)

    payments = sub.add_parser(
        "payments",
        help="print all-pairs VCG payment totals",
        formatter_class=raw,
        epilog=(
            "Per-node totals of the VCG transit payments "
            "p_k = c_k + d^-k - d\nover every source/destination pair "
            "(the overpayment story of the paper).\n\n"
            "examples:\n"
            "  python -m repro payments\n"
            "  python -m repro payments --graph random:64:1"
        ),
    )
    payments.add_argument("--graph", default="figure1")
    payments.set_defaults(func=cmd_payments)

    run = sub.add_parser(
        "run",
        help="run a full mechanism",
        formatter_class=raw,
        epilog=(
            "Drives both construction phases to quiescence (batched "
            "incremental\nengine), certifies at the bank checkpoints, "
            "sends the traffic matrix,\nand prints the settled "
            "economics.  --plain runs the original trusting\nFPSS "
            "instead of the faithful extension.\n\n"
            "examples:\n"
            "  python -m repro run\n"
            "  python -m repro run --plain --graph random:16:3 --volume 2.0"
        ),
    )
    run.add_argument("--graph", default="figure1")
    run.add_argument("--volume", type=float, default=1.0)
    run.add_argument("--plain", action="store_true")
    run.set_defaults(func=cmd_run)

    deviate = sub.add_parser(
        "deviate",
        help="evaluate one manipulation",
        formatter_class=raw,
        epilog=(
            "Installs one catalogued manipulation on one node and "
            "compares the\ndeviator's gain in plain FPSS (where it may "
            "profit) against the\nfaithful extension (where it is "
            "caught).  See 'catalogue' for names.\n\n"
            "examples:\n"
            "  python -m repro deviate cost-lie C\n"
            "  python -m repro deviate packet-drop n03 --graph random:10:2"
        ),
    )
    deviate.add_argument("deviation")
    deviate.add_argument("node")
    deviate.add_argument("--graph", default="figure1")
    deviate.add_argument("--volume", type=float, default=1.0)
    deviate.set_defaults(func=cmd_deviate)

    catalogue = sub.add_parser(
        "catalogue",
        help="list manipulations",
        formatter_class=raw,
        epilog=(
            "The Section-4.3 manipulation catalogue with action-class "
            "labels\n(information revelation / message passing / "
            "computation), the stage\nthe deviation acts in, and "
            "whether plain FPSS can express it."
        ),
    )
    catalogue.set_defaults(func=cmd_catalogue)

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario grid (optionally one shard, resumable)",
        formatter_class=raw,
        epilog=(
            "Expands a declarative scenario grid and runs its probe per "
            "cell\n(payments, convergence, detection, faithfulness, churn, "
            "settlement),\nserially or over a\nmultiprocessing pool, then writes "
            "results.csv / summary.csv /\nsweep.json / cells.jsonl "
            "artifacts.\n\n"
            "--shard I/N runs the I-th of N deterministic shards of the "
            "grid\n(merge the shard artifacts with 'sweep-merge').  "
            "--resume DIR skips\ncells already recorded in DIR's "
            "cells.jsonl, so a killed sweep\ncontinues where it stopped; "
            "artifacts are byte-identical either way.\n\n"
            "examples:\n"
            "  python -m repro sweep                      # stock 60-scenario grid\n"
            "  python -m repro sweep --workers 0 --out /tmp/artifacts\n"
            "  python -m repro sweep --spec my_grid.json --group-by probe,size\n"
            "  python -m repro sweep --shard 2/4 --out shard2\n"
            "  python -m repro sweep --resume shard2 --shard 2/4 --out shard2"
        ),
    )
    sweep.add_argument(
        "--spec",
        default=None,
        help="JSON sweep document (default: the stock 60-scenario grid)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial, 0 = one per CPU)",
    )
    sweep.add_argument(
        "--out",
        default="sweep-artifacts",
        help="directory for results/summary/sweep/cells artifacts",
    )
    sweep.add_argument(
        "--group-by",
        default=None,
        help="comma-separated spec fields forming the summary cells",
    )
    sweep.add_argument(
        "--metric",
        default="overpayment_ratio",
        help="metric shown in the printed per-cell table",
    )
    sweep.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run the I-th of N deterministic grid shards (1-based)",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="skip cells already recorded in DIR's cells.jsonl",
    )
    sweep.add_argument(
        "--retry-errors",
        action="store_true",
        help="with --resume, re-run cells whose prior record is an error",
    )
    sweep.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "publish a live telemetry.jsonl feed into --out "
            "(consume with 'tail' / 'status'; artifacts are unaffected)"
        ),
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="print one line to stderr per completed cell",
    )
    sweep.set_defaults(func=cmd_sweep)

    tail = sub.add_parser(
        "tail",
        help="print or follow a sweep telemetry feed",
        formatter_class=raw,
        epilog=(
            "Reads the telemetry.jsonl feed a sweep publishes with "
            "--telemetry\n(pass the artifact directory or the feed file "
            "itself).  --follow polls\nfor new records until "
            "interrupted; a torn final line (in-flight\nappend) is "
            "simply picked up on a later poll.\n\n"
            "examples:\n"
            "  python -m repro tail sweep-artifacts\n"
            "  python -m repro tail sweep-artifacts --follow\n"
            "  python -m repro tail sweep-artifacts --format json | jq .kind"
        ),
    )
    tail.add_argument(
        "feed",
        help="sweep artifact directory (or the telemetry.jsonl file)",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new records until interrupted",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="poll interval in seconds with --follow (default: 0.5)",
    )
    tail.add_argument(
        "--max-polls",
        type=int,
        default=None,
        help="with --follow, stop after this many polls (for scripting)",
    )
    tail.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="record rendering (default: text)",
    )
    tail.set_defaults(func=cmd_tail)

    status = sub.add_parser(
        "status",
        help="progress report from a sweep telemetry feed",
        formatter_class=raw,
        epilog=(
            "Reduces a telemetry feed — live, finished, or truncated by "
            "a kill —\nto a progress report: cells done / in flight / "
            "remaining, completion\nrate and ETA (from the wall stamps "
            "in the records), error classes,\nerrors by probe, churn and "
            "settlement roll-ups (flows settled, net\ntransfers, forced "
            "settlements, deposit draws), and the top merged\ncounters.\n\n"
            "examples:\n"
            "  python -m repro status sweep-artifacts\n"
            "  python -m repro status sweep-artifacts --format json"
        ),
    )
    status.add_argument(
        "feed",
        help="sweep artifact directory (or the telemetry.jsonl file)",
    )
    status.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    status.set_defaults(func=cmd_status)

    merge = sub.add_parser(
        "sweep-merge",
        help="merge sweep artifact directories",
        formatter_class=raw,
        epilog=(
            "Joins the cells.jsonl stores of shard (or partial-run) "
            "artifact\ndirectories on their content keys, refuses "
            "conflicting duplicates,\nrecomputes summaries from the raw "
            "rows, and writes one combined\nartifact set — byte-identical "
            "to the same grid swept in a single\nprocess.\n\n"
            "examples:\n"
            "  python -m repro sweep-merge shard1 shard2 --out merged\n"
            "  python -m repro sweep-merge s1 s2 s3 --out all --group-by probe"
        ),
    )
    merge.add_argument(
        "dirs",
        nargs="+",
        help="artifact directories to merge (each holds a cells.jsonl)",
    )
    merge.add_argument(
        "--out",
        default="sweep-merged",
        help="directory for the combined artifact set",
    )
    merge.add_argument(
        "--name",
        default=None,
        help=(
            "sweep name for the combined sweep.json "
            "(default: recovered from the inputs)"
        ),
    )
    merge.add_argument(
        "--group-by",
        default=None,
        help=(
            "comma-separated spec fields forming the summary cells "
            "(default: recovered from the inputs)"
        ),
    )
    merge.add_argument(
        "--metric",
        default="overpayment_ratio",
        help="metric shown in the printed per-cell table",
    )
    merge.set_defaults(func=cmd_sweep_merge)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/replay-safety analyzer",
        formatter_class=raw,
        epilog=(
            "Static AST analysis enforcing the replay-safety contract of\n"
            "docs/determinism.md: no unordered iteration on canonical "
            "paths, no\nhash()/id() escapes, no ambient randomness or "
            "wall-clock reads, no\nfloat equality in cost code, and the "
            "'# purity: kernel' contract for\nthe replay kernel.  "
            "Suppressions ('# lint: allow[rule] reason') are\ncounted and "
            "printed; exits 1 on any active finding.\n\n"
            "examples:\n"
            "  python -m repro lint\n"
            "  python -m repro lint --format json\n"
            "  python -m repro lint --paths src/repro/routing tools/probe.py"
        ),
    )
    lint.add_argument(
        "--paths",
        nargs="+",
        default=None,
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
