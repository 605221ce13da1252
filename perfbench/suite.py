"""The benchmark's four workloads: inputs, measured body, checks, digest.

Each workload is a closed loop of one caller in one process.  Its
``setup`` imports the public API and builds the inputs from the seed
(that is the set-up the benchmark times); ``body`` is the measured
work, run once per repetition on the same inputs; ``check`` verifies
the outputs outside the timed body; ``fingerprint`` digests the
simulated outputs, which must be identical in every repetition and
under any ``PYTHONHASHSEED``; ``counts`` reads the exact end-to-end
counts (simulated messages, payload units, netting ratio) off what the
public API returned.

Graphs come from the repository's sparse AS-like generator (a
Hamiltonian cycle plus each other pair with probability ``4/(n-1)``),
drawn once from ``Random(BASE_SEED * 100 + n)`` as the repository's
benchmarks draw them; ``--seed`` then permutes the node names (and maps
a churn schedule drawn on the base graph through the same permutation).
The sweep's cells draw their own graphs, so there ``--seed`` shuffles the
order the cells run in.  A new name order changes every repr-ordered iteration, tie-break, event
order and digest the program computes, but not the graph's shape, so the
simulated work is the same on every seed and run-to-run spread measures
the program rather than the draw.  Drawing a new topology per seed
instead moves kernel rows ingested by 13% (interquartile range over
eight seeds at 48 nodes), more than the timing noise of this benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import tempfile
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Tuple

# Sizes are chosen so that about ten repetitions fit in one run of
# BENCHMARK.json's run_seconds on a 2-core host: the median over many
# short repetitions is far steadier there than over a few long ones.

#: Faithful protocol run: the paper's deployment shape (every neighbour
#: checks, BANK1/BANK2 checkpoints, all-pairs execution, settlement).
FAITHFUL_NODES = 32
#: Churn run: nodes, epochs, events per epoch (all event kinds).
CHURN_NODES, CHURN_EPOCHS, CHURN_EVENTS = 24, 3, 2
#: Bank-only settlement: nodes and repeats of the all-pairs traffic.
#: Forced settlement audits every principal pair against the whole
#: obligation trace, so its cost grows with pairs x obligations and it
#: dominates the workload.
SETTLE_NODES, SETTLE_REPEATS = 48, 4
#: The stock sweep grid, shrunk to run in seconds serially.
SWEEP_GRID = dict(
    protocol_sizes=(16,),
    checked_sizes=(10,),
    churn_sizes=(12,),
    settlement_sizes=(16, 64),
)
#: Generator seed of every workload's base graph (the seed the
#: repository's churn benchmark draws its graphs with).
BASE_SEED = 5

#: Where runs write (sweep artifact stores, span files), at the root of
#: the checkout.
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench-out"
)


def relabeled_graph(size: int, seed: int):
    """The base graph of ``size`` nodes with its names permuted by ``seed``.

    Returns the relabeled graph, the base graph, and the renaming.
    """
    import repro.routing.graph
    import repro.workloads

    base = repro.workloads.random_biconnected_graph(
        size, random.Random(BASE_SEED * 100 + size), extra_edge_prob=4.0 / (size - 1)
    )
    names = sorted(base.nodes, key=repr)
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    graph = repro.routing.graph.ASGraph(
        {rename[node]: base.cost(node) for node in names},
        sorted(tuple(sorted((rename[a], rename[b]))) for a, b in base.edges),
    )
    return graph, base, rename


def digest(value: Any) -> str:
    """SHA-256 of a canonical JSON rendering (floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _floats(mapping) -> List[Tuple[str, str]]:
    return sorted((repr(key), repr(value)) for key, value in mapping.items())


def _node_digests(nodes) -> List[Tuple[str, str, str]]:
    return sorted(
        (repr(node_id), node.comp.routing_digest(), node.comp.pricing_digest())
        for node_id, node in nodes.items()
        if node.comp is not None
    )


@dataclasses.dataclass
class Outcome:
    """One repetition's verdict: how many of its ops failed, and why."""

    failed: int
    problems: List[str]


# Inputs hold modules, not functions taken from them, so that a traced run
# reaches the program through the attributes the tracer rebinds.

# ----------------------------------------------------------------------
# faithful
# ----------------------------------------------------------------------


def faithful_setup(seed: int):
    import repro.errors
    import repro.faithful
    import repro.routing.convergence
    import repro.workloads

    graph, _base, _rename = relabeled_graph(FAITHFUL_NODES, seed)
    return SimpleNamespace(
        graph=graph,
        traffic=repro.workloads.uniform_all_pairs(graph),
        faithful=repro.faithful,
        convergence=repro.routing.convergence,
        ReproError=repro.errors.ReproError,
    )


def faithful_body(inputs):
    protocol = inputs.faithful.FaithfulFPSSProtocol(inputs.graph, inputs.traffic)
    return protocol, protocol.run()


def faithful_check(inputs, output) -> Outcome:
    protocol, result = output
    problems = []
    if not result.progressed:
        problems.append("run did not progress")
    if result.detection.all_flags or result.detection.restarts:
        problems.append(f"obedient run raised {len(result.detection.all_flags)} flag(s)")
    try:
        inputs.convergence.verify_against_oracle(inputs.graph, protocol.nodes)
    except inputs.ReproError as exc:
        problems.append(f"oracle mismatch: {exc}")
    return Outcome(int(bool(problems)), problems)


def faithful_fingerprint(inputs, output) -> str:
    protocol, result = output
    return digest({
        "tables": _node_digests(protocol.nodes),
        "metrics": result.metrics,
        "received": _floats(result.received),
        "charged": _floats(result.charged),
        "penalties": _floats(result.penalties),
        "utilities": _floats(result.utilities),
        "flags": len(result.detection.all_flags),
    })


def faithful_counts(inputs, output) -> Dict[str, float]:
    protocol, result = output
    return {
        "sim_messages": result.metrics["total_messages"],
        "sim_payload_units": result.metrics["total_payload_units"],
    }


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------


def churn_setup(seed: int):
    import repro.errors
    import repro.routing.dynamic
    import repro.sim.churn
    import repro.workloads

    graph, base, rename = relabeled_graph(CHURN_NODES, seed)
    base_schedule = repro.sim.churn.random_churn_schedule(
        base,
        random.Random(BASE_SEED),
        epochs=CHURN_EPOCHS,
        events_per_epoch=CHURN_EVENTS,
        kinds=repro.sim.churn.EVENT_KINDS,
        require="connected",
        seed=BASE_SEED,
    )

    def name(node):
        return rename.get(node, node)  # joining nodes keep their names

    schedule = repro.sim.churn.ChurnSchedule(epochs=tuple(
        tuple(
            dataclasses.replace(
                event,
                node=None if event.node is None else name(event.node),
                link=None if event.link is None else tuple(map(name, event.link)),
                links=tuple(tuple(map(name, link)) for link in event.links),
            )
            for event in events
        )
        for events in base_schedule.epochs
    ))
    return SimpleNamespace(
        graph=graph,
        schedule=schedule,
        workloads=repro.workloads,
        dynamic=repro.routing.dynamic,
    )


def churn_body(inputs):
    # The epoch-equivalence oracle stays on (run_dynamic_fpss verifies
    # every epoch by default), so a wrong epoch raises inside the body.
    return inputs.dynamic.run_dynamic_fpss(
        inputs.graph, inputs.schedule, traffic=inputs.workloads.uniform_all_pairs
    )


def churn_check(inputs, output) -> Outcome:
    epochs = len(inputs.schedule.epochs)
    problems = [
        f"epoch {report.epoch}: availability {report.availability}"
        for report in output.epochs
        if report.availability != 1.0
    ]
    if len(output.epochs) != epochs:
        problems.append(f"ran {len(output.epochs)} of {epochs} epochs")
    failed = min(epochs, len(problems))
    return Outcome(failed, problems)


def churn_fingerprint(inputs, output) -> str:
    return digest({
        "tables": _node_digests(output.nodes),
        "initial_messages": output.initial_messages,
        "metrics": output.simulator.metrics.summary(),
        "epochs": [
            (
                repr(report.events),
                report.reconvergence_events,
                report.reconvergence_messages,
                repr(report.reconvergence_time),
                report.routed_flows,
                report.unroutable_flows,
                repr(report.payments_total),
            )
            for report in output.epochs
        ],
    })


def churn_counts(inputs, output) -> Dict[str, float]:
    return {"sim_messages": output.simulator.metrics.summary()["total_messages"]}


# ----------------------------------------------------------------------
# settle
# ----------------------------------------------------------------------


def settle_setup(seed: int):
    import repro.faithful
    import repro.workloads

    graph, _base, _rename = relabeled_graph(SETTLE_NODES, seed)
    node_ids = tuple(sorted(graph.nodes, key=repr))
    return SimpleNamespace(
        reports=repro.faithful.synthesize_execution_reports(
            graph, repro.workloads.uniform_all_pairs(graph), repeats=SETTLE_REPEATS
        ),
        node_ids=node_ids,
        declared={n: graph.cost(n) for n in node_ids},
        faithful=repro.faithful,
    )


def settle_body(inputs):
    bank = inputs.faithful.BankNode()
    bank.reports["execution"] = inputs.reports
    netted = bank.settle_netted(inputs.node_ids, inputs.declared)
    # Audits every principal pair on the signed trace (settlement_audit)
    # and would draw any shortfall from the debtors' deposits.
    forced = bank.run_forced_settlement(netted.ledger, at_time=0.0)
    return netted, forced


def settle_check(inputs, output) -> Outcome:
    netted, forced = output
    problems = []
    if netted.flags:
        problems.append(f"{len(netted.flags)} settlement flag(s)")
    net_positions = inputs.faithful.net_positions
    per_flow = net_positions(netted.per_flow_transfers, nodes=inputs.node_ids)
    batched = net_positions(netted.transfers, nodes=inputs.node_ids)
    drift = max(abs(per_flow[n] - batched[n]) for n in inputs.node_ids)
    if drift != 0.0:
        problems.append(f"netting moved money: drift {drift!r}")
    if forced:
        problems.append(f"forced settlement found {len(forced)} shortfall(s)")
    return Outcome(int(bool(problems)), problems)


def settle_fingerprint(inputs, output) -> str:
    netted, forced = output
    return digest({
        "records": sorted(
            (repr(n), repr(r.received), repr(r.charged), repr(r.penalties))
            for n, r in netted.records.items()
        ),
        "transfers": [
            (repr(t.debtor), repr(t.closure_time), repr(t.payouts))
            for t in netted.transfers
        ],
        "counts": (
            netted.flows_settled,
            netted.flow_groups,
            netted.transfer_records,
            netted.net_payouts,
        ),
        "forced": repr(forced),
    })


def settle_counts(inputs, output) -> Dict[str, float]:
    netted, _forced = output
    return {"netting_ratio": netted.transfer_records / netted.net_payouts}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

#: Canonical sweep artifacts (``cells.jsonl`` carries wall times).
CANONICAL = ("results.csv", "summary.csv", "sweep.json")


def sweep_setup(seed: int):
    import repro.experiments

    # The cells build their own graphs from their own seeds; the
    # benchmark seed shuffles the order they run in.  The canonical
    # artifacts do not depend on that order.
    scenarios = list(repro.experiments.default_sweep(**SWEEP_GRID).scenarios)
    random.Random(seed).shuffle(scenarios)
    return SimpleNamespace(scenarios=tuple(scenarios), experiments=repro.experiments)


def sweep_body(inputs):
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="sweep-", dir=OUT_DIR)
    experiments = inputs.experiments
    results = experiments.SweepRunner(inputs.scenarios, workers=1).run(store_dir=out_dir)
    experiments.write_artifacts(results, out_dir=out_dir)
    return results, out_dir


def sweep_check(inputs, output) -> Outcome:
    results, _out_dir = output
    bad = {r.spec.content_key(): r.error for r in results if r.error is not None}
    for probe, metric in (("faithfulness", "faithful"), ("detection", "detected")):
        cells = [r for r in results if r.spec.probe == probe]
        if not cells:
            bad[f"no {probe} cell"] = None
        for r in cells:
            if r.values.get(metric) != 1.0:
                bad[r.spec.content_key()] = f"{metric} = {r.values.get(metric)}"
    missing = len(inputs.scenarios) - len(results)
    if missing:
        bad[f"{missing} cell(s) not returned"] = None
    total = len(inputs.scenarios)
    failed = min(total, len(bad) + missing)
    return Outcome(failed, [f"{key}: {why}" for key, why in bad.items()])


def sweep_fingerprint(inputs, output) -> str:
    _results, out_dir = output
    parts = {}
    for name in CANONICAL:
        with open(os.path.join(out_dir, name), "rb") as handle:
            parts[name] = hashlib.sha256(handle.read()).hexdigest()
    return digest(parts)


def sweep_cleanup(inputs, output) -> None:
    shutil.rmtree(output[1], ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload's hooks (see the module docstring).

    ``ops`` is how many ops one repetition attempts: one mechanism run
    (faithful), one epoch (churn), one settle (settle), one cell (sweep).
    """

    name: str
    ops: Callable
    setup: Callable
    body: Callable
    check: Callable
    fingerprint: Callable
    counts: Callable = lambda inputs, output: {}
    cleanup: Callable = lambda inputs, output: None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "faithful", ops=lambda inputs: 1, setup=faithful_setup,
            body=faithful_body, check=faithful_check,
            fingerprint=faithful_fingerprint, counts=faithful_counts,
        ),
        Workload(
            "churn", ops=lambda inputs: len(inputs.schedule.epochs),
            setup=churn_setup, body=churn_body, check=churn_check,
            fingerprint=churn_fingerprint, counts=churn_counts,
        ),
        Workload(
            "settle", ops=lambda inputs: 1, setup=settle_setup,
            body=settle_body, check=settle_check,
            fingerprint=settle_fingerprint, counts=settle_counts,
        ),
        Workload(
            "sweep", ops=lambda inputs: len(inputs.scenarios),
            setup=sweep_setup, body=sweep_body, check=sweep_check,
            fingerprint=sweep_fingerprint, cleanup=sweep_cleanup,
        ),
    )
}
