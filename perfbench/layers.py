"""Per-layer metrics of a traced run, and the trace self-check.

Self times come from the folded spans (``tracer.Tracer.fold``); exact
counts come from what the public API returned or holds after each
traced repetition: the simulators' metrics, every replay kernel's
``KernelStats``, ``MirrorKernelPool.collected_stats()``, the protocol's
``RunResult``, the ``ChurnRunResult``, the netted settlement and the
routing engines' counters; call counts come from the spans.  Every
value is per traced repetition.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from tracer import BUCKETS, TARGETS

#: Per-layer metrics in report order, with units; every traced run
#: reports all of them (a layer a workload does not reach reads 0).
UNITS: Dict[str, str] = {
    **{bucket: "s" for bucket in BUCKETS},
    "sim.events": "count",
    "sim.batches": "count",
    "sim.msgs_per_batch": "ratio",
    "sim.messages": "count",
    "sim.payload_units": "count",
    "crypto.calls": "count",
    "fpss.rows_sent": "count",
    "kernel.fixed_point_s": "s",
    "kernel.rows_ingested": "count",
    "kernel.route_relaxations": "count",
    "kernel.route_rescans": "count",
    "kernel.avoid_rescans": "count",
    "kernel.rescans_per_row": "ratio",
    "mirror.shared_hits": "count",
    "mirror.forks": "count",
    "mirror.seed_mismatches": "count",
    "mirror.copy_msgs": "count",
    "mirror.uncoalesced_copy_sends": "count",
    "mirror.share_ratio": "ratio",
    "protocol.runs": "count",
    "protocol.restarts": "count",
    "bank.flows_settled": "count",
    "bank.flow_groups": "count",
    "bank.transfer_records": "count",
    "bank.net_payouts": "count",
    "bank.netting_ratio": "ratio",
    "dynamic.reconvergence_messages": "count",
    "dynamic.amplification": "ratio",
    "engine.settled": "count",
    "engine.partial_runs": "count",
    "mechanism.runs": "count",
    "mechanism.run_s": "s",
    "mechanism.run_samples": "count",
    "experiments.cells": "count",
    "trace.wall_s": "s",
    "trace.other_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.reps": "count",
}

#: Tolerance of the self-check: self times plus ``trace.other_s`` must
#: reproduce each traced wall to within this many seconds.
RESIDUAL_S = 1e-6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: str, tracer, folded, untraced_wall: float
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Every per-layer metric of one traced run, plus self-check problems."""
    reps = folded["reps"]
    calls = folded["calls"]
    kept = tracer.kept

    def total_calls(*suffixes: str) -> int:
        return sum(calls[tracer.target(s)] for s in suffixes)

    def objects(suffix: str) -> list:
        return kept[tracer.target(suffix)]

    values: Dict[str, float] = dict(folded["bucket_self"])

    sim_metrics = objects(":Simulator.__init__")
    summaries = [m.summary() for m in sim_metrics]
    values["sim.events"] = sum(s["events_processed"] for s in summaries)
    values["sim.batches"] = total_calls(":ProtocolNode.deliver_batch")
    values["sim.messages"] = sum(s["total_messages"] for s in summaries)
    values["sim.payload_units"] = sum(s["total_payload_units"] for s in summaries)
    values["crypto.calls"] = total_calls(
        ":SigningAuthority.sign", ":SigningAuthority.verify", ":stable_hash"
    )
    values["fpss.rows_sent"] = (
        tracer.tallies[tracer.target(":ReplayKernel.consume_route_delta")]
        + tracer.tallies[tracer.target(":ReplayKernel.consume_avoid_delta")]
    )

    kernel_stats = objects(":ReplayKernel.__init__")
    for field in ("rows_ingested", "route_relaxations", "route_rescans", "avoid_rescans"):
        values[f"kernel.{field}"] = sum(getattr(s, field) for s in kernel_stats)
    values["kernel.fixed_point_s"] = sum(
        folded["inclusive"].get(tracer.target(":kernel_fixed_point"), ())
    )

    pool_stats = [pool.collected_stats() for pool in objects(":MirrorKernelPool.__init__")]
    for field in ("shared_hits", "forks", "seed_mismatches"):
        values[f"mirror.{field}"] = sum(getattr(s, field) for s in pool_stats)
    values["mirror.copy_msgs"] = sum(m.messages_of_kind("checker-copy") for m in sim_metrics)
    values["mirror.uncoalesced_copy_sends"] = sum(
        s["uncoalesced_copy_sends"] for s in summaries
    )

    runs = objects(":FaithfulFPSSProtocol.run")
    values["protocol.runs"] = len(runs)
    values["protocol.restarts"] = sum(r.detection.restarts for r in runs)

    netted = objects(":BankNode.settle_netted")
    for field in ("flows_settled", "flow_groups", "transfer_records", "net_payouts"):
        values[f"bank.{field}"] = sum(getattr(n, field) for n in netted)

    churn = objects(":DynamicTopologyEngine.run")
    values["dynamic.reconvergence_messages"] = sum(
        report.reconvergence_messages for run in churn for report in run.epochs
    )
    initial = sum(run.initial_messages for run in churn)

    engines = objects(":RoutingEngine.__init__")
    values["engine.settled"] = sum(e.settled for e in engines)
    values["engine.partial_runs"] = sum(e.partial_runs for e in engines)

    values["mechanism.runs"] = total_calls(":DistributedMechanism.run")
    values["experiments.cells"] = total_calls(":run_scenario")

    # Everything so far is a total over the traced repetitions.
    values = {
        k: (v if k in BUCKETS else v / reps) for k, v in values.items()
    }
    values["sim.msgs_per_batch"] = _ratio(values["sim.messages"], values["sim.batches"])
    values["kernel.rescans_per_row"] = _ratio(
        values["kernel.route_rescans"] + values["kernel.avoid_rescans"],
        values["kernel.rows_ingested"],
    )
    values["mirror.share_ratio"] = _ratio(
        values["mirror.shared_hits"], total_calls(":SharedKernel.ingest") / reps
    )
    values["bank.netting_ratio"] = _ratio(
        values["bank.transfer_records"], values["bank.net_payouts"]
    )
    values["dynamic.amplification"] = _ratio(
        values["dynamic.reconvergence_messages"], initial / reps
    )
    mechanism_runs = folded["inclusive"].get(tracer.target(":DistributedMechanism.run"), [])
    values["mechanism.run_s"] = statistics.median(mechanism_runs) if mechanism_runs else 0.0
    values["mechanism.run_samples"] = len(mechanism_runs) / reps
    values["trace.wall_s"] = folded["wall"]
    values["trace.other_s"] = folded["other"]
    values["trace.overhead_frac"] = _ratio(folded["wall"] - untraced_wall, untraced_wall)
    values["trace.spans"] = folded["spans_per_rep"]
    values["trace.reps"] = reps

    problems = self_check(workload, tracer, folded, values)
    return {name: (values[name], unit) for name, unit in UNITS.items()}, problems


def self_check(workload: str, tracer, folded, values) -> List[str]:
    """The trace's own consistency checks; returns what failed."""
    problems = []
    if folded["residual"] > RESIDUAL_S:
        problems.append(
            f"self times + trace.other_s miss the traced wall by "
            f"{folded['residual']:.3g} s"
        )
    if folded["open_spans"]:
        problems.append(f"{folded['open_spans']} span(s) never closed")
    for index, (_bucket, path, expect, _keep) in enumerate(TARGETS):
        if workload in expect and folded["calls"][index] == 0:
            problems.append(f"no call recorded for {path} on {workload}")
    if workload == "faithful":
        kernel = values["kernel.ingest_s"] + values["kernel.relax_s"]
        rivals = {
            name: values[name]
            for name in BUCKETS + ("trace.other_s",)
            if name not in ("kernel.ingest_s", "kernel.relax_s")
        }
        leader = max(rivals, key=rivals.get)
        if rivals[leader] >= kernel:
            problems.append(
                f"kernel ingest + relax ({kernel:.3f} s) is not the largest "
                f"share on faithful; {leader} is ({rivals[leader]:.3f} s)"
            )
    return problems
