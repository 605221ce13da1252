"""Scenario execution: one worker function, serial or pooled.

:func:`run_scenario` is the single entry point that turns one
:class:`~repro.experiments.spec.ScenarioSpec` into a typed
:class:`ScenarioResult`.  It is a module-level function of a picklable
argument, so :class:`SweepRunner` can ship it unchanged into a
:mod:`multiprocessing` pool; each worker process keeps its own
:func:`~repro.routing.engine.engine_for` cache, so scenarios sharing a
graph within a worker reuse one memoized routing engine.

Probes
------
``payments``
    Route the traffic matrix through the centralized VCG oracle and
    record totals, the overpayment ratio (VCG paid / true transit cost
    incurred), and the LCP routing cost.
``convergence``
    Run the plain FPSS protocol to quiescence (optionally under
    heterogeneous link delays), verify the fixed point against the
    oracle, and record event/message counts.
``detection``
    Install one catalogued manipulation on one node, run the faithful
    protocol against its obedient baseline, and record the deviator's
    gain, whether the deviation was detected, and restarts.
``faithfulness``
    Run the Proposition-1 verifier over the scenario's own type
    profile and a (small) catalogue subset.  Orders of magnitude more
    expensive than the other probes — meant for small graphs.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ExperimentError, ReproError
from ..faithful import DEVIATION_CATALOGUE, run_deviation
from ..mechanism.faithfulness import proposition1_verdict
from ..mechanism.types import TypeProfile
from ..obs.events import BUS
from ..obs.trace import NOOP_SPAN, aggregate_counters, span
from ..routing.convergence import run_plain_fpss, verify_against_oracle
from ..routing.vcg_payments import economics_under_traffic
from .deviations import routing_distributed_mechanism
from .spec import ScenarioSpec, SweepSpec

#: Cheap default catalogue subset for the faithfulness probe.
_DEFAULT_FAITHFULNESS_DEVIATIONS = ("cost-lie", "payment-underreport")


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario produced, flattened for aggregation."""

    spec: ScenarioSpec
    scenario_id: str
    nodes: int
    edges: int
    flows: int
    total_volume: float
    wall_time: float
    #: Numeric probe outputs; keys depend on the probe (see metrics()).
    values: Mapping[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the scenario ran to completion."""
        return self.error is None

    #: Structural metrics every probe reports, in artifact column order.
    STRUCTURAL_METRICS = ("nodes", "edges", "flows", "traffic_volume")

    def metrics(self) -> Dict[str, float]:
        """All numeric metrics, including the structural ones.

        ``wall_time`` is deliberately *not* a metric: it is the one
        volatile field on a result, and keeping it out of rows and
        summaries is what makes artifacts byte-identical across
        sharded, resumed, and serial runs of the same grid.  Timing
        lives on the result object (and in ``cells.jsonl`` records).
        """
        row = {
            "nodes": float(self.nodes),
            "edges": float(self.edges),
            "flows": float(self.flows),
            # Not "total_volume": that name is a gravity *input* knob on
            # the spec, and artifact rows carry both side by side.
            "traffic_volume": self.total_volume,
        }
        row.update(self.values)
        return row

    def to_row(self) -> Dict[str, Any]:
        """One flat artifact row: key + spec fields + metrics + status."""
        row: Dict[str, Any] = {
            "cell_key": self.spec.content_key(),
            "scenario_id": self.scenario_id,
        }
        row.update(self.spec.to_dict())
        row.pop("faithfulness_deviations", None)
        row.update(self.metrics())
        row["error"] = self.error or ""
        return row

    def to_record(self) -> Dict[str, Any]:
        """A lossless JSON-ready record (one ``cells.jsonl`` line).

        Unlike the flat CSV row, the record keeps the full structured
        spec (so the result is exactly reconstructible) and the
        volatile ``wall_time`` (which stays out of the canonical
        artifacts).
        """
        return {
            "key": self.spec.content_key(),
            "spec": self.spec.to_dict(),
            "scenario_id": self.scenario_id,
            "nodes": self.nodes,
            "edges": self.edges,
            "flows": self.flows,
            "total_volume": self.total_volume,
            "wall_time": self.wall_time,
            "values": dict(self.values),
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from a stored record.

        The stored key is checked against the reconstructed spec's own
        content key, so records written by an incompatible schema
        version fail loudly instead of silently matching wrong cells.
        """
        try:
            spec = ScenarioSpec.from_dict(record["spec"])
            result = cls(
                spec=spec,
                scenario_id=str(record["scenario_id"]),
                nodes=int(record["nodes"]),
                edges=int(record["edges"]),
                flows=int(record["flows"]),
                total_volume=float(record["total_volume"]),
                wall_time=float(record["wall_time"]),
                values={
                    str(k): float(v) for k, v in record["values"].items()
                },
                error=record["error"],
            )
        except ExperimentError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ExperimentError(f"malformed cell record: {exc}") from exc
        if record["key"] != spec.content_key():
            raise ExperimentError(
                f"cell record key {record['key']!r} does not match its "
                f"spec (expected {spec.content_key()!r}); the artifact "
                f"was written by an incompatible version"
            )
        return result

    def comparable(self) -> Tuple:
        """The identity-relevant payload, timing excluded.

        Two runs of one deterministic cell agree on everything except
        ``wall_time``; this is the equality merge conflict detection
        uses.
        """
        return (
            self.spec,
            self.scenario_id,
            self.nodes,
            self.edges,
            self.flows,
            self.total_volume,
            tuple(sorted(self.values.items())),
            self.error,
        )


def _payments_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    economics = economics_under_traffic(
        graph, graph, traffic, payment_rule=spec.payment_rule
    )
    total_paid = sum(e.paid for e in economics.values())
    true_cost = sum(e.true_transit_cost for e in economics.values())
    return {
        "total_payment": total_paid,
        "true_transit_cost": true_cost,
        # VCG individual rationality makes this >= 1 on every scenario;
        # its distribution over the grid is the paper's overpayment story.
        "overpayment_ratio": total_paid / true_cost if true_cost else 1.0,
    }


def _convergence_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    _simulator, nodes, stats = run_plain_fpss(
        graph, link_delays=spec.link_delays()
    )
    verify_against_oracle(graph, nodes, check_prices=False)
    return {
        "phase1_events": float(stats.phase1_events),
        "phase2_events": float(stats.phase2_events),
        "convergence_events": float(stats.total_events),
        "messages": float(stats.total_messages),
        "computations": float(stats.total_computations),
    }


def _detection_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    deviation = DEVIATION_CATALOGUE[spec.deviation]
    nodes = sorted(graph.nodes, key=repr)
    deviant = nodes[spec.deviant_index % len(nodes)]
    baseline = run_deviation(graph, traffic)
    deviated = run_deviation(graph, traffic, node=deviant, spec=deviation)
    gain = deviated.utilities[deviant] - baseline.utilities[deviant]
    return {
        "detected": float(deviated.detection.detected_any),
        "deviator_gain": gain,
        "restarts": float(deviated.detection.restarts),
        "flags": float(len(deviated.detection.all_flags)),
        "progressed": float(deviated.progressed),
    }


def _faithfulness_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    names = spec.faithfulness_deviations or _DEFAULT_FAITHFULNESS_DEVIATIONS
    mechanism = routing_distributed_mechanism(
        graph, traffic, deviations=names, faithful=True
    )
    profiles = [TypeProfile({n: graph.cost(n) for n in graph.nodes})]
    verdict = proposition1_verdict(mechanism, profiles)
    return verdict.summary()


def _churn_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    """Dynamic-topology probe: churn the graph, verify every epoch.

    Draws a seeded :func:`~repro.sim.churn.random_churn_schedule`
    (independent of the topology/traffic/delay draws), runs the
    :class:`~repro.routing.dynamic.DynamicTopologyEngine` with the
    scenario's traffic re-routed after every reconvergence epoch, and
    reports reconvergence cost and service quality.  The engine's
    epoch-equivalence oracle stays on, so every cell also *asserts*
    post-epoch tables equal a fresh fixed point.
    """
    import random as _random

    from ..routing.dynamic import run_dynamic_fpss
    from ..sim.churn import random_churn_schedule

    kinds = ("cost", "link-down", "link-up")
    if spec.churn_membership:
        kinds = kinds + ("leave", "join")
    schedule = random_churn_schedule(
        graph,
        _random.Random(spec.seed + 3),  # independent of draws +0/+1/+2
        epochs=spec.churn_epochs,
        events_per_epoch=spec.churn_events,
        kinds=kinds,
        cost_range=(spec.cost_low, spec.cost_high),
        require="connected",
        seed=spec.seed + 3,
    )
    run = run_dynamic_fpss(
        graph,
        schedule,
        traffic=dict(traffic),
        link_delays=spec.link_delays(),
    )
    return {
        "churn_epochs_run": float(len(run.epochs)),
        "churn_events_applied": float(
            sum(len(report.events) for report in run.epochs)
        ),
        "initial_messages": float(run.initial_messages),
        "reconvergence_events": float(
            sum(report.reconvergence_events for report in run.epochs)
        ),
        "reconvergence_messages": float(
            sum(report.reconvergence_messages for report in run.epochs)
        ),
        "reconvergence_time": float(
            sum(report.reconvergence_time for report in run.epochs)
        ),
        "message_amplification": run.message_amplification,
        "availability": run.availability,
        "routed_flows": float(
            sum(report.routed_flows for report in run.epochs)
        ),
        "unroutable_flows": float(
            sum(report.unroutable_flows for report in run.epochs)
        ),
        "churn_payments": sum(report.payments_total for report in run.epochs),
    }


def _settlement_probe(
    spec: ScenarioSpec, graph, traffic
) -> Dict[str, float]:
    """Batched-bank probe: settle synthesized reports, net, audit.

    Builds honest execution reports straight from the scenario's VCG
    route bundle (no packet simulation), runs the columnar settle with
    epoch netting, checks the per-flow and batch transfer lists net to
    bit-identical money positions, and dry-runs forced settlement
    (honest reports -> no shortfall, no deposit draw).  The headline
    metric is ``netting_ratio``: per-flow transfer records per batch
    payout row.
    """
    from ..faithful.bank import BankNode
    from ..faithful.settlement import (
        net_positions,
        synthesize_execution_reports,
    )

    reports = synthesize_execution_reports(graph, traffic, repeats=1)
    bank = BankNode()
    bank.reports["execution"] = reports
    node_ids = tuple(sorted(graph.nodes, key=repr))
    declared = {n: graph.cost(n) for n in node_ids}
    result = bank.settle_netted(node_ids, declared)
    per_flow = net_positions(result.per_flow_transfers, nodes=node_ids)
    netted = net_positions(result.transfers, nodes=node_ids)
    drift = max(
        abs(per_flow[n] - netted[n]) for n in node_ids
    )
    forced = bank.run_forced_settlement(result.ledger, at_time=0.0)
    payouts = result.net_payouts
    return {
        "flows_settled": float(result.flows_settled),
        "flow_groups": float(result.flow_groups),
        "transfer_records": float(result.transfer_records),
        "net_transfers": float(len(result.transfers)),
        "net_payouts": float(payouts),
        "netting_ratio": (
            result.transfer_records / payouts if payouts else 1.0
        ),
        "net_position_drift": drift,
        "forced_settlements": float(len(forced)),
        "settlement_flags": float(len(result.flags)),
    }


_PROBES = {
    "payments": _payments_probe,
    "convergence": _convergence_probe,
    "detection": _detection_probe,
    "faithfulness": _faithfulness_probe,
    "churn": _churn_probe,
    "settlement": _settlement_probe,
}


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario and return its typed result.

    Library-level failures (:class:`ReproError`) are captured into the
    result's ``error`` field so one bad cell cannot sink a whole sweep;
    programming errors still propagate.
    """
    spec.validate()
    started = time.perf_counter()
    nodes = edges = flows = 0
    volume = 0.0
    values: Dict[str, float] = {}
    error: Optional[str] = None
    probe_span = (
        span("cell.probe", key=spec.content_key(), probe=spec.probe)
        if BUS.enabled
        else NOOP_SPAN
    )
    with probe_span:
        try:
            # Construction stays inside the capture: generator-level
            # failures (e.g. a heavy-tail distribution with a zero
            # anchor) are per-cell data, not grounds to abort the grid.
            graph = spec.build_graph()
            traffic = spec.build_traffic(graph)
            nodes, edges = len(graph.nodes), len(graph.edges)
            flows = sum(1 for v in traffic.values() if v > 0)
            volume = sum(traffic.values())
            values = _PROBES[spec.probe](spec, graph, traffic)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        probe_span.note(ok=error is None)
    return ScenarioResult(
        spec=spec,
        scenario_id=spec.scenario_id(),
        nodes=nodes,
        edges=edges,
        flows=flows,
        total_volume=volume,
        wall_time=time.perf_counter() - started,
        values=values,
        error=error,
    )


def run_scenario_traced(
    spec: ScenarioSpec,
) -> Tuple[ScenarioResult, Dict[str, int]]:
    """Run one scenario, capturing its telemetry counter totals.

    The scenario's instrumentation lands in an in-memory ring on the
    default bus (never a file) and is reduced to aggregated counter
    totals — the "workers enqueue, the parent serializes" half that
    lets pooled workers ship telemetry home as a plain picklable dict
    riding alongside the result.
    """
    with BUS.capture() as sink:
        result = run_scenario(spec)
    return result, aggregate_counters(sink.events)


def _run_indexed(item: Tuple[int, ScenarioSpec]) -> Tuple[int, ScenarioResult]:
    index, spec = item
    return index, run_scenario(spec)


def _run_indexed_traced(
    item: Tuple[int, ScenarioSpec],
) -> Tuple[int, ScenarioResult, Dict[str, int]]:
    index, spec = item
    result, counters = run_scenario_traced(spec)
    return index, result, counters


class SweepRunner:
    """Execute a list of scenarios, serially or across a worker pool.

    Parameters
    ----------
    scenarios:
        The concrete grid (a :class:`SweepSpec` or a plain sequence) —
        possibly one shard of a larger grid, see
        :func:`~repro.experiments.spec.shard_grid`.
    workers:
        ``1`` (the default) runs in-process.  Larger values fan out
        over a ``multiprocessing`` pool; results come back in grid
        order regardless of completion order.  ``0`` means "one worker
        per available CPU".
    resume_dir:
        A prior artifact directory.  Cells whose content key appears in
        its ``cells.jsonl`` with a result are *reused*, not re-run; the
        store tolerates a truncated final record, so resuming from a
        killed sweep loses at most the cells that were in flight.
    retry_errors:
        With ``resume_dir``, re-run cells whose prior record captured
        an error instead of reusing the error row.
    allow_empty:
        Accept an empty grid (a shard of a grid smaller than the shard
        count) and return no results instead of raising.
    progress:
        Print one line to stderr per completed cell (status, probe,
        content key, wall time).  Off by default; stderr only, so
        canonical stdout/artifact output is unaffected.

    After :meth:`run`, ``self.reused`` counts the cells satisfied from
    ``resume_dir`` rather than executed.
    """

    def __init__(
        self,
        scenarios,
        workers: int = 1,
        resume_dir: Optional[str] = None,
        retry_errors: bool = False,
        allow_empty: bool = False,
        progress: bool = False,
    ) -> None:
        if isinstance(scenarios, SweepSpec):
            scenarios = scenarios.scenarios
        self.scenarios: Tuple[ScenarioSpec, ...] = tuple(scenarios)
        if not self.scenarios and not allow_empty:
            raise ExperimentError("nothing to sweep")
        for spec in self.scenarios:
            spec.validate()
        if workers < 0:
            raise ExperimentError("workers must be non-negative")
        if workers == 0:
            workers = multiprocessing.cpu_count()
        self.workers = workers
        self.resume_dir = resume_dir
        self.retry_errors = retry_errors
        self.reused = 0
        self.progress = progress

    def run(
        self,
        store_dir: Optional[str] = None,
        feed=None,
        feed_name: str = "sweep",
    ) -> List[ScenarioResult]:
        """All results, in the same order as ``self.scenarios``.

        With ``store_dir``, every completed cell is appended to that
        directory's ``cells.jsonl`` as it finishes (one atomic line per
        cell), so a killed run leaves a resumable prefix behind.  Cells
        reused from ``resume_dir`` are copied into the store as well,
        making the store self-contained even when it is a fresh
        directory.

        With ``feed`` (a :class:`~repro.obs.feed.SweepFeed`), the run
        publishes its lifecycle — sweep/cell start, finish, error,
        reuse — and each executed cell additionally runs under a
        telemetry capture whose aggregated counters ride on its
        completion record.  Only this (parent) process writes the feed;
        pooled workers return their counters with the result, so serial
        and pooled runs emit record-equivalent feeds.  The feed never
        touches the canonical artifacts.
        """
        # Imported lazily: artifacts.py needs ScenarioResult from this
        # module at import time.
        from .artifacts import CellStore

        prior: Dict[str, ScenarioResult] = {}
        if self.resume_dir is not None:
            resume_store = CellStore(self.resume_dir)
            if not resume_store.exists():
                # A typo'd --resume silently re-running the whole grid
                # would discard hours of prior compute; fail loudly.
                raise ExperimentError(
                    f"cannot resume: no cells.jsonl in "
                    f"{self.resume_dir!r} (not a sweep artifact "
                    f"directory)"
                )
            prior = resume_store.load()
        store: Optional[CellStore] = None
        stored_keys: set = set()
        if store_dir is not None:
            store = CellStore(store_dir)
            stored_keys = set(store.load())
            store.ensure()

        results: List[Optional[ScenarioResult]] = [None] * len(self.scenarios)
        pending: List[Tuple[int, ScenarioSpec]] = []
        self.reused = 0
        for index, spec in enumerate(self.scenarios):
            key = spec.content_key()
            hit = prior.get(key)
            if hit is not None and (hit.ok or not self.retry_errors):
                results[index] = hit
                self.reused += 1
                if store is not None and key not in stored_keys:
                    store.append(hit)
                    stored_keys.add(key)
            else:
                pending.append((index, spec))

        if feed is not None:
            feed.sweep_start(
                name=feed_name,
                total=len(self.scenarios),
                pending=len(pending),
                reused=self.reused,
                workers=self.workers,
            )
            for result in results:
                if result is not None:
                    feed.cell_reused(result)

        done = 0

        def record(
            index: int,
            result: ScenarioResult,
            counters: Optional[Dict[str, int]] = None,
        ) -> None:
            nonlocal done
            done += 1
            results[index] = result
            if store is not None:
                store.append(result)
            if feed is not None:
                feed.cell_result(result, counters)
            if self.progress:
                status = (
                    "ok"
                    if result.ok
                    else (result.error or "error").split(":", 1)[0]
                )
                print(
                    f"[{done}/{len(pending)}] {status} "
                    f"{result.spec.probe} {result.spec.content_key()} "
                    f"({result.wall_time:.2f}s)",
                    file=sys.stderr,
                    flush=True,
                )

        if self.workers == 1 or len(pending) <= 1:
            for index, spec in pending:
                if feed is not None:
                    feed.cell_start(spec)
                    result, counters = run_scenario_traced(spec)
                    record(index, result, counters)
                else:
                    record(index, run_scenario(spec))
        else:
            self._run_pooled(pending, record, feed)

        if feed is not None:
            final = [r for r in results if r is not None]
            feed.sweep_finish(
                completed=len(final),
                failures=sum(1 for r in final if not r.ok),
            )
        return [r for r in results if r is not None]

    def _run_pooled(self, pending, record, feed=None) -> None:
        # fork shares the imported library with the children for free;
        # platforms without it (Windows, macOS spawn default) fall back
        # to the default start method, which re-imports repro.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods and sys.platform != "win32" else None
        )
        if feed is not None:
            # All dispatch records are written up front by this
            # process; workers only ever enqueue into their own rings.
            for _index, spec in pending:
                feed.cell_start(spec)
        with context.Pool(processes=self.workers) as pool:
            if feed is not None:
                for index, result, counters in pool.imap_unordered(
                    _run_indexed_traced, pending, chunksize=1
                ):
                    record(index, result, counters)
            else:
                for index, result in pool.imap_unordered(
                    _run_indexed, pending, chunksize=1
                ):
                    record(index, result)


def run_sweep(
    sweep: SweepSpec, workers: int = 1
) -> List[ScenarioResult]:
    """Convenience wrapper: expand-free execution of a parsed sweep."""
    return SweepRunner(sweep, workers=workers).run()
