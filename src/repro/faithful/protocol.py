"""Protocol orchestration: faithful and plain FPSS mechanism runs.

Reproduces: Section 4 of Shneidman & Parkes (PODC'04).
:class:`FaithfulFPSSProtocol` drives the complete extended
specification: the two construction phases separated by bank
checkpoints (with restart semantics), then the execution phase with
settlement; checker mirrors replay principals through one shared
replay kernel per principal (:mod:`repro.routing.kernel`) unless
``shared_checking=False`` selects the per-neighbour reference path.
:class:`PlainFPSSProtocol` runs the original, trusting FPSS — no
checkers, no bank examination, reported payments taken at face value —
providing the baseline that shows *why* the extension is needed
(experiment E5).  Both are built and driven by the shared helpers of
:mod:`repro.routing.convergence`.

Utility model (Section 4.3 assumptions):

* a node's money flow = payments received - charges paid - penalties;
* its real resource cost = true transit cost actually incurred;
* "every node wishes to make progress in the mechanism, and indeed has
  a strong negative value when a construction phase does not
  progress" — a run that exhausts its restart budget ends with every
  node receiving ``no_progress_utility``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..obs.trace import emit_marker
from ..routing.convergence import (
    EVENT_BUDGET,
    build_network,
    run_execution,
    run_phase,
    run_plain_fpss,
)
from ..routing.fpss import FPSSNode
from ..routing.graph import ASGraph, Cost, NodeId
from ..routing.kernel import MirrorKernelPool
from ..sim.crypto import SigningAuthority
from ..sim.simulator import Simulator
from .audit import DetectionReport, Flag
from .bank import BankNode
from .node import BANK_ID, FaithfulRoutingNode

#: (source, destination) -> packet volume.
TrafficMatrix = Mapping[Tuple[NodeId, NodeId], float]

#: Builds the node for one vertex; manipulation strategies substitute
#: deviant subclasses for their target node here.  Runs without a bank
#: pass no signing authority.
FaithfulNodeFactory = Callable[
    [NodeId, Cost, Optional[SigningAuthority]], FaithfulRoutingNode
]
PlainNodeFactory = Callable[[NodeId, Cost], FPSSNode]


@dataclass
class RunResult:
    """Everything a mechanism run produced."""

    progressed: bool
    utilities: Dict[NodeId, float]
    detection: DetectionReport
    received: Dict[NodeId, float] = field(default_factory=dict)
    charged: Dict[NodeId, float] = field(default_factory=dict)
    penalties: Dict[NodeId, float] = field(default_factory=dict)
    incurred: Dict[NodeId, float] = field(default_factory=dict)
    metrics: Dict[str, int] = field(default_factory=dict)
    construction_events: int = 0

    def utility_of(self, node_id: NodeId) -> float:
        """One node's realised utility."""
        return self.utilities[node_id]


class FaithfulFPSSProtocol:
    """One complete run of the extended (faithful) FPSS specification.

    Parameters
    ----------
    graph:
        The AS graph with *true* transit costs (deviant nodes may
        declare otherwise through their node subclass).
    traffic:
        Execution-phase traffic matrix.
    node_factory:
        Builds each node as ``node_factory(node_id, cost, signing)``;
        deviant subclasses (or fault adapters) are substituted here.
    max_restarts:
        Restart budget per construction checkpoint before the run is
        declared non-progressing.
    epsilon:
        The execution-phase penalty margin ("epsilon-above the
        attempted deviation").
    no_progress_utility:
        Utility assigned to every node when construction never
        certifies.
    shared_checking:
        Share one replay kernel per principal across all of its
        checkers within this (single-process) run — the
        :class:`~repro.routing.kernel.MirrorKernelPool` dedup; flags
        and digests are bit-identical either way (the sharing
        invariant is verified per mirror, never assumed).  ``False``
        keeps every mirror on its private per-neighbour replay, the
        retained reference path.
    """

    def __init__(
        self,
        graph: ASGraph,
        traffic: TrafficMatrix,
        node_factory: FaithfulNodeFactory = FaithfulRoutingNode,
        max_restarts: int = 2,
        epsilon: float = 0.01,
        no_progress_utility: float = -1000.0,
        link_delays=1.0,
        bank_honors_flags: bool = True,
        shared_checking: bool = True,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory
        self.max_restarts = max_restarts
        self.epsilon = epsilon
        self.no_progress_utility = no_progress_utility
        #: Constant, mapping, or callable per-link delay (asynchrony).
        self.link_delays = link_delays
        #: Ablation switch: when False, BANK1/BANK2 compare digests
        #: only and ignore checker flags (used to show the flags are a
        #: necessary ingredient, not redundancy).
        self.bank_honors_flags = bank_honors_flags
        self.shared_checking = shared_checking
        #: The run's shared-replay pool (None until :meth:`run`, or
        #: with ``shared_checking=False``); exposes dedup counters.
        self.mirror_pool: Optional[MirrorKernelPool] = None
        #: The built network and bank (None until :meth:`run`); the
        #: bank retains the collected stage reports, so callers can
        #: re-settle them (e.g. per-flow vs. columnar equivalence).
        self.nodes: Optional[Dict[NodeId, FaithfulRoutingNode]] = None
        self.bank: Optional[BankNode] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _build(self) -> Tuple[Simulator, Dict[NodeId, FaithfulRoutingNode], BankNode]:
        signing = SigningAuthority()
        for node_id in self.graph.nodes:
            signing.register(node_id)
        simulator, nodes, keys = build_network(
            self.graph, self.node_factory, signing, link_delays=self.link_delays
        )
        self.mirror_pool = MirrorKernelPool(keys) if self.shared_checking else None
        for node in nodes.values():
            node.mirror_pool = self.mirror_pool
        signing.register(BANK_ID)
        bank = BankNode(signing)
        simulator.add_node(bank, well_known=True)
        return simulator, nodes, bank

    def _checker_map(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Every neighbour of a node is a checker for that node."""
        return {n: self.graph.neighbors(n) for n in self.graph.nodes}

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute construction -> checkpoints -> execution -> settle."""
        simulator, nodes, bank = self._build()
        # Expose the built network so callers (e.g. the settlement
        # equivalence tests) can re-settle the collected reports.
        self.nodes = nodes
        self.bank = bank
        node_ids = tuple(sorted(nodes, key=repr))
        detection = DetectionReport()
        checker_map = self._checker_map()
        construction_events = 0

        # ---------------- first construction phase -------------------
        phase1_certified = False
        for attempt in range(self.max_restarts + 1):
            construction_events += run_phase(
                simulator, nodes, "phase1", attempt=attempt
            )
            bank.request_reports("phase1", node_ids)
            construction_events += simulator.run_until_quiescent(EVENT_BUDGET)
            decision = bank.decide_phase1(node_ids)
            detection.record(decision)
            if decision.green_light:
                phase1_certified = True
                break
        if not phase1_certified:
            return self._no_progress_result(
                simulator, nodes, detection, construction_events
            )

        # Checker-setup handshake: share connectivity with checkers.
        for node_id in node_ids:
            nodes[node_id].prepare_checking(
                {
                    neighbor: self.graph.neighbors(neighbor)
                    for neighbor in self.graph.neighbors(node_id)
                }
            )

        # ---------------- second construction phase ------------------
        phase2_certified = False
        for attempt in range(self.max_restarts + 1):
            if self.mirror_pool is not None:
                # A restart replays the phase from scratch; restarted
                # mirrors must never attach to a consumed op log.
                self.mirror_pool.new_epoch()
                emit_marker("mirror.epoch", sim_time=simulator.now)
            construction_events += run_phase(
                simulator, nodes, "phase2", attempt=attempt
            )

            bank.request_reports("bank1", node_ids)
            construction_events += simulator.run_until_quiescent(EVENT_BUDGET)
            decision1 = bank.decide_bank1(
                checker_map, honor_flags=self.bank_honors_flags
            )
            detection.record(decision1)
            if decision1.deviation_detected:
                continue

            bank.request_reports("bank2", node_ids)
            construction_events += simulator.run_until_quiescent(EVENT_BUDGET)
            decision2 = bank.decide_bank2(
                checker_map, honor_flags=self.bank_honors_flags
            )
            detection.record(decision2)
            if decision2.deviation_detected:
                continue
            phase2_certified = True
            break
        if not phase2_certified:
            return self._no_progress_result(
                simulator, nodes, detection, construction_events
            )

        # ---------------- execution phase ----------------------------
        run_execution(simulator, nodes, self.traffic)
        bank.request_reports("execution", node_ids)
        simulator.run_until_quiescent(EVENT_BUDGET)
        records, settlement_flags = bank.settle(
            node_ids,
            declared_costs={n: nodes[n].comp.costs.cost(n) for n in node_ids},
            epsilon=self.epsilon,
        )
        detection.settlement_flags.extend(settlement_flags)

        utilities: Dict[NodeId, float] = {}
        received: Dict[NodeId, float] = {}
        charged: Dict[NodeId, float] = {}
        penalties: Dict[NodeId, float] = {}
        incurred: Dict[NodeId, float] = {}
        for node_id in node_ids:
            record = records[node_id]
            received[node_id] = record.received
            charged[node_id] = record.charged
            penalties[node_id] = record.penalties
            incurred[node_id] = nodes[node_id].incurred_cost
            utilities[node_id] = (
                record.received
                - record.charged
                - record.penalties
                - nodes[node_id].incurred_cost
            )

        return RunResult(
            progressed=True,
            utilities=utilities,
            detection=detection,
            received=received,
            charged=charged,
            penalties=penalties,
            incurred=incurred,
            metrics=simulator.metrics.summary(),
            construction_events=construction_events,
        )

    def _no_progress_result(
        self,
        simulator: Simulator,
        nodes: Mapping[NodeId, FaithfulRoutingNode],
        detection: DetectionReport,
        construction_events: int,
    ) -> RunResult:
        detection.progressed = False
        return RunResult(
            progressed=False,
            utilities={n: self.no_progress_utility for n in nodes},
            detection=detection,
            metrics=simulator.metrics.summary(),
            construction_events=construction_events,
        )


class PlainFPSSProtocol:
    """The original FPSS: trusting construction and settlement.

    Nodes exchange and believe each other's tables; at settlement each
    origin pays exactly what it *reports* owing, and transit nodes
    receive those reported amounts.  No deviation is ever detected —
    this is the baseline whose manipulation gains the faithful
    extension eliminates.
    """

    def __init__(
        self,
        graph: ASGraph,
        traffic: TrafficMatrix,
        node_factory: PlainNodeFactory = FPSSNode,
        link_delays=1.0,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory
        self.link_delays = link_delays

    def run(self) -> RunResult:
        """Construction to quiescence, traffic, trusting settlement."""
        simulator, nodes, stats = run_plain_fpss(
            self.graph, self.node_factory, self.link_delays
        )
        node_ids = tuple(sorted(nodes, key=repr))
        run_execution(simulator, nodes, self.traffic)

        # Trusting settlement: reported DATA4 is simply executed.
        received: Dict[NodeId, float] = {n: 0.0 for n in node_ids}
        charged: Dict[NodeId, float] = {n: 0.0 for n in node_ids}
        for node_id in node_ids:
            for payee, amount in nodes[node_id].report_payments().items():
                charged[node_id] += amount
                if payee in received:
                    received[payee] += amount

        utilities = {
            n: received[n] - charged[n] - nodes[n].incurred_cost for n in node_ids
        }
        return RunResult(
            progressed=True,
            utilities=utilities,
            detection=DetectionReport(),
            received=received,
            charged=charged,
            penalties={n: 0.0 for n in node_ids},
            incurred={n: nodes[n].incurred_cost for n in node_ids},
            metrics=simulator.metrics.summary(),
            construction_events=stats.total_events,
        )


def collect_construction_flags(
    nodes: Dict[NodeId, FaithfulRoutingNode]
) -> list:
    """Quiescence-time mirror flags across a network, stably ordered.

    Encodes each :class:`~repro.faithful.audit.Flag` via
    ``encode_flag`` after sorting by :meth:`~repro.faithful.audit.
    Flag.sort_key`, so two runs of one scenario can be compared for
    bit-identical detection output regardless of mirror iteration
    order.
    """
    from .node import encode_flag

    flags: list = []
    for node_id in sorted(nodes, key=repr):
        node = nodes[node_id]
        flags.extend(node.execution_flags)
        for _principal, mirror in sorted(
            node.mirrors.items(), key=lambda kv: repr(kv[0])
        ):
            flags.extend(mirror.flags)
    flags.sort(key=Flag.sort_key)
    return [encode_flag(f) for f in flags]
