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
(experiment E5).  :func:`run_checked_construction` isolates the fully
mirrored construction (no bank, no traffic) for the checker-scaling
benchmarks and parity tests.

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

from ..errors import ConvergenceError
from ..obs.trace import emit_marker
from ..routing.fpss import FPSSNode, install_key_space
from ..routing.graph import ASGraph, Cost, NodeId
from ..routing.kernel import KernelStats, MirrorKernelPool
from ..sim.crypto import SigningAuthority
from ..sim.simulator import Simulator
from ..routing.convergence import topology_from_graph, verify_against_oracle
from .audit import DetectionReport, Flag
from .bank import BankNode
from .node import BANK_ID, FaithfulRoutingNode

#: (source, destination) -> packet volume.
TrafficMatrix = Mapping[Tuple[NodeId, NodeId], float]

#: Builds the node for one vertex; manipulation strategies substitute
#: deviant subclasses for their target node here.
FaithfulNodeFactory = Callable[[NodeId, Cost, SigningAuthority], FaithfulRoutingNode]
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
        Optional substitution hook for deviant node subclasses.
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
        node_factory: Optional[FaithfulNodeFactory] = None,
        max_restarts: int = 2,
        epsilon: float = 0.01,
        no_progress_utility: float = -1000.0,
        max_events: int = 2_000_000,
        link_delays=1.0,
        bank_honors_flags: bool = True,
        node_adapters: Optional[Callable[[FaithfulRoutingNode], None]] = None,
        shared_checking: bool = True,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory or (
            lambda node_id, cost, signing: FaithfulRoutingNode(
                node_id, cost, signing
            )
        )
        self.max_restarts = max_restarts
        self.epsilon = epsilon
        self.no_progress_utility = no_progress_utility
        self.max_events = max_events
        #: Constant, mapping, or callable per-link delay (asynchrony).
        self.link_delays = link_delays
        #: Ablation switch: when False, BANK1/BANK2 compare digests
        #: only and ignore checker flags (used to show the flags are a
        #: necessary ingredient, not redundancy).
        self.bank_honors_flags = bank_honors_flags
        #: Optional hook applied to every node after construction,
        #: e.g. installing failure adapters for the Section 5
        #: experiments (omission faults on obedient nodes).
        self.node_adapters = node_adapters
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
        simulator = Simulator(
            topology_from_graph(self.graph, delay=self.link_delays)
        )
        nodes: Dict[NodeId, FaithfulRoutingNode] = {}
        for node_id in self.graph.nodes:
            signing.register(node_id)
            node = self.node_factory(node_id, self.graph.cost(node_id), signing)
            if self.node_adapters is not None:
                self.node_adapters(node)
            nodes[node_id] = node
            simulator.add_node(node)
        keys = install_key_space(nodes)
        self.mirror_pool = MirrorKernelPool(keys) if self.shared_checking else None
        for node in nodes.values():
            node.mirror_pool = self.mirror_pool
        signing.register(BANK_ID)
        bank = BankNode(signing)
        simulator.add_node(bank, well_known=True)
        return simulator, nodes, bank

    def _quiesce(self, simulator: Simulator) -> int:
        return simulator.run_until_quiescent(max_events=self.max_events)

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
        for _attempt in range(self.max_restarts + 1):
            emit_marker(
                "protocol.phase",
                sim_time=simulator.now,
                phase="phase1",
                attempt=_attempt,
            )
            for node_id in node_ids:
                simulator.schedule_local(
                    node_id, 0.0, nodes[node_id].start_phase1, label="phase1"
                )
            construction_events += self._quiesce(simulator)
            bank.request_reports("phase1", node_ids)
            construction_events += self._quiesce(simulator)
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
        for _attempt in range(self.max_restarts + 1):
            emit_marker(
                "protocol.phase",
                sim_time=simulator.now,
                phase="phase2",
                attempt=_attempt,
            )
            if self.mirror_pool is not None:
                # A restart replays the phase from scratch; restarted
                # mirrors must never attach to a consumed op log.
                self.mirror_pool.new_epoch()
                emit_marker("mirror.epoch", sim_time=simulator.now)
            for node_id in node_ids:
                simulator.schedule_local(
                    node_id, 0.0, nodes[node_id].start_phase2, label="phase2"
                )
            construction_events += self._quiesce(simulator)

            bank.request_reports("bank1", node_ids)
            construction_events += self._quiesce(simulator)
            decision1 = bank.decide_bank1(
                checker_map, honor_flags=self.bank_honors_flags
            )
            detection.record(decision1)
            if decision1.deviation_detected:
                continue

            bank.request_reports("bank2", node_ids)
            construction_events += self._quiesce(simulator)
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
        emit_marker(
            "protocol.phase", sim_time=simulator.now, phase="execution"
        )
        for node_id in node_ids:
            nodes[node_id].start_execution()
        for (source, destination), volume in sorted(self.traffic.items(), key=repr):
            if volume <= 0:
                continue
            node = nodes[source]
            simulator.schedule_local(
                source,
                0.0,
                lambda n=node, d=destination, v=volume: n.originate_flow(d, v),
                label="originate",
            )
        self._quiesce(simulator)

        bank.request_reports("execution", node_ids)
        self._quiesce(simulator)
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
        node_factory: Optional[PlainNodeFactory] = None,
        max_events: int = 2_000_000,
        link_delays=1.0,
    ) -> None:
        graph.require_biconnected()
        self.graph = graph
        self.traffic = dict(traffic)
        self.node_factory = node_factory or (
            lambda node_id, cost: FPSSNode(node_id, cost)
        )
        self.max_events = max_events
        self.link_delays = link_delays

    def run(self) -> RunResult:
        """Construction to quiescence, traffic, trusting settlement."""
        simulator = Simulator(
            topology_from_graph(self.graph, delay=self.link_delays)
        )
        nodes: Dict[NodeId, FPSSNode] = {}
        for node_id in self.graph.nodes:
            node = self.node_factory(node_id, self.graph.cost(node_id))
            nodes[node_id] = node
            simulator.add_node(node)
        install_key_space(nodes)
        node_ids = tuple(sorted(nodes, key=repr))

        construction_events = 0
        emit_marker("protocol.phase", sim_time=simulator.now, phase="phase1")
        for node_id in node_ids:
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].start_phase1, label="phase1"
            )
        construction_events += simulator.run_until_quiescent(self.max_events)
        emit_marker("protocol.phase", sim_time=simulator.now, phase="phase2")
        for node_id in node_ids:
            simulator.schedule_local(
                node_id, 0.0, nodes[node_id].start_phase2, label="phase2"
            )
        construction_events += simulator.run_until_quiescent(self.max_events)

        emit_marker(
            "protocol.phase", sim_time=simulator.now, phase="execution"
        )
        for node_id in node_ids:
            nodes[node_id].start_execution()
        for (source, destination), volume in sorted(self.traffic.items(), key=repr):
            if volume <= 0:
                continue
            node = nodes[source]
            simulator.schedule_local(
                source,
                0.0,
                lambda n=node, d=destination, v=volume: n.originate_flow(d, v),
                label="originate",
            )
        simulator.run_until_quiescent(self.max_events)

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
            construction_events=construction_events,
        )


@dataclass
class CheckedConstruction:
    """Result of a fully mirrored construction run (no bank, no traffic).

    The unit the checker-scaling benchmarks measure: every node both
    computes and checks all neighbours, and the run ends at phase-2
    quiescence with the quiescence-time mirror flags collected.
    """

    simulator: Simulator
    nodes: Dict[NodeId, FaithfulRoutingNode]
    phase1_events: int
    phase2_events: int
    flags: list
    #: Aggregated shared-replay counters (zeroed when sharing is off).
    kernel_stats: KernelStats

    @property
    def metrics(self) -> Dict[str, int]:
        """The simulator's aggregate work counters."""
        return self.simulator.metrics.summary()


def run_checked_construction(
    graph: ASGraph,
    link_delays=1.0,
    batch_delivery: bool = True,
    shared_checking: bool = True,
    max_events: int = 8_000_000,
    node_factory: Optional[FaithfulNodeFactory] = None,
) -> CheckedConstruction:
    """Drive both construction phases on a fully mirrored network.

    Every node is a :class:`FaithfulRoutingNode` checking all of its
    neighbours; there is no bank and no execution phase, so the result
    isolates exactly the checked-construction cost the shared replay
    kernel deduplicates.  ``shared_checking`` toggles the
    :class:`~repro.routing.kernel.MirrorKernelPool` (True) against the
    per-neighbour reference replay (False); both produce bit-identical
    flags and digests.  Returns the quiesced network plus the
    quiescence-time checkpoint flags of every mirror (empty for an
    obedient network).
    """
    graph.require_biconnected()
    simulator = Simulator(
        topology_from_graph(graph, delay=link_delays),
        batch_delivery=batch_delivery,
    )
    factory = node_factory or (
        lambda node_id, cost, signing: FaithfulRoutingNode(node_id, cost, signing)
    )
    nodes: Dict[NodeId, FaithfulRoutingNode] = {}
    for node_id in graph.nodes:
        node = factory(node_id, graph.cost(node_id), None)
        nodes[node_id] = node
        simulator.add_node(node)
    keys = install_key_space(nodes)
    pool = MirrorKernelPool(keys) if shared_checking else None
    for node in nodes.values():
        node.mirror_pool = pool
    node_ids = tuple(sorted(nodes, key=repr))

    emit_marker("protocol.phase", sim_time=simulator.now, phase="phase1")
    for node_id in node_ids:
        simulator.schedule_local(
            node_id, 0.0, nodes[node_id].start_phase1, label="phase1"
        )
    phase1_events = simulator.run_until_quiescent(max_events=max_events)

    for node_id in node_ids:
        nodes[node_id].prepare_checking(
            {
                neighbor: graph.neighbors(neighbor)
                for neighbor in graph.neighbors(node_id)
            }
        )
    if pool is not None:
        pool.new_epoch()
        emit_marker("mirror.epoch", sim_time=simulator.now)
    emit_marker("protocol.phase", sim_time=simulator.now, phase="phase2")
    for node_id in node_ids:
        simulator.schedule_local(
            node_id, 0.0, nodes[node_id].start_phase2, label="phase2"
        )
    phase2_events = simulator.run_until_quiescent(max_events=max_events)

    flags: list = []
    kernel_stats = pool.collected_stats() if pool is not None else KernelStats()
    for node_id in node_ids:
        for _principal, mirror in sorted(
            nodes[node_id].mirrors.items(), key=lambda kv: repr(kv[0])
        ):
            if mirror.comp is None:
                continue
            flags.extend(mirror.checkpoint_flags())
            # Forked and seed-mismatched mirrors replay privately;
            # their work lives on their own kernels, not the pool.
            private = mirror.private_kernel_stats()
            if private is not None:
                kernel_stats.merge(private)
    return CheckedConstruction(
        simulator=simulator,
        nodes=dict(nodes),
        phase1_events=phase1_events,
        phase2_events=phase2_events,
        flags=flags,
        kernel_stats=kernel_stats,
    )


def verify_checked_network(
    graph: ASGraph, checked: CheckedConstruction, check_oracle: bool = True
) -> None:
    """Assert a checked run converged correctly and consistently.

    Three layers: no mirror raised a flag at quiescence, every mirror's
    replayed digests equal its principal's own table digests (the
    BANK1/BANK2 comparison, without the bank), and — with
    ``check_oracle`` — every node's tables equal the centralized
    routing oracle.

    Raises
    ------
    ConvergenceError
        On the first flag, digest disagreement, or oracle mismatch.
    """
    if checked.flags:
        raise ConvergenceError(
            f"checked run raised {len(checked.flags)} flag(s): "
            f"{checked.flags[:3]!r}"
        )
    nodes = checked.nodes
    for node_id, node in nodes.items():
        for principal, mirror in node.mirrors.items():
            if mirror.comp is None:
                continue
            principal_comp = nodes[principal].comp
            assert principal_comp is not None
            if (
                mirror.routing_digest() != principal_comp.routing_digest()
                or mirror.pricing_digest() != principal_comp.pricing_digest()
            ):
                raise ConvergenceError(
                    f"mirror of {principal!r} at {node_id!r} disagrees "
                    f"with the principal's own tables"
                )
    if check_oracle:
        verify_against_oracle(graph, nodes)


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
