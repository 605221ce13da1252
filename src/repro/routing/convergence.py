"""How every protocol run is built and driven.

One builder (:func:`build_network`) turns an :class:`~repro.routing.
graph.ASGraph` into a simulator holding one node per vertex, all on one
shared key space; one driver (:func:`run_phase`) starts a phase on
every node and runs to quiescence; one helper (:func:`run_execution`)
enters the execution phase and originates the traffic.  The plain run
(:func:`run_plain_fpss`), the dynamic topology engine, both mechanism
protocols and the checked churn runner are all assembled from these,
so they share one scheduling order — which reaches the event sequence
and with it every digest.  The module also cross-checks a converged
fixed point against the centralized oracle.

Link delays are homogeneous or per link (:func:`link_delay`), and
delivery is batched or per message; the knobs exist so the
equivalence tests can run the same graph in every mode and compare
fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Mapping, Tuple

from ..errors import ConvergenceError
from ..obs.trace import emit_marker
from ..sim.network import NetworkTopology
from ..sim.simulator import Simulator
from .engine import engine_for
from .fpss import FPSSNode, install_key_space
from .graph import ASGraph, Cost, NodeId
from .kernel import KeySpace
from .vcg_payments import route_payments

#: Event budget per quiescence before a
#: :class:`~repro.errors.ConvergenceError` is raised.
EVENT_BUDGET = 2_000_000
#: The budget of a checked churn run, where every node also replays
#: each of its neighbours.
CHECKED_EVENT_BUDGET = 8_000_000


def link_delay(delays, a: NodeId, b: NodeId) -> float:
    """The delay of link ``a``-``b`` under a delay model.

    ``delays`` is a constant, a mapping ``frozenset({a, b}) -> delay``,
    or a callable ``delays(a, b)``.  A mapping without an entry for the
    link gives 1.0: links that churn adds are often not in it.
    Heterogeneous delays make the network asynchronous across links;
    the faithful extension only relies on per-link FIFO, which any
    fixed per-link delay preserves.
    """
    if callable(delays):
        return float(delays(a, b))
    if isinstance(delays, Mapping):
        return float(delays.get(frozenset((a, b)), 1.0))
    return float(delays)


def topology_from_graph(graph: ASGraph, delay=1.0) -> NetworkTopology:
    """A simulator topology mirroring the AS graph's links."""
    topology = NetworkTopology()
    for node in graph.nodes:
        topology.add_node(node)
    for a, b in graph.edges:
        topology.add_link(a, b, delay=link_delay(delay, a, b))
    return topology


def build_network(
    graph: ASGraph,
    node_factory: Callable[..., FPSSNode] = FPSSNode,
    *factory_args,
    link_delays=1.0,
    batch_delivery: bool = True,
) -> Tuple[Simulator, Dict[NodeId, FPSSNode], KeySpace]:
    """A simulator populated with one node per vertex, in graph order.

    Each node is ``node_factory(node_id, cost, *factory_args)``; a
    factory is where manipulation subclasses are substituted for
    chosen nodes.  ``link_delays`` is a :func:`link_delay` model.
    ``batch_delivery=False`` turns off the simulator's same-instant
    delivery coalescing (one recomputation per message instead of one
    per batch; same fixed point either way).  Returns the simulator,
    the node map and the key space every node shares.
    """
    simulator = Simulator(
        topology_from_graph(graph, delay=link_delays),
        batch_delivery=batch_delivery,
    )
    nodes: Dict[NodeId, FPSSNode] = {}
    for node_id in graph.nodes:
        node = node_factory(node_id, graph.cost(node_id), *factory_args)
        nodes[node_id] = node
        simulator.add_node(node)
    return simulator, nodes, install_key_space(nodes)


def run_phase(
    simulator: Simulator,
    nodes: Mapping[NodeId, FPSSNode],
    phase: str,
    budget: int = EVENT_BUDGET,
    **marker,
) -> int:
    """Start ``phase`` on every node, in repr order, then quiesce.

    Emits a ``protocol.phase`` marker (``marker`` adds fields such as
    the attempt or epoch), schedules each node's ``start_<phase>`` at
    the current instant, and returns the events processed.
    """
    emit_marker("protocol.phase", sim_time=simulator.now, phase=phase, **marker)
    for node_id in sorted(nodes, key=repr):
        simulator.schedule_local(
            node_id, 0.0, getattr(nodes[node_id], f"start_{phase}"), label=phase
        )
    return simulator.run_until_quiescent(budget)


def run_execution(
    simulator: Simulator,
    nodes: Mapping[NodeId, FPSSNode],
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    budget: int = EVENT_BUDGET,
) -> int:
    """Enter the execution phase and route ``traffic`` to quiescence.

    Every node enters the phase, then each positive-volume flow is
    originated at its source, in repr order of ``(pair, volume)``.
    Returns the events processed.
    """
    emit_marker("protocol.phase", sim_time=simulator.now, phase="execution")
    for node_id in sorted(nodes, key=repr):
        nodes[node_id].start_execution()
    for (source, destination), volume in sorted(traffic.items(), key=repr):
        if volume > 0:
            simulator.schedule_local(
                source,
                0.0,
                partial(nodes[source].originate_flow, destination, volume),
                label="originate",
            )
    return simulator.run_until_quiescent(budget)


@dataclass
class ConvergenceStats:
    """How much work the construction phases took."""

    phase1_events: int
    phase2_events: int
    total_messages: int
    total_computations: int

    @property
    def total_events(self) -> int:
        """Events across both construction phases."""
        return self.phase1_events + self.phase2_events


def run_construction_phases(
    simulator: Simulator, nodes: Mapping[NodeId, FPSSNode]
) -> ConvergenceStats:
    """Drive phase 1 then phase 2 to quiescence."""
    phase1_events = run_phase(simulator, nodes, "phase1")
    phase2_events = run_phase(simulator, nodes, "phase2")
    return ConvergenceStats(
        phase1_events=phase1_events,
        phase2_events=phase2_events,
        total_messages=simulator.metrics.total_messages,
        total_computations=simulator.metrics.total_computations,
    )


def run_plain_fpss(
    graph: ASGraph,
    node_factory: Callable[[NodeId, Cost], FPSSNode] = FPSSNode,
    link_delays=1.0,
    batch_delivery: bool = True,
) -> Tuple[Simulator, Dict[NodeId, FPSSNode], ConvergenceStats]:
    """Build, run, and return a converged plain-FPSS network.

    ``node_factory``, ``link_delays`` and ``batch_delivery`` are those
    of :func:`build_network`.  Returns the quiesced simulator, the
    node map, and the per-phase :class:`ConvergenceStats` work
    counters; nothing is shared between calls, so sweep workers may
    run many scenarios back to back.
    """
    simulator, nodes, _keys = build_network(
        graph,
        node_factory,
        link_delays=link_delays,
        batch_delivery=batch_delivery,
    )
    return simulator, nodes, run_construction_phases(simulator, nodes)


def verify_against_oracle(
    graph: ASGraph, nodes: Mapping[NodeId, FPSSNode], check_prices: bool = True
) -> None:
    """Assert the converged tables equal the centralized computation.

    Raises
    ------
    ConvergenceError
        On the first routing or pricing disagreement found.
    """
    engine = engine_for(graph)
    for source in graph.nodes:
        node = nodes[source]
        routing = node.routing_table()
        pricing = node.pricing_table()
        tree = engine.tree(source)
        for destination in graph.nodes:
            if destination == source:
                continue
            oracle = tree.get(destination)
            entry = routing.entry(destination)
            if entry is None or oracle is None:
                raise ConvergenceError(
                    f"{source!r} has no route to {destination!r}"
                )
            # Costs may differ by float accumulation order between the
            # hop-by-hop relaxation and the oracle's Dijkstra.
            if entry.path != oracle.path or abs(entry.cost - oracle.cost) > 1e-9:
                raise ConvergenceError(
                    f"route {source!r}->{destination!r}: protocol said "
                    f"{entry.path} @ {entry.cost}, oracle said "
                    f"{oracle.path} @ {oracle.cost}"
                )
            if not check_prices:
                continue
            bundle = route_payments(graph, source, destination)
            for transit in oracle.transit_nodes:
                expected = bundle.payments[transit]
                actual = pricing.price(destination, transit)
                if abs(expected - actual) > 1e-9:
                    raise ConvergenceError(
                        f"price {source!r}->{destination!r} via {transit!r}: "
                        f"protocol said {actual}, oracle said {expected}"
                    )
