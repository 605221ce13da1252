"""Deviation experiments: the protocols packaged for the analysis layer.

:func:`make_runner` wraps a protocol as a
:data:`~repro.games.deviation.MechanismRunner` for the deviation
explorer, :func:`deviation_table` explores the catalogue with it, and
:func:`routing_distributed_mechanism` packages the routing mechanism as
a :class:`~repro.mechanism.distributed.DistributedMechanism` so the
generic IC/CC/AC verifiers apply.  Every run goes through
:func:`~repro.faithful.manipulations.run_deviation`; ``faithful=False``
selects the plain, trusting protocol throughout.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import MechanismError
from ..faithful.manipulations import DEVIATION_CATALOGUE, run_deviation
from ..games.deviation import DeviationTable, explore_deviations
from ..mechanism.distributed import (
    DistributedMechanism,
    DistributedStrategy,
    MechanismRun,
)
from ..mechanism.types import TypeProfile
from ..routing.graph import ASGraph, NodeId


def _catalogue_names(faithful: bool) -> Tuple[str, ...]:
    """Every catalogue entry, or only the plain-capable ones."""
    return tuple(
        name
        for name, spec in DEVIATION_CATALOGUE.items()
        if faithful or spec.plain_capable
    )


def make_runner(
    graph: ASGraph,
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    faithful: bool = True,
):
    """A :data:`~repro.games.deviation.MechanismRunner`: one protocol
    run per (deviant node, deviation name).

    Plain FPSS has no detector, so with ``faithful=False`` the second
    element of the runner's result is always False.
    """

    def runner(node: Optional[NodeId], deviation: Optional[str]):
        spec = None if node is None else DEVIATION_CATALOGUE[deviation]
        result = run_deviation(graph, traffic, faithful, node, spec)
        return result.utilities, result.detection.detected_any

    return runner


def deviation_table(
    graph: ASGraph,
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    faithful: bool = True,
    nodes: Optional[Sequence[NodeId]] = None,
    deviations: Optional[Sequence[str]] = None,
) -> DeviationTable:
    """Explore the catalogue against the faithful (or plain) protocol.

    The plain default explores the plain-capable entries only.
    """
    return explore_deviations(
        make_runner(graph, traffic, faithful),
        nodes=tuple(nodes) if nodes is not None else graph.nodes,
        deviations=tuple(deviations)
        if deviations is not None
        else _catalogue_names(faithful),
    )


def routing_distributed_mechanism(
    graph: ASGraph,
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    deviations: Optional[Sequence[str]] = None,
    faithful: bool = True,
) -> DistributedMechanism:
    """Package a routing protocol as ``dM = (g, Sigma, s^m)``.

    The strategy space of every node is {suggested} plus the selected
    catalogue entries; the engine runs the corresponding protocol.
    Types are the nodes' true transit costs: the engine applies the
    profile's costs to the graph, so the verifiers' "for all theta"
    quantifier ranges over transit-cost assignments.
    """
    names = (
        tuple(deviations) if deviations is not None else _catalogue_names(faithful)
    )
    suggested = DistributedStrategy(name="suggested")
    strategies: Dict[NodeId, List[DistributedStrategy]] = {}
    for node in graph.nodes:
        options = [suggested]
        for name in names:
            spec = DEVIATION_CATALOGUE[name]
            options.append(
                DistributedStrategy(
                    name=name,
                    deviation_classes=spec.classes,
                    payload=spec,
                )
            )
        strategies[node] = options

    def engine(
        assignment: Mapping[NodeId, DistributedStrategy], types: TypeProfile
    ) -> MechanismRun:
        costed = graph.with_costs(
            {node: float(types.type_of(node)) for node in types.agents}
        )
        deviants = [
            (node, strategy.payload)
            for node, strategy in assignment.items()
            if not strategy.is_suggested
        ]
        if len(deviants) > 1:
            raise MechanismError(
                "the routing engine evaluates unilateral deviations only"
            )
        node, spec = deviants[0] if deviants else (None, None)
        result = run_deviation(costed, traffic, faithful, node, spec)
        return MechanismRun(utilities=result.utilities, outcome_data=result)

    return DistributedMechanism(
        engine,
        strategies,
        {node: suggested for node in graph.nodes},
        name="faithful-fpss" if faithful else "plain-fpss",
    )
