"""One link-delay model for the initial build and for churn link-ups.

A delay model is a constant, a mapping ``frozenset({a, b}) -> delay``
or a callable ``delay(a, b)``; :func:`~repro.routing.convergence.
link_delay` resolves it for the initial topology and for every link
that churn adds, in the plain dynamic engine and in the checked epoch
runner alike.  A mapping without an entry for a link gives 1.0.
"""

import pytest

from repro.faithful.epochs import run_checked_churn
from repro.routing import figure1_graph
from repro.routing.convergence import link_delay
from repro.routing.dynamic import DynamicTopologyEngine
from repro.sim.churn import ChurnEvent, ChurnSchedule

#: Figure 1 has no A-C link; churn adds one.
NEW_LINK = ("A", "C")

#: The mapping names every figure-1 link except C-Z.
MAPPING = {
    frozenset(("A", "X")): 1.25,
    frozenset(("A", "Z")): 1.5,
    frozenset(("B", "C")): 1.75,
    frozenset(("B", "D")): 2.0,
    frozenset(("C", "D")): 2.25,
    frozenset(("D", "X")): 2.5,
}


def by_endpoint(a, b):
    return 3.0 if "A" in (a, b) else 0.5


#: Figure 1's links, in graph order: A-X, A-Z, B-C, B-D, C-D, C-Z, D-X.
EDGES = figure1_graph().edges

#: name -> (model, delay of each link of EDGES, delay of the A-C link).
MODELS = {
    "constant": (2.0, (2.0,) * 7, 2.0),
    "mapping": (MAPPING, (1.25, 1.5, 1.75, 2.0, 2.25, 1.0, 2.5), 1.0),
    "callable": (by_endpoint, (3.0, 3.0, 0.5, 0.5, 0.5, 0.5, 0.5), 3.0),
}


def assert_figure1_delays(topology, name):
    delays = tuple(topology.delay(a, b) for a, b in EDGES)
    assert delays == MODELS[name][1]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_link_delay_resolves_each_model(name):
    model, delays, new = MODELS[name]
    assert tuple(link_delay(model, a, b) for a, b in EDGES) == delays
    assert link_delay(model, *NEW_LINK) == new


@pytest.mark.parametrize("name", sorted(MODELS))
def test_plain_engine_build_and_link_up(name):
    model, _delays, new = MODELS[name]
    engine = DynamicTopologyEngine(figure1_graph(), link_delays=model)
    assert_figure1_delays(engine.simulator.topology, name)
    engine.converge()
    engine.run_epoch((ChurnEvent(kind="link-up", link=NEW_LINK),))
    assert engine.simulator.topology.delay(*NEW_LINK) == new


@pytest.mark.parametrize("name", sorted(MODELS))
def test_checked_engine_build_and_link_up(name):
    model, _delays, new = MODELS[name]
    run = run_checked_churn(
        figure1_graph(),
        ChurnSchedule.single(ChurnEvent(kind="link-up", link=NEW_LINK)),
        link_delays=model,
    )
    topology = run.simulator.topology
    assert_figure1_delays(topology, name)
    assert topology.delay(*NEW_LINK) == new
