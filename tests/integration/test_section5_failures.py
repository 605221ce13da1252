"""Section 5: other failure models interacting with faithfulness.

"Simply introducing other failures, such as general omissions or even
failstop, may cause the system to falsely detect and punish
manipulation.  Further work needs to explore how other failure models
affect faithfulness in systems with the rational-manipulation failure
model."

These tests make that discussion executable: an *obedient* node whose
channel suffers omission or failstop faults is flagged by the same
machinery that catches rational deviants — the false-punish phenomenon
the paper anticipates.
"""

import random

import pytest

from repro.faithful import FaithfulFPSSProtocol, FaithfulRoutingNode
from repro.routing import figure1_graph
from repro.sim import FailstopAdapter, OmissionAdapter
from repro.workloads import uniform_all_pairs


def omission_on(target, prob, seed=0):
    """A node factory installing send omissions on one node."""

    def factory(node_id, cost, signing):
        node = FaithfulRoutingNode(node_id, cost, signing)
        if node_id == target:
            OmissionAdapter(
                node, random.Random(seed), send_drop_prob=prob
            )
        return node

    return factory


def failstop_on(target, fail_time):
    def factory(node_id, cost, signing):
        node = FaithfulRoutingNode(node_id, cost, signing)
        if node_id == target:
            FailstopAdapter(node, fail_time=fail_time)
        return node

    return factory


class TestOmissionFalsePunish:
    def test_lossy_obedient_node_is_falsely_detected(self, fig1, fig1_traffic):
        """An obedient node with a lossy channel looks like a deviant:
        dropped copies/updates break the replay agreement."""
        result = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=omission_on("C", prob=0.3, seed=5),
        ).run()
        assert result.detection.detected_any

    def test_false_punish_harms_everyone(self, fig1, fig1_traffic):
        """Persistent omissions exhaust the restart budget: the whole
        network is punished with non-progress although nobody was
        rational — exactly the interaction Section 5 warns about."""
        result = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=omission_on("C", prob=0.5, seed=5),
        ).run()
        assert not result.progressed
        assert all(u < 0 for u in result.utilities.values())

    def test_lossless_adapter_is_harmless(self, fig1, fig1_traffic):
        """Sanity: a zero-probability omission adapter changes nothing."""
        result = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=omission_on("C", prob=0.0),
        ).run()
        assert result.progressed
        assert not result.detection.detected_any


class TestFailstopInteraction:
    def test_failstop_during_construction_detected(self, fig1, fig1_traffic):
        """A node halting mid-construction starves its checkers and is
        flagged (missing reports / digest divergence)."""
        result = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=failstop_on("D", fail_time=3.0),
        ).run()
        assert result.detection.detected_any
        assert not result.progressed

    def test_failstop_before_start_blocks_phase1(self, fig1, fig1_traffic):
        result = FaithfulFPSSProtocol(
            fig1,
            fig1_traffic,
            node_factory=failstop_on("D", fail_time=0.0),
        ).run()
        assert not result.progressed
        # Phase 1 itself cannot certify: D's declaration never floods.
        first = result.detection.checkpoint_decisions[0]
        assert first.checkpoint == "phase1"
        assert not first.green_light
