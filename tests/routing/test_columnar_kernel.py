"""Columnar-vs-dict kernel equivalence property suite.

:class:`~repro.routing.kernel.ReplayKernel` stores its tables in flat
parallel arrays over interned key ids; the retained
:class:`~repro.routing.kernel_dict.DictReplayKernel` is the verbatim
pre-columnar implementation, kept as the oracle.  The layout change is
only sound if the two are *observationally identical* — same digests,
same wire deltas — under every op sequence the protocol can produce.
The work counters match too, except ``avoid_rescans``: the columnar
kernel rescans at universe entry only the avoidance keys whose offers
were frozen outside the universe (the dict kernel sweeps every key that
ever held an offer), so its count may only be lower — pinned per seed.
This suite drives both through:

* whole-run fixed points (random, tie-heavy, and the paper's Figure 1
  graphs),
* a tandem synchronous-round driver that compares every emitted delta
  and digest *stepwise*, including under withdrawal streams and churn
  epochs (cost changes, link failures, departures),
* op-log replay: the verified :class:`SharedKernel` logs of checked
  construction runs — honest and across the construction-stage
  manipulation catalogue, under heterogeneous link delays, with shared
  and private checking — replayed through the dict kernel, and
* ``PYTHONHASHSEED`` 0 vs 1 in subprocesses.

Plus a reflection-based completeness gate on
:class:`~repro.routing.kernel.KernelStats`: ``merge``/``as_dict`` must
cover every counter field, so adding a counter to the dataclass without
threading it through aggregation fails loudly.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

from repro.faithful.manipulations import (
    construction_deviations,
    faithful_deviant_factory,
)
from repro.faithful.epochs import run_checked_churn
from repro.routing import ASGraph, figure1_graph
from repro.routing.kernel import (
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    KernelStats,
    ReplayKernel,
    kernel_fixed_point,
)
from repro.routing.kernel_dict import DictReplayKernel
from repro.sim.churn import EVENT_KINDS, evolved_graphs, random_churn_schedule
from repro.workloads import random_biconnected_graph

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def _digests(kernel):
    """All four digest views of one kernel."""
    return (
        kernel.cost_digest(),
        kernel.routing_digest(),
        kernel.pricing_digest(),
        kernel.full_digest(),
    )


def _unit_cost_graph(size, seed):
    """A biconnected graph where every transit cost ties at 1.0.

    Equal costs everywhere force the lex tie-breaks on every
    relaxation, which is exactly where an id-rank permutation that
    disagreed with repr order would surface.
    """
    base = random_biconnected_graph(size, random.Random(seed))
    return ASGraph({node: 1.0 for node in base.nodes}, base.edges)


class TestFixedPointParity:
    """Whole-run parity: same graph, both kernels, identical tables."""

    #: Total ``avoid_rescans`` of the columnar fixed point per seed (the
    #: dict oracle's totals are 1298, 1290, 1238 and 1274).
    AVOID_RESCANS = {0: 580, 1: 520, 2: 360, 3: 440}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed):
        graph = random_biconnected_graph(12, random.Random(seed))
        columnar = kernel_fixed_point(graph, kernel_cls=ReplayKernel)
        reference = kernel_fixed_point(graph, kernel_cls=DictReplayKernel)
        assert sorted(columnar, key=repr) == sorted(reference, key=repr)
        for node in columnar:
            assert _digests(columnar[node]) == _digests(reference[node]), node
            assert (
                columnar[node].computation_count
                == reference[node].computation_count
            ), node
            counters = columnar[node].stats.as_dict()
            oracle = reference[node].stats.as_dict()
            assert counters.pop("avoid_rescans") <= oracle.pop("avoid_rescans"), node
            assert counters == oracle, node
        total = sum(kernel.stats.avoid_rescans for kernel in columnar.values())
        assert total == self.AVOID_RESCANS[seed]

    def test_tie_heavy_unit_costs(self):
        graph = _unit_cost_graph(14, seed=6)
        columnar = kernel_fixed_point(graph, kernel_cls=ReplayKernel)
        reference = kernel_fixed_point(graph, kernel_cls=DictReplayKernel)
        for node in columnar:
            assert _digests(columnar[node]) == _digests(reference[node]), node

    def test_figure1_graph(self):
        graph = figure1_graph()
        columnar = kernel_fixed_point(graph, kernel_cls=ReplayKernel)
        reference = kernel_fixed_point(graph, kernel_cls=DictReplayKernel)
        for node in columnar:
            assert _digests(columnar[node]) == _digests(reference[node]), node


class _TandemNet:
    """Both kernel implementations driven through the same rounds.

    Mirrors the synchronous rounds of
    :func:`~repro.routing.kernel.kernel_fixed_point`, but runs a
    (columnar, dict) pair per vertex and asserts after *every* settle
    that the emitted deltas — the wire-visible behaviour — and the
    digests are identical, not just the final fixed point.  Mutation
    methods replicate the kernel-level event application of
    :class:`~repro.routing.dynamic.DynamicTopologyEngine`.
    """

    def __init__(self, graph):
        self.order = sorted(graph.nodes, key=repr)
        self.pairs = {
            node: (
                ReplayKernel(node, graph.neighbors(node), graph.cost(node)),
                DictReplayKernel(node, graph.neighbors(node), graph.cost(node)),
            )
            for node in self.order
        }
        for pair in self.pairs.values():
            for kernel in pair:
                for node in self.order:
                    kernel.note_cost_declaration(node, graph.cost(node))
        self.mailbox = {node: [] for node in self.order}
        for node in self.order:
            for kernel in self.pairs[node]:
                kernel.reset_phase2()
                kernel.recompute_routes()
                kernel.recompute_avoidance()
                kernel.derive_pricing()
            columnar, reference = self.pairs[node]
            route = self._matched(
                node, columnar.consume_route_delta(), reference.consume_route_delta()
            )
            avoid = self._matched(
                node, columnar.consume_avoid_delta(), reference.consume_avoid_delta()
            )
            self._post(node, KIND_RT_UPDATE, route)
            self._post(node, KIND_PRICE_UPDATE, avoid)

    def _matched(self, node, columnar_rows, reference_rows):
        assert columnar_rows == reference_rows, f"delta divergence at {node!r}"
        return columnar_rows

    def _post(self, src, kind, rows):
        if not rows:
            return
        columnar, _ = self.pairs[src]
        for neighbor in columnar.neighbors:
            if neighbor in self.mailbox:
                self.mailbox[neighbor].append((kind, src, rows))

    def _settle_and_broadcast(self, node):
        columnar, reference = self.pairs[node]
        route_delta, avoid_delta = columnar.settle()
        assert (route_delta, avoid_delta) == reference.settle(), node
        assert columnar.full_digest() == reference.full_digest(), node
        if route_delta is not None:
            self._post(node, KIND_RT_UPDATE, route_delta)
        if avoid_delta is not None:
            self._post(node, KIND_PRICE_UPDATE, avoid_delta)

    def converge(self, max_rounds=10_000):
        for _ in range(max_rounds):
            if not any(self.mailbox.values()):
                self.assert_in_sync()
                return
            inbox = self.mailbox
            self.mailbox = {node: [] for node in inbox}
            for node in sorted(inbox, key=repr):
                for kind, src, rows in inbox[node]:
                    for kernel in self.pairs[node]:
                        if kind == KIND_RT_UPDATE:
                            kernel.apply_route_delta(src, rows)
                        else:
                            kernel.apply_avoid_delta(src, rows)
                self._settle_and_broadcast(node)
        raise AssertionError("tandem network failed to converge")

    def assert_in_sync(self):
        for node, (columnar, reference) in self.pairs.items():
            assert _digests(columnar) == _digests(reference), node
            assert (
                columnar.computation_count == reference.computation_count
            ), node

    # -- kernel-level churn events (the dynamic engine's vocabulary) ---

    def change_cost(self, node, cost):
        for member in sorted(self.pairs, key=repr):
            for kernel in self.pairs[member]:
                if member == node:
                    kernel.change_own_cost(cost)
                else:
                    kernel.note_cost_declaration(node, cost)

    def link_down(self, a, b):
        for end, peer in ((a, b), (b, a)):
            for kernel in self.pairs[end]:
                kernel.detach_neighbor(peer)

    def leave(self, node):
        columnar, _ = self.pairs[node]
        for peer in columnar.neighbors:
            if peer in self.pairs:
                for kernel in self.pairs[peer]:
                    kernel.detach_neighbor(node)
        del self.pairs[node]
        del self.mailbox[node]
        for member in sorted(self.pairs, key=repr):
            for kernel in self.pairs[member]:
                kernel.retract_cost_declaration(node)

    def kick(self):
        """Settle every node after a mutation batch (the churn kick)."""
        for node in sorted(self.pairs, key=repr):
            self._settle_and_broadcast(node)


class TestStepwiseMutationParity:
    """Delta-by-delta parity through mutations, not just fixed points."""

    def test_initial_convergence_is_stepwise_identical(self):
        net = _TandemNet(random_biconnected_graph(10, random.Random(2)))
        net.converge()

    def test_withdrawal_stream(self):
        # Successive departures: each one retracts a cost declaration
        # from every survivor and detaches the leaver's links — the
        # deletion paths (rescans, argmin invalidation) on both sides.
        graph = random_biconnected_graph(12, random.Random(4))
        net = _TandemNet(graph)
        net.converge()
        schedule = random_churn_schedule(
            graph,
            random.Random(8),
            epochs=3,
            events_per_epoch=1,
            kinds=("leave",),
            require="connected",
            seed=8,
        )
        for events in schedule.epochs:
            for event in events:
                net.leave(event.node)
            net.kick()
            net.converge()

    def test_churn_epochs_cost_and_link_failures(self):
        graph = random_biconnected_graph(10, random.Random(5))
        net = _TandemNet(graph)
        net.converge()
        schedule = random_churn_schedule(
            graph,
            random.Random(9),
            epochs=4,
            events_per_epoch=2,
            kinds=("cost", "link-down"),
            require="connected",
            seed=9,
        )
        for events in schedule.epochs:
            for event in events:
                if event.kind == "cost":
                    net.change_cost(event.node, float(event.cost))
                else:
                    net.link_down(*event.link)
            net.kick()
            net.converge()

    def test_full_vocabulary_epochs_reconverge_to_oracle_parity(self):
        # link-up and join need the protocol's full-table resend, which
        # has no pure-kernel counterpart; cover the whole vocabulary by
        # from-scratch fixed-point parity on every evolved epoch graph.
        graph = random_biconnected_graph(10, random.Random(12))
        schedule = random_churn_schedule(
            graph,
            random.Random(13),
            epochs=3,
            events_per_epoch=2,
            kinds=EVENT_KINDS,
            require="biconnected",
            seed=13,
        )
        for snapshot in evolved_graphs(graph, schedule):
            columnar = kernel_fixed_point(snapshot, kernel_cls=ReplayKernel)
            reference = kernel_fixed_point(snapshot, kernel_cls=DictReplayKernel)
            for node in columnar:
                assert _digests(columnar[node]) == _digests(reference[node]), node


def _shared_pool(construction):
    """The one MirrorKernelPool behind a shared-checking run."""
    pool = next(iter(construction.nodes.values())).mirror_pool
    assert pool is not None
    return pool


def _replay_log_through_dict(entry):
    """Replay one SharedKernel's verified op log on the dict kernel.

    Rebuilds the seed state with the exact ``_fresh_kernel`` recipe,
    then asserts every recorded flush prediction — the broadcasts the
    checkers verified against — is reproduced bit-for-bit.
    """
    kernel = DictReplayKernel(entry.owner, entry.seed_neighbors, entry.seed_cost)
    for node, cost in entry.seed_known_costs.items():
        kernel.note_cost_declaration(node, cost)
    kernel.reset_phase2()
    kernel.recompute_routes()
    kernel.recompute_avoidance()
    kernel.derive_pricing()
    assert kernel.consume_route_delta() == entry.initial_route
    assert kernel.consume_avoid_delta() == entry.initial_price
    for op in entry.ops:
        if op[0] == "apply":
            _tag, kind, src, rows = op
            if kind == KIND_RT_UPDATE:
                kernel.apply_route_delta(src, rows)
            else:
                kernel.apply_avoid_delta(src, rows)
        else:
            assert kernel.settle() == (op[1], op[2]), entry.owner
    assert kernel.full_digest() == entry.kernel.full_digest(), entry.owner
    return kernel


class TestOpLogReplayParity:
    """Checked-construction shared logs replay identically on the oracle."""

    def test_honest_run_with_heterogeneous_delays(self):
        graph = random_biconnected_graph(10, random.Random(7))

        def delays(a, b, _rng=random.Random(17)):
            return _rng.uniform(1.0, 2.5)

        construction = run_checked_churn(graph, link_delays=delays)
        assert construction.all_flags == []
        pool = _shared_pool(construction)
        entries = sorted(pool._kernels.values(), key=lambda e: repr(e.owner))
        assert entries and any(entry.ops for entry in entries)
        for entry in entries:
            _replay_log_through_dict(entry)

    def test_private_checking_matches_shared_digests(self):
        graph = random_biconnected_graph(8, random.Random(3))
        shared = run_checked_churn(graph, shared_checking=True)
        private = run_checked_churn(graph, shared_checking=False)
        for node_id in shared.nodes:
            assert (
                shared.nodes[node_id].comp.full_digest()
                == private.nodes[node_id].comp.full_digest()
            ), node_id
        for entry in _shared_pool(shared)._kernels.values():
            _replay_log_through_dict(entry)

    @pytest.mark.parametrize(
        "spec",
        construction_deviations(),
        ids=lambda spec: spec.name,
    )
    def test_manipulation_catalogue_runs(self, spec):
        # A deviant in the network may fork mirrors off the shared log,
        # but every *verified* log prefix must still replay exactly on
        # the dict kernel — divergence handling never corrupts the log.
        construction = run_checked_churn(
            figure1_graph(),
            node_factory=faithful_deviant_factory(spec, "C"),
            verify=False,
        )
        for entry in _shared_pool(construction)._kernels.values():
            _replay_log_through_dict(entry)


class TestKernelStatsCompleteness:
    """merge/as_dict must cover every declared counter field."""

    def _populated(self):
        stats = KernelStats()
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            setattr(stats, field.name, index)
        return stats

    def test_merge_accumulates_every_field(self):
        target = self._populated()
        target.merge(self._populated())
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            assert getattr(target, field.name) == 2 * index, field.name

    def test_as_dict_exposes_every_field(self):
        stats = self._populated()
        view = stats.as_dict()
        assert set(view) == {f.name for f in dataclasses.fields(KernelStats)}
        for index, field in enumerate(dataclasses.fields(KernelStats), start=1):
            assert view[field.name] == index, field.name


#: Subprocess workload: both kernels' fixed points on one graph.
_HASH_SEED_WORKER = """
import json
import random
import sys

from repro.routing.kernel import ReplayKernel, kernel_fixed_point
from repro.routing.kernel_dict import DictReplayKernel
from repro.workloads import random_biconnected_graph

graph = random_biconnected_graph(12, random.Random(3))
out = {}
for label, cls in (("columnar", ReplayKernel), ("dict", DictReplayKernel)):
    kernels = kernel_fixed_point(graph, kernel_cls=cls)
    out[label] = {
        repr(node): kernel.full_digest()
        for node, kernel in sorted(kernels.items(), key=repr)
    }
json.dump(out, sys.stdout, sort_keys=True)
"""


class TestHashSeedParity:
    def test_digests_identical_across_hash_seeds(self, tmp_path):
        script = tmp_path / "worker.py"
        script.write_text(_HASH_SEED_WORKER)
        procs = {
            seed: subprocess.Popen(
                [sys.executable, str(script)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed),
            )
            for seed in ("0", "1")
        }
        outputs = {}
        for seed, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, f"seed {seed} failed:\n{stderr}"
            outputs[seed] = json.loads(stdout)
        for seed, out in outputs.items():
            assert out["columnar"] == out["dict"], seed
            assert len(out["columnar"]) == 12
        assert outputs["0"] == outputs["1"]
