"""Outside-in span tracing for the benchmark's traced run.

For the length of a traced run only, :class:`Tracer` replaces public
functions and methods of ``repro`` with timing wrappers by rebinding the
class or module attribute, and :meth:`Tracer.uninstall` binds the
originals back.  Nothing under ``src/`` knows about it.

A module-level function is rebound in *every* loaded ``repro`` namespace
that holds it (``from .fpss import delta_size`` in ``faithful/node.py``,
``from .kernel import kernel_fixed_point`` in ``routing/dynamic.py``...),
so a call through any import site lands in a wrapper.  Each call records
one span ``(site, start, end, parent)``; spans stay in memory, grouped
per repetition (the run id), and are written once at the end.  A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans of one repetition plus the root's self time
(``trace.other_s``) add up to the traced wall time.

Private per-row helpers (``_relax_avoid``, ``_note_offer``...) are never
wrapped: their hundreds of thousands of calls would swamp the trace.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Workloads that run the simulator, and so every layer under it.
SIM = ("faithful", "churn", "sweep")
#: Workloads that run the faithful (checked, banked) protocol.
CHECKED = ("faithful", "sweep")
NONE: Tuple[str, ...] = ()

#: (self-time bucket, "module:Attr.path", workloads on which at least one
#: call is expected, what to keep from each call).  The bucket name is the
#: per-layer metric its self time is reported under.  ``keep`` says what
#: to keep from each call for exact counts read from the public API after
#: the repetition: None, "len" (add ``len(result)`` to a tally),
#: "result", "self" (the instance), or an attribute name of the instance.
TARGETS: Tuple[Tuple[str, str, Sequence[str], Optional[str]], ...] = (
    # sim: simulator, node delivery, event queue
    ("sim.self_s", "repro.sim.simulator:Simulator.__init__", SIM, "metrics"),
    ("sim.self_s", "repro.sim.simulator:Simulator.run_until_quiescent", SIM, None),
    ("sim.self_s", "repro.sim.simulator:Simulator.schedule_local", SIM, None),
    ("sim.self_s", "repro.sim.node:ProtocolNode.deliver_batch", SIM, None),
    ("sim.self_s", "repro.sim.events:DeliveryInbox.collect", SIM, None),
    ("sim.transmit_s", "repro.sim.simulator:Simulator.transmit", SIM, None),
    # crypto: signing and stable digests
    ("crypto.s", "repro.sim.crypto:SigningAuthority.sign", CHECKED, None),
    ("crypto.s", "repro.sim.crypto:SigningAuthority.verify", CHECKED, None),
    ("crypto.s", "repro.sim.crypto:stable_hash", SIM, None),
    # fpss: wire encoding and the node handlers
    ("fpss.encode_s", "repro.routing.kernel:ReplayKernel.consume_route_delta", SIM, "len"),
    ("fpss.encode_s", "repro.routing.kernel:ReplayKernel.consume_avoid_delta", SIM, "len"),
    ("fpss.encode_s", "repro.routing.fpss:delta_size", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.start_phase1", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.on_cost_decl", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.start_phase2", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.recompute_and_announce", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.flush_batch", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.announce_routes", ("churn", "sweep"), None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.announce_prices", ("churn", "sweep"), None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.on_rt_update", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.on_price_update", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.originate_flow", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.on_packet", SIM, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.react_to_topology_change", ("churn",), None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.resend_full_tables", NONE, None),
    ("fpss.handler_self_s", "repro.routing.fpss:FPSSNode.join_network", NONE, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.prepare_checking", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.start_phase2", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.announce_routes", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.announce_prices", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.on_rt_update", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.on_price_update", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.flush_batch", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.forward_copy_to_checkers", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.on_checker_copy", CHECKED, None),
    ("fpss.handler_self_s", "repro.faithful.node:FaithfulRoutingNode.observe_packet", CHECKED, None),
    # kernel: the replay kernel and its synchronous fixed point
    ("kernel.init_s", "repro.routing.kernel:ReplayKernel.__init__", SIM, "stats"),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.apply_route_delta", SIM, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.apply_avoid_delta", SIM, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.apply_route_update", NONE, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.apply_avoid_update", NONE, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.note_cost_declaration", SIM, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.reset_phase2", SIM, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.detach_neighbor", NONE, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.attach_neighbor", NONE, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.retract_cost_declaration", NONE, None),
    ("kernel.ingest_s", "repro.routing.kernel:ReplayKernel.change_own_cost", NONE, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.recompute_routes", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.recompute_avoidance", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.derive_pricing", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.recompute_routes_incremental", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.recompute_avoidance_incremental", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.derive_pricing_incremental", SIM, None),
    ("kernel.relax_s", "repro.routing.kernel:ReplayKernel.settle", SIM, None),
    # The fixed point's own round loop is relaxation driving; its
    # inclusive time is reported separately as kernel.fixed_point_s.
    ("kernel.relax_s", "repro.routing.kernel:kernel_fixed_point", ("churn", "sweep"), None),
    ("kernel.digest_s", "repro.routing.kernel:ReplayKernel.routing_digest", SIM, None),
    ("kernel.digest_s", "repro.routing.kernel:ReplayKernel.pricing_digest", SIM, None),
    ("kernel.digest_s", "repro.routing.kernel:ReplayKernel.cost_digest", CHECKED, None),
    ("kernel.digest_s", "repro.routing.kernel:ReplayKernel.full_digest", NONE, None),
    # mirror: checker replay over shared kernels
    ("mirror.setup_s", "repro.routing.kernel:MirrorKernelPool.__init__", CHECKED, "self"),
    ("mirror.setup_s", "repro.routing.kernel:MirrorKernelPool.acquire", CHECKED, None),
    ("mirror.setup_s", "repro.routing.kernel:MirrorKernelPool.new_epoch", CHECKED, None),
    ("mirror.setup_s", "repro.faithful.mirror:PrincipalMirror.start_phase2", CHECKED, None),
    ("mirror.ingest_s", "repro.faithful.mirror:PrincipalMirror.record_sent", CHECKED, None),
    ("mirror.ingest_s", "repro.faithful.mirror:PrincipalMirror.apply_copy", CHECKED, None),
    ("mirror.ingest_s", "repro.routing.kernel:SharedKernel.ingest", CHECKED, None),
    ("mirror.flush_s", "repro.faithful.mirror:PrincipalMirror.flush_pending", CHECKED, None),
    ("mirror.flush_s", "repro.routing.kernel:SharedKernel.flush", CHECKED, None),
    ("mirror.fork_s", "repro.routing.kernel:SharedKernel.fork_at", NONE, None),
    ("mirror.verify_s", "repro.faithful.mirror:PrincipalMirror.observe_route_broadcast", CHECKED, None),
    ("mirror.verify_s", "repro.faithful.mirror:PrincipalMirror.observe_price_broadcast", CHECKED, None),
    ("mirror.verify_s", "repro.faithful.mirror:PrincipalMirror.checkpoint_flags", CHECKED, None),
    ("mirror.verify_s", "repro.faithful.mirror:PrincipalMirror.routing_digest", CHECKED, None),
    ("mirror.verify_s", "repro.faithful.mirror:PrincipalMirror.pricing_digest", CHECKED, None),
    # protocol: orchestration and bank checkpoints
    ("protocol.self_s", "repro.faithful.protocol:FaithfulFPSSProtocol.run", CHECKED, "result"),
    ("protocol.checkpoint_s", "repro.faithful.bank:BankNode.request_reports", CHECKED, None),
    ("protocol.checkpoint_s", "repro.faithful.bank:BankNode.on_bank_report", CHECKED, None),
    ("protocol.checkpoint_s", "repro.faithful.bank:BankNode.decide_phase1", CHECKED, None),
    ("protocol.checkpoint_s", "repro.faithful.bank:BankNode.decide_bank1", CHECKED, None),
    ("protocol.checkpoint_s", "repro.faithful.bank:BankNode.decide_bank2", CHECKED, None),
    ("protocol.checkpoint_s", "repro.faithful.node:FaithfulRoutingNode.on_bank_request", CHECKED, None),
    # bank: settlement, netting, audit, forced payment
    ("bank.settle_s", "repro.faithful.bank:BankNode.settle", CHECKED, None),
    ("bank.settle_s", "repro.faithful.bank:BankNode.settle_netted", ("settle", "sweep"), "result"),
    ("bank.net_s", "repro.faithful.settlement:NettingLedger.record", ("settle", "sweep"), None),
    ("bank.net_s", "repro.faithful.settlement:NettingLedger.close_epoch", ("settle", "sweep"), None),
    ("bank.net_s", "repro.faithful.settlement:net_positions", ("sweep",), None),
    ("bank.audit_s", "repro.faithful.settlement:settlement_audit", NONE, None),
    ("bank.forced_s", "repro.faithful.bank:BankNode.run_forced_settlement", ("settle", "sweep"), None),
    ("bank.forced_s", "repro.faithful.settlement:forced_settlement", ("settle", "sweep"), None),
    # dynamic: churn epochs and the epoch-equivalence oracle
    ("dynamic.epoch_self_s", "repro.routing.dynamic:DynamicTopologyEngine.run", ("churn", "sweep"), "result"),
    ("dynamic.epoch_self_s", "repro.routing.dynamic:DynamicTopologyEngine.converge", ("churn", "sweep"), None),
    ("dynamic.epoch_self_s", "repro.routing.dynamic:DynamicTopologyEngine.run_epoch", ("churn", "sweep"), None),
    ("dynamic.verify_s", "repro.routing.dynamic:DynamicTopologyEngine.verify_equivalence", ("churn", "sweep"), None),
    ("dynamic.verify_s", "repro.routing.dynamic:verify_epoch_equivalence", ("churn", "sweep"), None),
    # engine: centralised Dijkstra and VCG payments
    ("engine.s", "repro.routing.engine:RoutingEngine.__init__", ("sweep",), "self"),
    ("engine.s", "repro.routing.engine:RoutingEngine.tree", ("sweep",), None),
    ("engine.s", "repro.routing.engine:RoutingEngine.partial_tree", NONE, None),
    ("engine.s", "repro.routing.engine:RoutingEngine.path", NONE, None),
    ("engine.s", "repro.routing.engine:RoutingEngine.cost", NONE, None),
    ("engine.s", "repro.routing.engine:RoutingEngine.detour_costs", NONE, None),
    ("engine.s", "repro.routing.engine:RoutingEngine.source_detour_labels", NONE, None),
    ("engine.s", "repro.routing.vcg_payments:all_pairs_payments", ("sweep",), None),
    ("engine.s", "repro.routing.vcg_payments:economics_under_traffic", ("sweep",), None),
    # mechanism: the distributed mechanism and the faithfulness verifier
    ("mechanism.self_s", "repro.mechanism.distributed:DistributedMechanism.run", ("sweep",), None),
    ("mechanism.self_s", "repro.mechanism.faithfulness:proposition1_verdict", ("sweep",), None),
    ("mechanism.self_s", "repro.mechanism.faithfulness:check_compatibility", ("sweep",), None),
    ("mechanism.self_s", "repro.mechanism.solution:check_ex_post_nash", ("sweep",), None),
    # experiments: sweep orchestration, the cell store, artifacts
    ("experiments.self_s", "repro.experiments.runner:SweepRunner.run", ("sweep",), None),
    ("experiments.cell_s", "repro.experiments.runner:run_scenario", ("sweep",), None),
    ("experiments.store_s", "repro.experiments.artifacts:CellStore.append", ("sweep",), None),
    ("experiments.artifacts_s", "repro.experiments.aggregate:write_artifacts", ("sweep",), None),
)

#: Self-time buckets in report order; the root span's self time is
#: ``trace.other_s``.
BUCKETS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))
#: Targets whose inclusive (self plus children) durations are kept.
INCLUSIVE = frozenset(
    index
    for index, target in enumerate(TARGETS)
    if target[1].endswith((":kernel_fixed_point", ":DistributedMechanism.run"))
)
ROOT = -1
MARK = "__perfbench_wrapper__"


def _resolve(path: str):
    """``"module:Attr.path"`` -> (module, owner object, attribute name)."""
    module_name, _, qual = path.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if name not in vars(owner):
        raise LookupError(f"{path}: not defined on {owner!r}")
    return module, owner, name


def _repro_modules() -> List[Tuple[str, object]]:
    return sorted(
        (name, module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    )


def assert_pristine() -> None:
    """Raise if any traced attribute is still a benchmark wrapper.

    The timed runs call this before and after measuring, so no timed
    repetition ever runs through a wrapper.
    """
    for _bucket, path, _expect, _keep in TARGETS:
        _module, owner, name = _resolve(path)
        if getattr(vars(owner)[name], MARK, False):
            raise RuntimeError(f"{path} is still wrapped during a timed run")
    for module_name, module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if getattr(value, MARK, False):
                raise RuntimeError(f"{module_name}.{attr} is still wrapped")


class Tracer:
    """Installs the span wrappers, records spans, and folds them.

    ``sites`` are the rebound attributes, each labelled; ``site_target``
    maps a site to its row of :data:`TARGETS`.  ``spans`` holds one
    ``(site, start, end, parent)`` tuple per call, where ``parent``
    indexes ``spans`` (``-1`` for the root span, whose site is ``ROOT``);
    ``runs`` holds the ``[first, last)`` span range of each repetition.
    """

    def __init__(self) -> None:
        self.sites: List[str] = []
        self.site_target: List[int] = []
        self.spans: List = []
        self.runs: List[Tuple[int, int]] = []
        #: Per target index: kept objects, and the "len" tally.
        self.kept: Dict[int, list] = {i: [] for i in range(len(TARGETS))}
        self.tallies: List[int] = [0] * len(TARGETS)
        self._stack: List[int] = [-1]
        self._site_index: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []
        self._originals: List[Tuple[int, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every namespace that holds it."""
        self._originals = []
        # Resolve (import) everything first: a module imported half-way
        # through would bind wrappers that uninstall never sees.
        resolved = [_resolve(path) for _bucket, path, _expect, _keep in TARGETS]
        for index, (_bucket, path, _expect, keep) in enumerate(TARGETS):
            module, owner, name = resolved[index]
            original = vars(owner)[name]
            self._originals.append((index, original))
            if owner is module:
                holders = [
                    (module_name, mod, attr)
                    for module_name, mod in _repro_modules()
                    for attr, value in list(vars(mod).items())
                    if value is original
                ]
            else:
                holders = [(path.partition(":")[0], owner, name)]
            for holder_name, holder, attr in holders:
                label = (
                    f"{holder_name}.{attr}" if owner is module
                    else path.partition(":")[2]
                )
                site = self._site(label, index)
                self._restore.append((holder, attr, original))
                setattr(holder, attr, self._wrap(original, site, index, keep))

    def _site(self, label: str, target: int) -> int:
        """The site index of ``label``, stable across re-installs."""
        if label not in self._site_index:
            self._site_index[label] = len(self.sites)
            self.sites.append(label)
            self.site_target.append(target)
        return self._site_index[label]

    def target(self, suffix: str) -> int:
        """Index of the one target whose path ends with ``suffix``."""
        (index,) = [i for i, t in enumerate(TARGETS) if t[1].endswith(suffix)]
        return index

    def uninstall(self) -> None:
        """Bind every original back."""
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def missed_sites(self) -> List[str]:
        """Namespaces still holding an unwrapped original (must be empty).

        Called while the wrappers are installed: catches a name imported
        into a module, or kept in a module-level container, that
        :meth:`install` did not rebind.
        """
        missed = []
        for index, original in self._originals:
            for module_name, module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if isinstance(value, dict):
                        values = list(value.values())
                    elif isinstance(value, (list, tuple)):
                        values = value
                    else:
                        values = (value,)
                    if any(v is original for v in values):
                        missed.append(f"{module_name}.{attr} ({TARGETS[index][1]})")
        return missed

    def _wrap(self, fn, site: int, target: int, keep: Optional[str]):
        spans = self.spans
        stack = self._stack
        kept = self.kept[target]
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (site, start, end, parent)
            if keep is not None:
                if keep == "len":
                    tallies[target] += len(result)
                elif keep == "result":
                    kept.append(result)
                elif keep == "self":
                    kept.append(args[0])
                else:
                    kept.append(getattr(args[0], keep))
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- recording --------------------------------------------------------

    def run(self, body):
        """Run one traced repetition under a root span; return its result."""
        first = len(self.spans)
        self.spans.append(None)
        self._stack.append(first)
        start = clock()
        try:
            return body()
        finally:
            end = clock()
            self._stack.pop()
            self.spans[first] = (ROOT, start, end, -1)
            self.runs.append((first, len(self.spans)))

    # -- folding ----------------------------------------------------------

    def fold(self) -> Dict[str, object]:
        """Per-repetition self times, call counts, and the self-check.

        Returns mean-per-repetition bucket self times, ``trace.other_s``,
        the traced wall, per-target call counts, inclusive durations of
        selected targets, and the largest self-check residual (how far
        the self times plus ``other`` miss the wall, in seconds).
        """
        spans = self.spans
        target_of = self.site_target
        bucket_self = dict.fromkeys(BUCKETS, 0.0)
        calls = [0] * len(TARGETS)
        inclusive: Dict[int, List[float]] = {}
        other = wall = 0.0
        residual = 0.0
        open_spans = 0
        for first, last in self.runs:
            child = [0.0] * (last - first)
            for sid in range(last - 1, first - 1, -1):
                span = spans[sid]
                if span is None:
                    open_spans += 1
                    continue
                _site, start, end, parent = span
                if parent >= first:
                    child[parent - first] += end - start
            run_self = 0.0
            for sid in range(first, last):
                span = spans[sid]
                if span is None:
                    continue
                site, start, end, parent = span
                duration = end - start
                own = duration - child[sid - first]
                if site == ROOT:
                    other += own
                    wall += duration
                    run_wall = duration
                    run_other = own
                    continue
                run_self += own
                target = target_of[site]
                bucket_self[TARGETS[target][0]] += own
                calls[target] += 1
                if target in INCLUSIVE:
                    inclusive.setdefault(target, []).append(duration)
            residual = max(residual, abs(run_self + run_other - run_wall))
        reps = max(1, len(self.runs))
        return {
            "reps": len(self.runs),
            "bucket_self": {k: v / reps for k, v in bucket_self.items()},
            "other": other / reps,
            "wall": wall / reps,
            "calls": calls,
            "inclusive": inclusive,
            "residual": residual,
            "open_spans": open_spans + len(self._stack) - 1,
            "spans_per_rep": (len(spans) / reps),
        }

    def write(self, path: str) -> None:
        """Write every span once, as gzipped tab-separated text."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("run\tspan\tparent\tname\tstart\tend\n")
            for run_id, (first, last) in enumerate(self.runs):
                for sid in range(first, last):
                    site, start, end, parent = self.spans[sid]
                    name = "trace.root" if site == ROOT else self.sites[site]
                    handle.write(
                        f"{run_id}\t{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n"
                    )

