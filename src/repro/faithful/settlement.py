"""Epoch netting, batch transfers, audit, and forced settlement.

The paper's bank enforces payments per flow; at millions of flows per
settle that means millions of tiny transfers.  Production settlement
systems (the Golem Concent service is the model here) instead net
obligations per epoch and pay **lump sums**: one batch transfer per
net debtor, stamped with a ``closure_time`` that covers every
obligation accepted before it.  Because the signed obligation trace is
kept, any party can later *audit* — reconstruct the unpaid balance of
a debtor/creditor pair from the trace and the transfer list — and the
bank can run *forced settlement*: draw the audited shortfall from the
debtor's deposit, epsilon-penalty preserved.

Exactness contract
------------------
All money reductions in this module use :func:`math.fsum`, which is
exactly rounded over its input multiset.  Netting, :func:`net_positions`,
the audit and forced settlement all start from :func:`_pair_nets`: one
pass that groups *signed* amounts per unordered principal pair and
reduces each group with one fsum.
Per-flow transfers and the batch transfers netted from them therefore
produce **bit-identical** net positions — the property
`tests/faithful/test_settlement_equivalence.py` checks — and after
:meth:`NettingLedger.close_epoch` every pair audits to exactly ``0.0``.
Forced settlement nets trace and transfers once: O(trace + transfers +
pairs log pairs).  Read against its direction, a pair net is ``0.0 -
net``, not ``-net``, so a zero balance is never ``-0.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ProtocolError
from ..sim.messages import NodeId


@dataclass(frozen=True)
class Obligation:
    """One signed transit-payment obligation (the trace unit)."""

    debtor: NodeId
    creditor: NodeId
    amount: float
    #: Time the bank accepted (signed) the obligation.
    accepted_at: float


@dataclass(frozen=True)
class BatchTransfer:
    """One lump-sum payment from a net debtor.

    ``closure_time`` covers every obligation accepted at or before it:
    the payment discharges the debtor's whole netted balance for the
    epoch, Concent-style, instead of one transfer per flow.
    """

    debtor: NodeId
    closure_time: float
    #: Repr-sorted ``(creditor, amount)`` rows, every amount > 0.
    payouts: Tuple[Tuple[NodeId, float], ...]

    @property
    def total(self) -> float:
        """The lump sum the debtor pays out."""
        return math.fsum(amount for _creditor, amount in self.payouts)

    def triples(self) -> List[Tuple[NodeId, NodeId, float]]:
        """The transfer as (payer, payee, amount) rows."""
        return [
            (self.debtor, creditor, amount) for creditor, amount in self.payouts
        ]


@dataclass(frozen=True)
class AuditReport:
    """Reconstructed balance of one debtor->creditor direction."""

    debtor: NodeId
    creditor: NodeId
    at_time: float
    #: Net amount the debtor owed the creditor from the signed trace.
    owed: float
    #: Net amount already discharged by batch transfers.
    paid: float

    @property
    def unpaid(self) -> float:
        """Outstanding balance (can be negative when overpaid)."""
        return self.owed - self.paid

    @property
    def shortfall(self) -> float:
        """The enforceable part of the balance (never negative)."""
        return max(0.0, self.owed - self.paid)


@dataclass(frozen=True)
class ForcedPayment:
    """Outcome of one forced-settlement enforcement action."""

    debtor: NodeId
    creditor: NodeId
    #: Audited unpaid balance at enforcement time.
    shortfall: float
    #: Amount actually drawn from the debtor's deposit.
    drawn: float
    #: Epsilon penalty applied on top of the draw.
    penalty: float


def _pair_key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
    """Canonical unordered pair (repr-sorted endpoints)."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


PairNets = Dict[Tuple[NodeId, NodeId], float]


def _pair_nets(rows: Iterable[Tuple[NodeId, NodeId, float]]) -> PairNets:
    """Fsum-exact signed net per unordered pair, one pass over the rows.

    A net is positive when the repr-smaller endpoint pays the larger.
    """
    groups: Dict[Tuple[NodeId, NodeId], List[float]] = {}
    for payer, payee, amount in rows:
        key = _pair_key(payer, payee)
        groups.setdefault(key, []).append(amount if payer == key[0] else -amount)
    return {key: math.fsum(terms) for key, terms in groups.items()}


def _require_finite(name: str, value: float) -> None:
    """Reject a NaN or infinite time (NaN compares false to everything)."""
    if not math.isfinite(value):
        raise ProtocolError(f"{name} must be finite, got {value!r}")


@dataclass
class NettingLedger:
    """Per-epoch accumulation of transit obligations between pairs.

    Obligations recorded via :meth:`record` stay *pending* until
    :meth:`close_epoch` nets them — one :class:`BatchTransfer` per net
    debtor — and archives them on the signed ``trace`` for later
    audit.  The ledger never forgets: ``trace`` and ``transfers`` are
    the inputs to :func:`settlement_audit` and
    :func:`forced_settlement`.
    """

    #: Obligations recorded but not yet netted into a batch transfer.
    _pending: List[Obligation] = field(default_factory=list)
    #: The full signed obligation trace (append-only, audit input).
    trace: List[Obligation] = field(default_factory=list)
    #: Every batch transfer issued so far (append-only).
    transfers: List[BatchTransfer] = field(default_factory=list)
    epochs_closed: int = 0
    #: Principal pairs the last :func:`forced_settlement` audited.
    pairs_audited: int = 0

    def record(
        self, debtor: NodeId, creditor: NodeId, amount: float, accepted_at: float
    ) -> None:
        """Accept one signed obligation into the open epoch."""
        if debtor == creditor:
            raise ProtocolError(
                f"obligation debtor and creditor are the same node: {debtor!r}"
            )
        if not (math.isfinite(amount) and amount >= 0):
            raise ProtocolError(
                f"obligation amount must be finite and >= 0, got {amount!r}"
            )
        _require_finite("accepted_at", accepted_at)
        obligation = Obligation(debtor, creditor, amount, accepted_at)
        self._pending.append(obligation)
        self.trace.append(obligation)

    def record_many(
        self,
        obligations: Iterable[Tuple[NodeId, NodeId, float]],
        accepted_at: float,
    ) -> None:
        """Accept a batch of (debtor, creditor, amount) obligations."""
        for debtor, creditor, amount in obligations:
            self.record(debtor, creditor, amount, accepted_at=accepted_at)

    @property
    def pending_count(self) -> int:
        """Obligations awaiting the next epoch close."""
        return len(self._pending)

    def close_epoch(self, closure_time: float) -> List[BatchTransfer]:
        """Net all pending obligations into one transfer per debtor.

        ``closure_time`` must cover every pending obligation (none
        accepted after it) — the Concent rule that a batch payment's
        closure time bounds what it discharges.  Pairwise nets are
        fsum-exact; transfers and their payouts are repr-sorted.
        """
        _require_finite("closure_time", closure_time)
        for obligation in self._pending:
            if obligation.accepted_at > closure_time:
                raise ProtocolError(
                    "closure_time "
                    f"{closure_time} does not cover obligation accepted at "
                    f"{obligation.accepted_at}"
                )
        nets = _pair_nets((o.debtor, o.creditor, o.amount) for o in self._pending)
        payouts: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
        for key in sorted(nets, key=repr):
            net = nets[key]
            if net > 0:
                payouts.setdefault(key[0], []).append((key[1], net))
            elif net < 0:
                payouts.setdefault(key[1], []).append((key[0], -net))

        transfers = [
            BatchTransfer(
                debtor=debtor,
                closure_time=closure_time,
                payouts=tuple(sorted(payouts[debtor], key=repr)),
            )
            for debtor in sorted(payouts, key=repr)
        ]
        self.transfers.extend(transfers)
        self._pending.clear()
        self.epochs_closed += 1
        return transfers


TransferLike = Union[BatchTransfer, Tuple[NodeId, NodeId, float]]


def net_positions(
    transfers: Iterable[TransferLike],
    nodes: Optional[Sequence[NodeId]] = None,
) -> Dict[NodeId, float]:
    """Net money position of every node touched by the transfers.

    Accepts raw ``(payer, payee, amount)`` triples,``BatchTransfer``
    instances, or a mix.  Positions are computed with the same
    pair-grouped signed-fsum reduction :meth:`NettingLedger.
    close_epoch` uses, so a per-flow transfer list and the batch
    transfers netted from it yield **bit-identical** positions.
    ``nodes`` pre-seeds keys for nodes that may not appear in any
    transfer (their position is 0.0).
    """
    nets = _pair_nets(
        row
        for t in transfers
        for row in (t.triples() if isinstance(t, BatchTransfer) else (t,))
    )
    pair_terms: Dict[NodeId, List[float]] = {}
    if nodes is not None:
        for node in sorted(nodes, key=repr):
            pair_terms.setdefault(node, [])
    for key in sorted(nets, key=repr):
        value = nets[key]
        # key[0] pays value toward key[1] (negative when reversed).
        pair_terms.setdefault(key[0], []).append(-value)
        pair_terms.setdefault(key[1], []).append(value)
    return {node: math.fsum(terms) for node, terms in pair_terms.items()}


def _audit_nets(
    trace: Iterable[Obligation], transfers: Iterable[BatchTransfer], at_time: float
) -> Tuple[PairNets, PairNets]:
    """Owed (trace) and paid (payout) pair nets as of ``at_time``, one pass each."""
    owed = _pair_nets(
        (o.debtor, o.creditor, o.amount) for o in trace if o.accepted_at <= at_time
    )
    paid = _pair_nets(
        (transfer.debtor, payee, amount)
        for transfer in transfers
        if transfer.closure_time <= at_time
        for payee, amount in transfer.payouts
    )
    return owed, paid


def settlement_audit(
    trace: Sequence[Obligation],
    transfers: Sequence[BatchTransfer],
    debtor: NodeId,
    creditor: NodeId,
    at_time: float,
) -> AuditReport:
    """Reconstruct the unpaid balance of a pair from the signed record.

    Concent-style: ``owed`` is the signed net of every traced
    obligation between the two nodes accepted at or before
    ``at_time`` (positive in the debtor->creditor direction); ``paid``
    is the signed net of every batch-transfer payout between them with
    ``closure_time`` at or before ``at_time``.  Both reductions are
    fsum-exact, so right after an epoch close the unpaid balance of
    every settled pair is exactly ``0.0``.
    """
    _require_finite("at_time", at_time)
    owed, paid = _audit_nets(trace, transfers, at_time)
    key = _pair_key(debtor, creditor)
    owed_net, paid_net = owed.get(key, 0.0), paid.get(key, 0.0)
    if debtor != key[0]:
        owed_net, paid_net = 0.0 - owed_net, 0.0 - paid_net
    return AuditReport(debtor, creditor, at_time, owed=owed_net, paid=paid_net)


def forced_settlement(
    ledger: NettingLedger,
    deposits: MutableMapping[NodeId, float],
    epsilon: float = 0.01,
    at_time: float = 0.0,
    tolerance: float = 1e-9,
) -> List[ForcedPayment]:
    """Enforce audited shortfalls against the debtors' deposits.

    Audits every principal pair that appears in the signed trace up to
    ``at_time``, in repr order; where the unpaid balance exceeds
    ``tolerance``, draws ``min(deposit, shortfall)`` from the
    defaulting debtor's deposit, issues a covering
    :class:`BatchTransfer` for the drawn amount, and applies the
    paper's epsilon penalty on top — deviation (here: non-payment)
    must end strictly below the faithful outcome.

    The trace and the transfers are netted by pair once, up front.
    That is exact: a forced transfer appended during the loop only
    touches the pair being processed, which is never audited again.

    Money conservation: the sum of deposit draws equals the sum of
    forced transfer totals exactly, and no deposit goes negative.
    """
    _require_finite("at_time", at_time)
    owed, paid = _audit_nets(ledger.trace, ledger.transfers, at_time)
    ledger.pairs_audited = len(owed)
    outcomes: List[ForcedPayment] = []
    for a, b in sorted(owed, key=repr):
        unpaid = owed[a, b] - paid.get((a, b), 0.0)
        if abs(unpaid) <= tolerance:
            continue
        if unpaid > 0:
            debtor, creditor, shortfall = a, b, unpaid
        else:
            debtor, creditor, shortfall = b, a, -unpaid
        balance = deposits.get(debtor, 0.0)
        drawn = max(min(balance, shortfall), 0.0)
        deposits[debtor] = balance - drawn
        if drawn > 0:
            ledger.transfers.append(
                BatchTransfer(debtor, at_time, payouts=((creditor, drawn),))
            )
        outcomes.append(
            ForcedPayment(debtor, creditor, shortfall, drawn, penalty=epsilon)
        )
    return outcomes


def synthesize_execution_reports(
    graph: "Any",
    traffic: Mapping[Tuple[NodeId, NodeId], float],
    repeats: int = 1,
) -> Dict[NodeId, Dict[str, Any]]:
    """Honest execution reports straight from the VCG route bundle.

    Builds the exact wire format :meth:`repro.faithful.node.
    CheckedNode.execution_report` produces — receipts, first-hop
    observations with per-transit charges, delivered rows, and
    consistent ``reported_payments`` — without simulating packet
    events, so settlement benchmarks and the sweep probe can feed the
    bank millions of observation rows cheaply.  ``repeats`` replays
    each traffic flow that many times (distinct observation rows, one
    aggregated receipt row per hop).
    """
    from ..routing.vcg_payments import all_pairs_payments

    if repeats < 1:
        raise ProtocolError(f"repeats must be >= 1, got {repeats}")
    payments = all_pairs_payments(graph)
    receipts: Dict[NodeId, Dict[Tuple[NodeId, NodeId], Dict[NodeId, float]]] = {}
    observations: Dict[NodeId, List[Tuple]] = {}
    delivered: Dict[NodeId, Dict[Tuple[NodeId, NodeId], float]] = {}
    paid: Dict[NodeId, Dict[NodeId, List[float]]] = {}

    for (source, destination), volume in sorted(traffic.items(), key=repr):
        if volume <= 0 or source == destination:
            continue
        bundle = payments[(source, destination)]
        path = bundle.route.path
        flow = (source, destination)
        charges = [
            (transit, bundle.payments[transit] * volume)
            for transit in path[1:-1]
        ]
        first_hop = path[1]
        rows = observations.setdefault(first_hop, [])
        for _repeat in range(repeats):
            rows.append((source, destination, volume, path, charges))
        for index in range(1, len(path)):
            receiver = path[index]
            sender = path[index - 1]
            receipts.setdefault(receiver, {}).setdefault(flow, {})[sender] = (
                volume * repeats
            )
        flows = delivered.setdefault(path[-1], {})
        flows[flow] = flows.get(flow, 0.0) + volume * repeats
        payees = paid.setdefault(source, {})
        for transit, amount in charges:
            terms = payees.setdefault(transit, [])
            for _repeat in range(repeats):
                terms.append(amount)

    reports: Dict[NodeId, Dict[str, Any]] = {}
    for node in sorted(graph.nodes, key=repr):
        reports[node] = {
            "reported_payments": sorted(
                (
                    (payee, math.fsum(terms))
                    for payee, terms in paid.get(node, {}).items()
                ),
                key=repr,
            ),
            "receipts": [
                (origin, dest, sender, volume)
                for (origin, dest), senders in sorted(
                    receipts.get(node, {}).items(), key=repr
                )
                for sender, volume in sorted(senders.items(), key=repr)
            ],
            "delivered": [
                (origin, dest, volume)
                for (origin, dest), volume in sorted(
                    delivered.get(node, {}).items(), key=repr
                )
            ],
            "observations": observations.get(node, []),
            "flags": [],
        }
    return reports
