"""Per-pair reference audit and forced settlement (the test oracle).

The original implementation of :func:`repro.faithful.settlement_audit`
and :func:`repro.faithful.forced_settlement`, kept verbatim: the audit
rescans the whole trace and transfer list for one pair, and forced
settlement audits every traced pair that way, so its cost is
pairs x (trace + transfers).  The production code groups both lists by
pair in one pass; ``test_settlement_oracle.py`` requires it to match
this oracle exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, MutableMapping, Sequence, Tuple

from repro.faithful.settlement import (
    AuditReport,
    BatchTransfer,
    ForcedPayment,
    NettingLedger,
    Obligation,
    _pair_key,
)
from repro.sim.messages import NodeId


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
    owed_terms: List[float] = []
    for obligation in trace:
        if obligation.accepted_at > at_time:
            continue
        if obligation.debtor == debtor and obligation.creditor == creditor:
            owed_terms.append(obligation.amount)
        elif obligation.debtor == creditor and obligation.creditor == debtor:
            owed_terms.append(-obligation.amount)

    paid_terms: List[float] = []
    for transfer in transfers:
        if transfer.closure_time > at_time:
            continue
        for payee, amount in transfer.payouts:
            if transfer.debtor == debtor and payee == creditor:
                paid_terms.append(amount)
            elif transfer.debtor == creditor and payee == debtor:
                paid_terms.append(-amount)

    return AuditReport(
        debtor=debtor,
        creditor=creditor,
        at_time=at_time,
        owed=math.fsum(owed_terms),
        paid=math.fsum(paid_terms),
    )


def forced_settlement(
    ledger: NettingLedger,
    deposits: MutableMapping[NodeId, float],
    epsilon: float = 0.01,
    at_time: float = 0.0,
    tolerance: float = 1e-9,
) -> List[ForcedPayment]:
    """Enforce audited shortfalls against the debtors' deposits.

    Audits every principal pair that appears in the signed trace up to
    ``at_time``; where the unpaid balance exceeds ``tolerance``, draws
    ``min(deposit, shortfall)`` from the defaulting debtor's deposit,
    issues a covering :class:`BatchTransfer` for the drawn amount, and
    applies the paper's epsilon penalty on top — deviation (here:
    non-payment) must end strictly below the faithful outcome.

    Money conservation: the sum of deposit draws equals the sum of
    forced transfer totals exactly, and no deposit goes negative.
    """
    pairs: List[Tuple[NodeId, NodeId]] = []
    seen: Dict[Tuple[NodeId, NodeId], bool] = {}
    for obligation in ledger.trace:
        if obligation.accepted_at > at_time:
            continue
        key = _pair_key(obligation.debtor, obligation.creditor)
        if key not in seen:
            seen[key] = True
            pairs.append(key)

    outcomes: List[ForcedPayment] = []
    for a, b in sorted(pairs, key=repr):
        report = settlement_audit(ledger.trace, ledger.transfers, a, b, at_time)
        if abs(report.unpaid) <= tolerance:
            continue
        if report.unpaid > 0:
            debtor, creditor, shortfall = a, b, report.unpaid
        else:
            debtor, creditor, shortfall = b, a, -report.unpaid
        balance = deposits.get(debtor, 0.0)
        drawn = min(balance, shortfall)
        if drawn < 0:
            drawn = 0.0
        deposits[debtor] = balance - drawn
        if drawn > 0:
            ledger.transfers.append(
                BatchTransfer(
                    debtor=debtor,
                    closure_time=at_time,
                    payouts=((creditor, drawn),),
                )
            )
        outcomes.append(
            ForcedPayment(
                debtor=debtor,
                creditor=creditor,
                shortfall=shortfall,
                drawn=drawn,
                penalty=epsilon,
            )
        )
    return outcomes
