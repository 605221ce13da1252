"""NettingLedger, settlement audit, and forced settlement.

The Concent-style settlement layer: per-epoch obligations net into one
lump-sum :class:`BatchTransfer` per debtor whose ``closure_time``
covers everything accepted before it; :func:`settlement_audit`
reconstructs any pair's unpaid balance from the signed trace; and
:func:`forced_settlement` draws audited shortfalls from deposits with
the paper's epsilon penalty on top.  Money conservation of the forced
path is property-tested.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.faithful import (
    BankNode,
    BatchTransfer,
    NettingLedger,
    forced_settlement,
    net_positions,
    settlement_audit,
    synthesize_execution_reports,
)
from repro.routing import figure1_graph
from repro.workloads import uniform_all_pairs

import settlement_oracle as oracle


class TestNettingLedger:
    def test_nets_pairwise_and_batches_per_debtor(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        ledger.record("B", "A", 1.0, accepted_at=0.0)
        ledger.record("A", "C", 2.0, accepted_at=0.0)
        transfers = ledger.close_epoch(0.0)
        assert len(transfers) == 1
        (transfer,) = transfers
        assert transfer.debtor == "A"
        assert transfer.closure_time == 0.0
        assert transfer.payouts == (("B", 2.0), ("C", 2.0))
        assert transfer.total == pytest.approx(4.0)
        assert ledger.pending_count == 0
        assert ledger.epochs_closed == 1

    def test_fully_netted_pair_produces_no_transfer(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 2.5, accepted_at=0.0)
        ledger.record("B", "A", 2.5, accepted_at=0.0)
        assert ledger.close_epoch(0.0) == []
        # The trace still remembers both obligations for audit.
        assert len(ledger.trace) == 2

    def test_closure_time_must_cover_pending(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=5.0)
        with pytest.raises(ProtocolError, match="does not cover"):
            ledger.close_epoch(4.0)

    def test_self_obligation_rejected(self):
        ledger = NettingLedger()
        with pytest.raises(ProtocolError, match="same node"):
            ledger.record("A", "A", 1.0, accepted_at=0.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
    def test_non_finite_amount_rejected(self, amount):
        # A NaN shortfall once drew the debtor's whole deposit, and an
        # inf amount netted into a batch transfer paying inf.
        ledger = NettingLedger()
        with pytest.raises(ProtocolError, match="finite and >= 0"):
            ledger.record("A", "B", amount, accepted_at=0.0)
        assert ledger.trace == [] and ledger.pending_count == 0

    def test_negative_amount_rejected(self):
        ledger = NettingLedger()
        with pytest.raises(ProtocolError, match="finite and >= 0"):
            ledger.record("A", "B", -1.0, accepted_at=0.0)

    def test_zero_amount_accepted(self):
        # The bank records ``charge_map.get(transit, 0.0)`` verbatim.
        ledger = NettingLedger()
        ledger.record("A", "B", 0.0, accepted_at=0.0)
        assert ledger.close_epoch(0.0) == []
        assert len(ledger.trace) == 1

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_non_finite_accepted_at_rejected(self, when):
        ledger = NettingLedger()
        with pytest.raises(ProtocolError, match="accepted_at must be finite"):
            ledger.record("A", "B", 1.0, accepted_at=when)

    @pytest.mark.parametrize("when", [math.nan, math.inf])
    def test_non_finite_closure_time_rejected(self, when):
        # NaN compares false, so a NaN closure would "cover" anything.
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=5.0)
        with pytest.raises(ProtocolError, match="closure_time must be finite"):
            ledger.close_epoch(when)
        assert ledger.pending_count == 1 and ledger.transfers == []

    def test_record_many(self):
        ledger = NettingLedger()
        ledger.record_many(
            [("A", "B", 1.0), ("B", "C", 2.0)], accepted_at=1.0
        )
        assert ledger.pending_count == 2
        transfers = ledger.close_epoch(1.0)
        assert {t.debtor for t in transfers} == {"A", "B"}


class TestSettlementAudit:
    def test_unpaid_before_close_zero_after(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        ledger.record("B", "A", 1.0, accepted_at=0.0)
        before = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert before.owed == pytest.approx(2.0)
        assert before.paid == 0.0
        assert before.shortfall == pytest.approx(2.0)
        ledger.close_epoch(0.0)
        after = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert after.unpaid == 0.0

    def test_at_time_filters_trace_and_transfers(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=0.0)
        ledger.close_epoch(0.0)
        ledger.record("A", "B", 4.0, accepted_at=2.0)
        ledger.close_epoch(2.0)
        early = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 1.0)
        assert early.owed == pytest.approx(1.0)
        assert early.unpaid == 0.0
        late = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 2.0)
        assert late.owed == pytest.approx(5.0)
        assert late.unpaid == 0.0

    def test_reverse_direction_of_settled_pair_is_positive_zero(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        ledger.record("B", "A", 3.0, accepted_at=0.0)
        forward = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        reverse = settlement_audit(ledger.trace, ledger.transfers, "B", "A", 0.0)
        for report in (forward, reverse):
            assert math.copysign(1.0, report.owed) == 1.0
            assert math.copysign(1.0, report.paid) == 1.0
        assert "-0.0" not in repr(reverse)

    def test_non_finite_at_time_rejected(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        with pytest.raises(ProtocolError, match="at_time must be finite"):
            settlement_audit(ledger.trace, ledger.transfers, "A", "B", math.nan)

    def test_reverse_direction_is_negative(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 3.0, accepted_at=0.0)
        report = settlement_audit(ledger.trace, ledger.transfers, "B", "A", 0.0)
        assert report.owed == pytest.approx(-3.0)
        assert report.shortfall == 0.0


class TestForcedSettlement:
    def test_draws_shortfall_from_deposit(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        # A never pays: no close_epoch, so the audit finds 5 unpaid.
        deposits = {"A": 3.0}
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert outcome.debtor == "A" and outcome.creditor == "B"
        assert outcome.shortfall == pytest.approx(5.0)
        assert outcome.drawn == pytest.approx(3.0)  # deposit-capped
        assert outcome.penalty == pytest.approx(0.01)
        assert deposits["A"] == 0.0
        # The forced transfer enters the record: re-auditing sees it.
        report = settlement_audit(ledger.trace, ledger.transfers, "A", "B", 0.0)
        assert report.unpaid == pytest.approx(2.0)

    def test_settled_pairs_untouched(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        ledger.close_epoch(0.0)
        deposits = {"A": 10.0}
        assert forced_settlement(ledger, deposits, at_time=0.0) == []
        assert deposits["A"] == 10.0

    def test_no_deposit_draws_nothing_still_penalized(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        deposits = {}
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        (outcome,) = outcomes
        assert outcome.drawn == 0.0
        assert outcome.penalty == pytest.approx(0.01)

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_non_finite_at_time_rejected(self, when):
        ledger = NettingLedger()
        ledger.record("A", "B", 5.0, accepted_at=0.0)
        deposits = {"A": 100.0}
        with pytest.raises(ProtocolError, match="at_time must be finite"):
            forced_settlement(ledger, deposits, at_time=when)
        assert deposits == {"A": 100.0} and ledger.transfers == []

    def test_counts_audited_pairs(self):
        ledger = NettingLedger()
        ledger.record("A", "B", 1.0, accepted_at=0.0)
        ledger.record("B", "A", 2.0, accepted_at=0.0)
        ledger.record("C", "A", 2.0, accepted_at=0.0)
        ledger.close_epoch(0.0)
        ledger.record("C", "D", 2.0, accepted_at=3.0)  # after at_time
        assert forced_settlement(ledger, {}, at_time=0.0) == []
        assert ledger.pairs_audited == 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
                st.floats(
                    min_value=0.01,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=1,
            max_size=30,
        ),
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=50.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=5,
            max_size=5,
        ),
    )
    def test_money_conservation(self, obligations, balances):
        """Deposits fund forced transfers exactly; nothing leaks."""
        names = [f"n{i}" for i in range(5)]
        ledger = NettingLedger()
        for debtor_i, creditor_i, amount in obligations:
            if debtor_i == creditor_i:
                continue
            ledger.record(
                names[debtor_i], names[creditor_i], amount, accepted_at=0.0
            )
        deposits = dict(zip(names, balances, strict=True))
        before = dict(deposits)
        transfers_before = len(ledger.transfers)
        outcomes = forced_settlement(ledger, deposits, at_time=0.0)
        forced = ledger.transfers[transfers_before:]
        # Exact conservation: every drawn unit appears as a forced
        # batch-transfer payout, bit for bit.
        assert math.fsum(o.drawn for o in outcomes) == math.fsum(
            t.total for t in forced
        )
        # No deposit goes negative, and each decreases by its draw.
        for name in names:
            assert deposits[name] >= 0.0
            drawn = math.fsum(
                o.drawn for o in outcomes if o.debtor == name
            )
            assert deposits[name] == pytest.approx(before[name] - drawn)
        # After enforcement, every funded debtor's residual shortfall
        # equals what its deposit could not cover.
        for outcome in outcomes:
            report = settlement_audit(
                ledger.trace,
                ledger.transfers,
                outcome.debtor,
                outcome.creditor,
                0.0,
            )
            assert report.shortfall == pytest.approx(
                outcome.shortfall - outcome.drawn, abs=1e-9
            )


class CountingList(list):
    """A list that counts how often it is iterated."""

    def __init__(self, *args):
        super().__init__(*args)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def forced_settlement_scans(settle, pairs):
    """(trace, transfers) iterations of ``settle`` over ``pairs`` pairs.

    Every pair nets one paid epoch and one unpaid one, and every debtor
    holds a deposit, so the loop audits, draws and appends per pair.
    """
    ledger = NettingLedger()
    for i in range(pairs):
        ledger.record(f"d{i:03d}", f"c{i:03d}", 1.0, accepted_at=0.0)
    ledger.close_epoch(0.0)
    for i in range(pairs):
        ledger.record(f"d{i:03d}", f"c{i:03d}", 2.0, accepted_at=1.0)
    ledger.trace = CountingList(ledger.trace)
    ledger.transfers = CountingList(ledger.transfers)
    deposits = {f"d{i:03d}": 1.5 for i in range(pairs)}
    outcomes = settle(ledger, deposits, at_time=1.0)
    assert len(outcomes) == pairs
    assert len(ledger.transfers) == 2 * pairs
    return ledger.trace.iterations, ledger.transfers.iterations


class TestForcedSettlementScans:
    """Exact complexity gate: one scan of each list, whatever the size."""

    def test_one_scan_each_at_any_pair_count(self):
        assert forced_settlement_scans(forced_settlement, 2) == (1, 1)
        assert forced_settlement_scans(forced_settlement, 500) == (1, 1)

    def test_gate_catches_per_pair_rescans(self):
        # The per-pair oracle rescans both lists once per pair.
        assert forced_settlement_scans(oracle.forced_settlement, 2) == (3, 2)
        assert forced_settlement_scans(oracle.forced_settlement, 50) == (51, 50)


class TestBankDeposits:
    def test_fund_and_draw_through_bank(self):
        bank = BankNode()
        bank.fund_deposit("A", 4.0)
        bank.fund_deposit("A", 1.0)
        assert bank.deposit_balance("A") == pytest.approx(5.0)
        assert bank.deposit_balance("Z") == 0.0
        ledger = NettingLedger()
        ledger.record("A", "B", 2.0, accepted_at=0.0)
        outcomes = bank.run_forced_settlement(ledger, at_time=0.0)
        assert len(outcomes) == 1
        assert outcomes[0].drawn == pytest.approx(2.0)
        assert bank.deposit_balance("A") == pytest.approx(3.0)

    def test_negative_funding_rejected(self):
        bank = BankNode()
        with pytest.raises(ProtocolError, match=">= 0"):
            bank.fund_deposit("A", -1.0)


class TestSynthesizedReports:
    def test_honest_reports_settle_clean(self):
        graph = figure1_graph()
        traffic = uniform_all_pairs(graph)
        reports = synthesize_execution_reports(graph, traffic)
        bank = BankNode()
        bank.reports["execution"] = reports
        node_ids = tuple(sorted(graph.nodes, key=repr))
        declared = {n: graph.cost(n) for n in node_ids}
        records, flags = bank.settle(node_ids, declared)
        assert flags == []
        for node_id in node_ids:
            record = records[node_id]
            assert record.penalties == 0.0
            assert record.reported_total == pytest.approx(
                record.expected_total
            )

    def test_repeats_scale_observations_not_receipt_rows(self):
        graph = figure1_graph()
        traffic = uniform_all_pairs(graph)
        once = synthesize_execution_reports(graph, traffic, repeats=1)
        thrice = synthesize_execution_reports(graph, traffic, repeats=3)
        for node in graph.nodes:
            assert len(thrice[node]["observations"]) == 3 * len(
                once[node]["observations"]
            )
            assert len(thrice[node]["receipts"]) == len(
                once[node]["receipts"]
            )

    def test_bad_repeats_rejected(self):
        graph = figure1_graph()
        with pytest.raises(ProtocolError, match="repeats"):
            synthesize_execution_reports(graph, {}, repeats=0)


class TestNetPositions:
    def test_mixed_triples_and_batches(self):
        triples = [("A", "B", 2.0), ("B", "C", 1.0)]
        batch = BatchTransfer(
            debtor="C", closure_time=0.0, payouts=(("A", 0.5),)
        )
        positions = net_positions(triples + [batch], nodes=("A", "B", "C", "D"))
        assert positions["A"] == pytest.approx(-1.5)
        assert positions["B"] == pytest.approx(1.0)
        assert positions["C"] == pytest.approx(0.5)
        assert positions["D"] == 0.0
        # A closed system always nets to zero overall.
        assert math.fsum(positions.values()) == pytest.approx(0.0)
