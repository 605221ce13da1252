"""Pair-grouped audit and forced settlement vs. the per-pair oracle.

:func:`forced_settlement` nets the signed trace and the transfer list
by principal pair once and audits every pair from those nets; the
oracle (``settlement_oracle.py``) rescans both lists per pair.  The
two must agree exactly on every ledger: ``==`` forced payments, final
deposits and appended transfers, and ``repr``-equal audit reports in
both directions, so a ``-0.0`` where the oracle has ``0.0`` fails.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faithful import (
    BatchTransfer,
    NettingLedger,
    forced_settlement,
    settlement_audit,
)

import settlement_oracle as oracle

#: Mixed node types exercise the repr-ordered pair keys.
NODES = ("A", "B", "C", "D", 1, 2)

#: Amounts that cancel exactly, round (0.1 + 0.2), or are arbitrary.
AMOUNTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 3.0, 1e-10]),
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)

OBLIGATIONS = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), AMOUNTS),
    max_size=12,
)

#: One epoch: its obligations and whether it closes (an unclosed
#: epoch's obligations stay pending into the next close).
EPOCHS = st.lists(st.tuples(OBLIGATIONS, st.booleans()), min_size=1, max_size=4)

#: Hand-made transfers: (debtor, closure epoch, payouts), possibly for
#: pairs that never appear in the trace.
HAND_TRANSFERS = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=4),
        st.lists(
            st.tuples(
                st.sampled_from(NODES),
                st.one_of(
                    AMOUNTS,
                    st.floats(
                        min_value=-10.0,
                        max_value=10.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    max_size=4,
)

#: Per netted transfer: keep, drop (never paid), halve (under-pay) or
#: raise by half (over-pay).
EDITS = st.lists(st.sampled_from([1.0, 0.0, 0.5, 1.5]), max_size=8)

DEPOSITS = st.dictionaries(
    st.sampled_from(NODES),
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0]),
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
)

#: Audit cut, in half-epochs: even values sit on an epoch's time, odd
#: ones fall between two epochs, -1 precedes everything.
CUTS = st.integers(min_value=-1, max_value=10)

TOLERANCES = st.sampled_from([1e-9, 0.0, 0.25])


def build_ledger(epochs, hand_transfers, edits):
    """A multi-epoch ledger with hand-edited and hand-made transfers."""
    ledger = NettingLedger()
    for index, (obligations, closes) in enumerate(epochs):
        for debtor, creditor, amount in obligations:
            if debtor != creditor:
                ledger.record(debtor, creditor, amount, accepted_at=index)
        if closes:
            ledger.close_epoch(float(index))
    edited = []
    for position, transfer in enumerate(ledger.transfers):
        scale = edits[position] if position < len(edits) else 1.0
        if scale == 0.0:
            continue
        payouts = tuple((payee, amount * scale) for payee, amount in transfer.payouts)
        edited.append(BatchTransfer(transfer.debtor, transfer.closure_time, payouts))
    for debtor, epoch, payouts in hand_transfers:
        edited.append(BatchTransfer(debtor, float(epoch), tuple(payouts)))
    ledger.transfers[:] = edited
    return ledger


def assert_audits_match(ledger, at_time):
    """Every ordered pair audits repr-identically on both paths."""
    for debtor in NODES:
        for creditor in NODES:
            if debtor == creditor:
                continue
            args = (ledger.trace, ledger.transfers, debtor, creditor, at_time)
            assert repr(settlement_audit(*args)) == repr(
                oracle.settlement_audit(*args)
            )


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(EPOCHS, HAND_TRANSFERS, EDITS, DEPOSITS, CUTS, TOLERANCES)
    def test_forced_settlement_matches_oracle(
        self, epochs, hand_transfers, edits, deposits, cut, tolerance
    ):
        at_time = cut / 2.0
        ledger = build_ledger(epochs, hand_transfers, edits)
        assert_audits_match(ledger, at_time)

        expected_ledger = copy.deepcopy(ledger)
        expected_deposits = dict(deposits)
        expected = oracle.forced_settlement(
            expected_ledger, expected_deposits, at_time=at_time,
            tolerance=tolerance,
        )
        outcomes = forced_settlement(
            ledger, deposits, at_time=at_time, tolerance=tolerance
        )
        assert outcomes == expected
        assert repr(outcomes) == repr(expected)
        assert deposits == expected_deposits
        assert repr(deposits) == repr(expected_deposits)
        assert ledger.transfers == expected_ledger.transfers
        assert repr(ledger.transfers) == repr(expected_ledger.transfers)
        # Re-auditing after enforcement sees the forced transfers alike.
        assert_audits_match(ledger, at_time)
