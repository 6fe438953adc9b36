"""Property-based tests of mempool invariants (hypothesis).

A random sequence of operations must never break the structural invariants
checked by :meth:`Mempool.check_invariants`: capacity bound, a pending set
of resident transactions, contiguous pending runs per sender, a per-sender
table that agrees with the pool both ways (a sender's only transaction
filed as itself, a dict run holding two or more), and an eviction-heap
entry of its class for every live transaction.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MempoolError
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.policies import GETH, PARITY, MempoolPolicy
from repro.eth.transaction import Transaction
from tests.conftest import property_settings

SENDERS = [f"0xsender{i}" for i in range(6)]

operations = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),
        st.integers(min_value=0, max_value=8),  # nonce
        st.integers(min_value=1, max_value=1000),  # price
    ),
    min_size=1,
    max_size=120,
)


def build_tx(sender: str, nonce: int, price: int) -> Transaction:
    return Transaction(sender=sender, nonce=nonce, gas_price=price)


@pytest.mark.parametrize(
    "policy",
    [GETH.scaled(16), PARITY.scaled(24), GETH.scaled(64)],
    ids=["geth-16", "parity-24", "geth-64"],
)
@given(ops=operations)
@property_settings(60)
def test_invariants_hold_under_arbitrary_adds(policy: MempoolPolicy, ops):
    pool = Mempool(policy)
    for sender, nonce, price in ops:
        pool.add(build_tx(sender, nonce, price))
        pool.check_invariants()
    assert len(pool) <= policy.capacity


@given(ops=operations)
@property_settings(60)
def test_capacity_is_never_exceeded(ops):
    policy = GETH.scaled(8)
    pool = Mempool(policy)
    for sender, nonce, price in ops:
        pool.add(build_tx(sender, nonce, price))
        assert len(pool) <= policy.capacity


@given(ops=operations)
@property_settings(60)
def test_pending_and_future_partition_the_pool(ops):
    pool = Mempool(GETH.scaled(32))
    for sender, nonce, price in ops:
        pool.add(build_tx(sender, nonce, price))
    assert pool.pending_count + pool.future_count == len(pool)


@given(ops=operations)
@property_settings(60)
def test_replacement_never_changes_pool_size(ops):
    """A REPLACED outcome swaps one transaction for another in place."""
    pool = Mempool(GETH.scaled(32))
    for sender, nonce, price in ops:
        before = len(pool)
        result = pool.add(build_tx(sender, nonce, price))
        if result.outcome is AddOutcome.REPLACED:
            assert len(pool) == before

@given(ops=operations)
@property_settings(60)
def test_admitted_transaction_is_queryable(ops):
    pool = Mempool(GETH.scaled(32))
    for sender, nonce, price in ops:
        tx = build_tx(sender, nonce, price)
        result = pool.add(tx)
        if result.admitted:
            assert pool.get(tx.hash) is tx
            assert pool.sender_transaction(sender, nonce) is tx


@given(ops=operations, confirmed=st.integers(min_value=0, max_value=5))
@property_settings(60)
def test_no_stale_nonces_survive(ops, confirmed):
    pool = Mempool(GETH.scaled(32), confirmed_nonce=lambda s: confirmed)
    for sender, nonce, price in ops:
        result = pool.add(build_tx(sender, nonce, price))
        if nonce < confirmed:
            assert result.outcome is AddOutcome.REJECTED_STALE_NONCE
    for tx in pool.pending_transactions() + pool.future_transactions():
        assert tx.nonce >= confirmed


@given(
    ops=operations,
    block_senders=st.lists(st.sampled_from(SENDERS), max_size=3),
)
@property_settings(40)
def test_invariants_survive_block_application(ops, block_senders):
    nonces = {}
    pool = Mempool(GETH.scaled(32), confirmed_nonce=lambda s: nonces.get(s, 0))
    for sender, nonce, price in ops:
        pool.add(build_tx(sender, nonce, price))
    included = []
    for sender in block_senders:
        tx = pool.sender_transaction(sender, nonces.get(sender, 0))
        if tx is not None:
            nonces[sender] = tx.nonce + 1
            included.append(tx)
    pool.apply_block(included)
    pool.check_invariants()
    for tx in included:
        assert tx.hash not in pool


def _ghost_sender(pool: Mempool) -> None:
    pool._by_sender["0xghost"] = {}


def _forgotten_sender(pool: Mempool) -> None:
    del pool._by_sender[SENDERS[1]]


def _stranger_in_a_run(pool: Mempool) -> None:
    pool._by_sender[SENDERS[2]] = build_tx(SENDERS[2], 3, 999)


def _lost_heap_entries(pool: Mempool) -> None:
    pool._future_heap.clear()


def _one_entry_dict_run(pool: Mempool) -> None:
    tx = pool._by_sender[SENDERS[0]]
    pool._by_sender[SENDERS[0]] = {tx.nonce: tx}


def _sole_tx_under_another_sender(pool: Mempool) -> None:
    pool._by_sender[SENDERS[0]] = pool._by_sender[SENDERS[1]]


def _future_not_resident(pool: Mempool) -> None:
    pool._future.add(build_tx(SENDERS[3], 0, 1).hash)


def _heap_entry_of_the_wrong_class(pool: Mempool) -> None:
    pool._future_heap.extend(pool._pending_heap)
    pool._pending_heap.clear()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_ghost_sender, "dict run of 0"),
        (_forgotten_sender, "differ in size"),
        (_stranger_in_a_run, "misfiled"),
        (_lost_heap_entries, "eviction-heap entry"),
        (_one_entry_dict_run, "dict run of 1"),
        (_sole_tx_under_another_sender, "misfiled"),
        (_future_not_resident, "not resident"),
        (_heap_entry_of_the_wrong_class, "eviction-heap entry"),
    ],
    ids=[
        "ghost-sender",
        "forgotten-sender",
        "stranger-in-a-run",
        "lost-heap-entries",
        "one-entry-dict-run",
        "sole-tx-under-another-sender",
        "future-not-resident",
        "heap-entry-of-the-wrong-class",
    ],
)
def test_check_invariants_sees_corruption(corrupt, message):
    pool = Mempool(GETH.scaled(16))
    for sender, nonce in zip(SENDERS, (0, 0, 3)):
        assert pool.add(build_tx(sender, nonce, 10 + nonce)).admitted
    pool.check_invariants()
    corrupt(pool)
    with pytest.raises(MempoolError, match=message):
        pool.check_invariants()
