"""Property and equivalence tests for :meth:`Mempool.add_batch`.

The batched path defers eviction-heap maintenance to one rebuild per
batch; these tests pin its contract: identical canonical state (transaction
set, pending/future split, stats) to sequential :meth:`Mempool.add`, and
identical *heap entries* to the legacy prefill loop on cleared pools (the
golden-fingerprint safety argument).
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.eth.fee_market import FeeMarket, FeeMarketConfig
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.policies import GETH, PARITY, MempoolPolicy
from repro.eth.transaction import (
    DynamicFeeTransaction,
    Transaction,
    TransactionFactory,
    gwei,
)
from tests.conftest import property_settings

SENDERS = [f"0xbatch{i}" for i in range(6)]

operations = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),
        st.integers(min_value=0, max_value=8),  # nonce
        st.integers(min_value=1, max_value=1000),  # price
    ),
    min_size=1,
    max_size=150,
)


def build_tx(sender: str, nonce: int, price: int) -> Transaction:
    return Transaction(sender=sender, nonce=nonce, gas_price=price)


def canonical_state(pool: Mempool):
    return (
        sorted(pool._by_hash),
        sorted(pool._future),
        sorted(tx.hash for tx in pool.future_transactions()),
        {
            sender: sorted(run) if isinstance(run, dict) else [run.nonce]
            for sender, run in pool._by_sender.items()
        },
        pool.stats,
    )


@pytest.mark.parametrize(
    "policy",
    [GETH.scaled(16), PARITY.scaled(24), GETH.scaled(128)],
    ids=["geth-16", "parity-24", "geth-128"],
)
@given(ops=operations)
@property_settings(60)
def test_batch_matches_sequential_canonical_state(policy: MempoolPolicy, ops):
    txs = [build_tx(*op) for op in ops]
    sequential = Mempool(policy)
    for tx in txs:
        sequential.add(tx)
    batched = Mempool(policy)
    counts = batched.add_batch(txs)
    batched.check_invariants()
    assert canonical_state(batched) == canonical_state(sequential)
    admitted = sum(
        counts.get(key, 0)
        for key in ("admitted_pending", "admitted_future", "replaced")
    )
    assert admitted <= len(txs)


@given(ops=operations)
@property_settings(40)
def test_batch_then_more_adds_stay_consistent(ops):
    """The rebuilt heaps must keep serving later sequential evictions."""
    policy = GETH.scaled(16)
    txs = [build_tx(*op) for op in ops]
    pool = Mempool(policy)
    pool.add_batch(txs)
    factory = TransactionFactory()
    from repro.eth.account import Wallet

    wallet = Wallet("after-batch")
    for _ in range(24):
        pool.add(
            factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0))
        )
        pool.check_invariants()
    assert len(pool) <= policy.capacity


class TestStopWhenFull:
    def _legacy_prefill(self, pool, txs):
        for tx in txs:
            if pool.is_full:
                break
            pool.add(tx)

    def _shared_txs(self, count, prices=None):
        factory = TransactionFactory()
        from repro.eth.account import Wallet

        wallet = Wallet("prefill-eq")
        prices = prices or [gwei(1.0) + i * 10**7 for i in range(count)]
        return [
            factory.transfer(wallet.fresh_account(), gas_price=prices[i])
            for i in range(count)
        ]

    def test_matches_legacy_loop_exactly(self):
        policy = GETH.scaled(64)
        txs = self._shared_txs(100)
        legacy = Mempool(policy)
        self._legacy_prefill(legacy, txs)
        batched = Mempool(policy)
        batched.add_batch(txs, stop_when_full=True)
        batched.check_invariants()
        assert canonical_state(batched) == canonical_state(legacy)

    def test_heap_entries_identical_on_cleared_pool(self):
        """On a cleared pool the rebuilt eviction heap carries the exact
        (price, seq, hash) multiset sequential adds would have pushed —
        downstream victim selection is byte-identical."""
        policy = GETH.scaled(32)
        txs = self._shared_txs(48)
        legacy = Mempool(policy)
        self._legacy_prefill(legacy, txs)
        batched = Mempool(policy)
        batched.add_batch(txs, stop_when_full=True)
        assert sorted(batched._pending_heap) == sorted(legacy._pending_heap)
        assert sorted(batched._future_heap) == sorted(legacy._future_heap)

    def test_never_evicts(self):
        policy = GETH.scaled(8)
        txs = self._shared_txs(50)
        pool = Mempool(policy)
        counts = pool.add_batch(txs, stop_when_full=True)
        assert len(pool) == 8
        assert "evictions" not in counts
        assert pool.stats["evictions"] == 0


class TestEvictionFallback:
    def test_overflow_falls_back_to_sequential_eviction(self):
        policy = GETH.scaled(16)
        factory = TransactionFactory()
        from repro.eth.account import Wallet

        wallet = Wallet("overflow")
        cheap = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1.0))
            for _ in range(16)
        ]
        rich = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(5.0))
            for _ in range(8)
        ]
        pool = Mempool(policy)
        counts = pool.add_batch(cheap + rich)
        pool.check_invariants()
        assert len(pool) == 16
        assert counts.get("evictions", 0) >= 8
        # The cheap cohort was evicted in favor of the rich one.
        prices = sorted(pool.pending_prices(), reverse=True)
        assert prices[:8] == [gwei(5.0)] * 8

    def test_empty_batch_is_a_no_op(self):
        pool = Mempool(GETH.scaled(8))
        assert pool.add_batch([]) == {}
        assert len(pool) == 0

    def test_fee_floor_counted_in_batch(self):
        from repro.eth.fee_market import FeeMarket, FeeMarketConfig

        pool = Mempool(GETH.scaled(32))
        pool.fee_market = FeeMarket(FeeMarketConfig(min_floor=gwei(1.0)))
        factory = TransactionFactory()
        from repro.eth.account import Wallet

        wallet = Wallet("floored")
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(0.5))
            for _ in range(5)
        ] + [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0))
            for _ in range(3)
        ]
        counts = pool.add_batch(txs)
        assert counts["rejected_fee_floor"] == 5
        assert counts["admitted_pending"] == 3
        assert len(pool) == 3


# ----------------------------------------------------------------------
# Past the fill point: add_batch is its fill chunk, then one add per offer
# ----------------------------------------------------------------------
LAW_POLICIES = {
    "geth-12": GETH.scaled(12),
    # P = 3 and U = 2: futures evict only above the floor, runs stop at U.
    "tight": MempoolPolicy(
        name="tight",
        replace_bump=0.10,
        future_limit_per_account=2,
        eviction_pending_floor=3,
        capacity=10,
    ),
    # EIP-1559 mode: the pool drops offers under the base fee.
    "tight-1559": MempoolPolicy(
        name="tight",
        replace_bump=0.10,
        future_limit_per_account=3,
        eviction_pending_floor=2,
        capacity=10,
        enforce_base_fee=True,
    ),
}

offer_spec = st.tuples(
    st.integers(0, 9),  # sender
    st.integers(0, 5),  # nonce: gaps queue futures, repeats replace
    st.sampled_from([40, 50, 50, 55, 60, 90, 200]),  # price (max fee)
    st.sampled_from([None, None, 0, 10]),  # None: legacy, else a 1559 tip
)


def law_tx(sender: int, nonce: int, price: int, tip) -> Transaction:
    if tip is None:
        return Transaction(sender=f"0xlaw{sender}", nonce=nonce, gas_price=price)
    return DynamicFeeTransaction(
        sender=f"0xlaw{sender}", nonce=nonce, gas_price=price, max_fee=price,
        priority_fee=tip,
    )


def law_pool(policy: MempoolPolicy, confirmed, with_market: bool) -> Mempool:
    ticks = itertools.count()
    # A clock that ticks on every read.
    pool = Mempool(policy, confirmed_nonce=confirmed.get, clock=lambda: next(ticks))
    pool.base_fee = 45
    if with_market:
        # Every read moves the clock a full interval on, so the floor is
        # recomputed from this very pool at each offer.
        market = FeeMarket(FeeMarketConfig(min_floor=1, floor_percentile=0.5))
        market._sample_nodes = [SimpleNamespace(mempool=pool)]
        pool.fee_market = market
    return pool


def full_state(pool: Mempool):
    """``capture_state()`` with every container in its order."""
    state = pool.capture_state()
    runs = state["by_sender"].items()
    state["by_sender"] = [
        (s, list(run.items()) if isinstance(run, dict) else run) for s, run in runs
    ]
    state["by_hash"] = list(state["by_hash"].items())
    state["future"] = sorted(state["future"])
    market = pool.fee_market
    return state, None if market is None else market.capture_state()


@pytest.mark.parametrize("policy", list(LAW_POLICIES), ids=list(LAW_POLICIES))
@given(
    background=st.integers(0, 12),
    resident=st.lists(offer_spec, max_size=14),
    batch=st.lists(offer_spec, min_size=1, max_size=30),
    repeats=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=6),
    confirmed=st.dictionaries(st.integers(0, 9), st.integers(0, 2), max_size=3),
    with_market=st.booleans(),
)
@property_settings(60)
def test_a_batch_past_the_fill_point_is_one_add_per_offer(
    policy, background, resident, batch, repeats, confirmed, with_market
):
    """Full state, tie-break numbers and stats included: ``add_batch``
    equals a twin that takes the batch's fill chunk
    (``stop_when_full=True``) and then one :meth:`Mempool.add` per
    remaining offer — over resident futures and dict runs, P and U, a fee
    floor recomputed at every offer, duplicate hashes inside the batch and
    1559 transactions."""
    policy = LAW_POLICIES[policy]
    confirmed = {f"0xlaw{s}": n for s, n in confirmed.items()}
    pools = [law_pool(policy, confirmed, with_market) for _ in range(2)]
    batched, twin = pools
    # Pending background from senders of its own, then the drawn residents.
    fill = [
        Transaction(sender=f"0xbg{i}", nonce=0, gas_price=50 + 5 * (i % 3))
        for i in range(background)
    ]
    for pool in pools:
        for tx in fill + [law_tx(*spec) for spec in resident]:
            pool.add(tx)
    assert full_state(batched) == full_state(twin)
    txs = [law_tx(*spec) for spec in batch]
    for source, position in repeats:  # the same hash twice in one batch
        txs.insert(position % (len(txs) + 1), txs[source % len(txs)])

    counts = batched.add_batch(txs)
    chunk = twin.add_batch(txs, stop_when_full=True)
    taken = sum(chunk.values())
    expected = dict(chunk)
    for tx in txs[taken:]:
        result = twin.add(tx)
        key = result.outcome.value
        expected[key] = expected.get(key, 0) + 1
        if result.evicted:
            expected["evictions"] = expected.get("evictions", 0) + 1
    batched.check_invariants()
    assert full_state(batched) == full_state(twin)
    assert counts == expected
