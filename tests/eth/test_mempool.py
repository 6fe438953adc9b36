"""Tests for the parameterized mempool: admission, pending/future split,
replacement (R), future limit (U), eviction floor (P), capacity (L)."""

import pytest

from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.policies import GETH, PARITY, MempoolPolicy
from repro.eth.transaction import Transaction, gwei


@pytest.fixture
def pool(small_policy):
    return Mempool(policy=small_policy)


def make_pending(pool, wallet, factory, count, price=gwei(1)):
    txs = []
    for _ in range(count):
        tx = factory.transfer(wallet.fresh_account(), gas_price=price)
        assert pool.add(tx).admitted
        txs.append(tx)
    return txs


class TestBasicAdmission:
    def test_pending_when_nonce_continues(self, pool, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        result = pool.add(tx)
        assert result.outcome is AddOutcome.ADMITTED_PENDING
        assert result.propagatable
        assert pool.is_pending(tx.hash)

    def test_future_when_nonce_gapped(self, pool, wallet, factory):
        account = wallet.fresh_account()
        tx = Transaction(sender=account.address, nonce=5, gas_price=gwei(1))
        result = pool.add(tx)
        assert result.outcome is AddOutcome.ADMITTED_FUTURE
        assert not result.propagatable
        assert tx.hash in pool and not pool.is_pending(tx.hash)

    def test_duplicate_rejected(self, pool, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(tx)
        assert pool.add(tx).outcome is AddOutcome.REJECTED_KNOWN

    def test_stale_nonce_rejected(self, wallet, factory, small_policy):
        nonces = {"confirmed": 3}
        pool = Mempool(small_policy, confirmed_nonce=lambda s: nonces["confirmed"])
        account = wallet.fresh_account()
        tx = Transaction(sender=account.address, nonce=2, gas_price=gwei(1))
        assert pool.add(tx).outcome is AddOutcome.REJECTED_STALE_NONCE

    def test_contiguous_chain_all_pending(self, pool, wallet):
        account = wallet.fresh_account()
        for nonce in range(5):
            tx = Transaction(sender=account.address, nonce=nonce, gas_price=gwei(1))
            result = pool.add(tx)
            assert result.is_pending
        assert pool.pending_count == 5

    def test_gap_fill_promotes_futures(self, pool, wallet):
        account = wallet.fresh_account()
        later = Transaction(sender=account.address, nonce=1, gas_price=gwei(1))
        assert pool.add(later).outcome is AddOutcome.ADMITTED_FUTURE
        first = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        result = pool.add(first)
        assert result.outcome is AddOutcome.ADMITTED_PENDING
        assert [t.hash for t in result.promoted] == [later.hash]
        assert pool.is_pending(later.hash)

    def test_lookup_by_hash_and_sender(self, pool, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(tx)
        assert pool.get(tx.hash) is tx
        assert pool.sender_transaction(tx.sender, tx.nonce) is tx
        assert pool.get("0xmissing") is None


class TestReplacement:
    def test_sufficient_bump_replaces(self, pool, wallet, factory):
        original = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(original)
        challenger = factory.replacement(original, 0.10)
        result = pool.add(challenger)
        assert result.outcome is AddOutcome.REPLACED
        assert result.replaced.hash == original.hash
        assert original.hash not in pool
        assert challenger.hash in pool

    def test_insufficient_bump_rejected(self, pool, wallet, factory):
        original = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(original)
        challenger = factory.replacement(original, 0.05)
        result = pool.add(challenger)
        assert result.outcome is AddOutcome.REJECTED_UNDERPRICED_REPLACEMENT
        assert original.hash in pool

    def test_exact_threshold_replaces(self, pool, wallet, factory):
        original = factory.transfer(wallet.fresh_account(), gas_price=1000)
        pool.add(original)
        exact = Transaction(
            sender=original.sender, nonce=original.nonce, gas_price=1100
        )
        assert pool.add(exact).outcome is AddOutcome.REPLACED

    def test_replacement_of_future_transaction(self, pool, wallet):
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=7, gas_price=1000)
        pool.add(original)
        challenger = Transaction(sender=account.address, nonce=7, gas_price=1100)
        result = pool.add(challenger)
        assert result.outcome is AddOutcome.REPLACED
        assert not result.is_pending

    def test_zero_bump_policy_allows_equal_price(self, wallet):
        """The Nethermind/Aleth flaw: R=0 lets an equal-priced transaction
        replace, enabling free re-propagation (Section 5.1)."""
        flawed = MempoolPolicy(
            name="flawed",
            replace_bump=0.0,
            future_limit_per_account=None,
            eviction_pending_floor=0,
            capacity=64,
        )
        pool = Mempool(flawed)
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=1000)
        pool.add(original)
        equal = Transaction(
            sender=account.address, nonce=0, gas_price=1000, value=1
        )
        assert pool.add(equal).outcome is AddOutcome.REPLACED


class TestFutureLimit:
    def test_u_limit_enforced_per_account(self, wallet, factory):
        policy = GETH.scaled(64).with_capacity(64)
        pool = Mempool(policy)
        limit = policy.future_limit_per_account
        account = wallet.fresh_account()
        admitted = 0
        for index in range(limit + 5):
            result = pool.add(factory.future(account, gas_price=gwei(2), index=index))
            if result.admitted:
                admitted += 1
            else:
                assert result.outcome is AddOutcome.REJECTED_FUTURE_LIMIT
        assert admitted == limit

    def test_unlimited_u(self, wallet, factory):
        policy = GETH.scaled(32)
        unlimited = MempoolPolicy(
            name="besu-ish",
            replace_bump=0.10,
            future_limit_per_account=None,
            eviction_pending_floor=0,
            capacity=policy.capacity,
        )
        pool = Mempool(unlimited)
        account = wallet.fresh_account()
        for index in range(policy.capacity):
            assert pool.add(
                factory.future(account, gas_price=gwei(2), index=index)
            ).admitted

    def test_u_counts_only_same_sender(self, wallet, factory, small_policy):
        pool = Mempool(small_policy)
        for _ in range(3):
            account = wallet.fresh_account()
            for index in range(2):
                assert pool.add(
                    factory.future(account, gas_price=gwei(2), index=index)
                ).admitted


class TestEviction:
    def test_future_evicts_lowest_priced_pending_when_full(
        self, wallet, factory, small_policy
    ):
        pool = Mempool(small_policy)
        txs = make_pending(pool, wallet, factory, small_policy.capacity - 1)
        cheap = factory.transfer(wallet.fresh_account(), gas_price=gwei(0.1))
        pool.add(cheap)
        assert pool.is_full
        probe = factory.future(wallet.fresh_account(), gas_price=gwei(2))
        result = pool.add(probe)
        assert result.admitted
        assert [t.hash for t in result.evicted] == [cheap.hash]
        assert txs[0].hash in pool  # higher-priced pending survives

    def test_future_cannot_evict_higher_priced_pending(
        self, wallet, factory, small_policy
    ):
        pool = Mempool(small_policy)
        make_pending(pool, wallet, factory, small_policy.capacity, price=gwei(5))
        probe = factory.future(wallet.fresh_account(), gas_price=gwei(2))
        assert pool.add(probe).outcome is AddOutcome.REJECTED_POOL_FULL

    def test_future_never_evicts_future(self, wallet, factory, small_policy):
        pool = Mempool(small_policy)
        per = small_policy.future_limit_per_account
        filled = 0
        while filled < small_policy.capacity:
            account = wallet.fresh_account()
            for index in range(min(per, small_policy.capacity - filled)):
                assert pool.add(
                    factory.future(account, gas_price=gwei(1), index=index)
                ).admitted
                filled += 1
        probe = factory.future(wallet.fresh_account(), gas_price=gwei(100))
        assert pool.add(probe).outcome is AddOutcome.REJECTED_POOL_FULL

    def test_pending_evicts_future_first_regardless_of_price(
        self, wallet, factory, small_policy
    ):
        """The rule that lets txB at (1-R/2)Y enter a pool full of
        (1+R)Y flood futures (Figure 2's Step 2)."""
        pool = Mempool(small_policy)
        make_pending(pool, wallet, factory, small_policy.capacity - 1, gwei(5))
        expensive_future = factory.future(wallet.fresh_account(), gas_price=gwei(10))
        pool.add(expensive_future)
        assert pool.is_full
        cheap_pending = factory.transfer(wallet.fresh_account(), gas_price=gwei(0.5))
        result = pool.add(cheap_pending)
        assert result.admitted
        assert [t.hash for t in result.evicted] == [expensive_future.hash]

    def test_pending_falls_back_to_price_rule_without_futures(
        self, wallet, factory, small_policy
    ):
        pool = Mempool(small_policy)
        make_pending(pool, wallet, factory, small_policy.capacity, gwei(5))
        too_cheap = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        assert pool.add(too_cheap).outcome is AddOutcome.REJECTED_POOL_FULL
        rich = factory.transfer(wallet.fresh_account(), gas_price=gwei(6))
        assert pool.add(rich).admitted

    def test_eviction_floor_p_blocks_future_eviction(self, wallet, factory):
        policy = PARITY.scaled(64)  # P scales to a small non-zero floor
        pool = Mempool(policy)
        floor = policy.eviction_pending_floor
        make_pending(pool, wallet, factory, floor)  # pending == P, not > P
        per = policy.future_limit_per_account
        filled = floor
        while filled < policy.capacity:
            account = wallet.fresh_account()
            for index in range(min(per, policy.capacity - filled)):
                assert pool.add(
                    factory.future(account, gas_price=gwei(2), index=index)
                ).admitted
                filled += 1
        probe = factory.future(wallet.fresh_account(), gas_price=gwei(100))
        assert pool.add(probe).outcome is AddOutcome.REJECTED_POOL_FULL

    def test_eviction_above_floor_succeeds(self, wallet, factory):
        policy = PARITY.scaled(64)
        pool = Mempool(policy)
        floor = policy.eviction_pending_floor
        make_pending(pool, wallet, factory, policy.capacity)  # all pending > P
        assert pool.pending_count > floor
        probe = factory.future(wallet.fresh_account(), gas_price=gwei(100))
        assert pool.add(probe).admitted


class TestBlockApplication:
    def test_included_transactions_removed(self, wallet, factory, small_policy):
        nonces = {}
        pool = Mempool(small_policy, confirmed_nonce=lambda s: nonces.get(s, 0))
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(tx)
        nonces[tx.sender] = tx.nonce + 1
        dropped = pool.apply_block([tx])
        assert [t.hash for t in dropped] == [tx.hash]
        assert tx.hash not in pool

    def test_stale_same_sender_transactions_dropped(
        self, wallet, factory, small_policy
    ):
        nonces = {}
        pool = Mempool(small_policy, confirmed_nonce=lambda s: nonces.get(s, 0))
        account = wallet.fresh_account()
        tx0 = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        rival = Transaction(sender=account.address, nonce=0, gas_price=gwei(2), value=5)
        pool.add(tx0)
        nonces[account.address] = 1
        dropped = pool.apply_block([rival])  # a competing tx was mined
        assert tx0.hash in {t.hash for t in dropped}

    def test_next_nonce_promotes_after_block(self, wallet, small_policy):
        nonces = {}
        pool = Mempool(small_policy, confirmed_nonce=lambda s: nonces.get(s, 0))
        account = wallet.fresh_account()
        tx0 = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        tx1 = Transaction(sender=account.address, nonce=1, gas_price=gwei(1))
        pool.add(tx0)
        pool.add(tx1)
        nonces[account.address] = 1
        pool.apply_block([tx0])
        assert pool.is_pending(tx1.hash)


class TestQueries:
    def test_median_pending_price(self, wallet, small_policy):
        pool = Mempool(small_policy)
        for price in (100, 200, 300):
            account = wallet.fresh_account()
            pool.add(Transaction(sender=account.address, nonce=0, gas_price=price))
        assert pool.median_pending_price() == 200

    def test_median_of_empty_pool_is_none(self, small_policy):
        assert Mempool(small_policy).median_pending_price() is None

    def test_median_excludes_futures(self, wallet, factory, small_policy):
        pool = Mempool(small_policy)
        account = wallet.fresh_account()
        pool.add(Transaction(sender=account.address, nonce=0, gas_price=100))
        pool.add(factory.future(wallet.fresh_account(), gas_price=10**6))
        assert pool.median_pending_price() == 100

    def test_pending_by_price_desc_respects_nonce_order(self, wallet, small_policy):
        pool = Mempool(small_policy)
        account = wallet.fresh_account()
        low_first = Transaction(sender=account.address, nonce=0, gas_price=100)
        high_second = Transaction(sender=account.address, nonce=1, gas_price=900)
        pool.add(low_first)
        pool.add(high_second)
        ordered = pool.pending_by_price_desc()
        assert ordered.index(low_first) < ordered.index(high_second)

    def test_clear_empties_everything(self, wallet, factory, small_policy):
        pool = Mempool(small_policy)
        make_pending(pool, wallet, factory, 5)
        assert pool.clear() == 5
        assert len(pool) == 0
        pool.check_invariants()

    def test_stats_track_outcomes(self, wallet, factory, small_policy):
        pool = Mempool(small_policy)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pool.add(tx)
        pool.add(tx)
        assert pool.stats["admitted_pending"] == 1
        assert pool.stats["rejected_known"] == 1
