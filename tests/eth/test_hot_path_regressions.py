"""Regression tests for the hot-path overhaul's correctness fixes.

Three bugs rode along with the performance work and are pinned here:

1. The mempool's lazy eviction heaps were keyed by ``bid_price(base_fee)``
   at push time and never re-keyed when ``apply_block`` changed the base
   fee, so eviction decisions ran on stale prices.
2. Per-peer known-transaction caches grew without bound; they are now
   FIFO-bounded like Geth's 32768-hash knownTxs cache.
3. ``Node._announce_requested`` accumulated one entry per announced hash
   for the life of the node; expired hold-window entries are now swept
   opportunistically during ``_flush``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import MempoolError
from repro.eth.mempool import AddOutcome, Mempool
from repro.eth.network import Network
from repro.eth.node import _ANNOUNCE_PRUNE_THRESHOLD, KnownTxCache, NodeConfig
from repro.eth.policies import GETH, MempoolPolicy
from repro.eth.transaction import Transaction, gwei


@dataclass(frozen=True)
class TipCappedTransaction(Transaction):
    """EIP-1559-style bid: capped tip once a base fee is in effect.

    The built-in transaction types ignore ``base_fee`` in ``bid_price``,
    which masks heap staleness; this subclass makes the bid genuinely
    base-fee-dependent so a stale heap ranks transactions wrongly.
    """

    tip_cap: int = 0

    def bid_price(self, base_fee: int = 0) -> int:
        if base_fee:
            return min(self.tip_cap, self.gas_price - base_fee)
        return self.gas_price


def tip_capped(sender: str, gas_price: int, tip_cap: int) -> TipCappedTransaction:
    return TipCappedTransaction(
        sender=sender, nonce=0, gas_price=gas_price, tip_cap=tip_cap
    )


class TestBaseFeeHeapRebuild:
    """``apply_block`` must re-key the eviction heaps on base-fee changes."""

    def make_pool(self) -> Mempool:
        policy = MempoolPolicy(
            name="tiny",
            replace_bump=0.10,
            future_limit_per_account=None,
            eviction_pending_floor=0,
            capacity=2,
        )
        return Mempool(policy=policy)

    def test_eviction_uses_rekeyed_prices(self):
        pool = self.make_pool()
        # At base fee 0 the bids are the raw gas prices: a=100, b=60, so
        # the admission-time heap ranks b lowest.
        a = tip_capped("0xa", gas_price=100, tip_cap=2)
        b = tip_capped("0xb", gas_price=60, tip_cap=50)
        assert pool.add(a).is_pending
        assert pool.add(b).is_pending

        # After the base fee moves to 30 the effective bids invert:
        # a bids min(2, 70) = 2, b bids min(50, 30) = 30.
        dropped = pool.apply_block([], new_base_fee=30)
        assert dropped == []

        # c bids min(10, 10) = 10: enough to displace a (2), not b (30).
        # With the stale heap the pool still considered b the cheapest
        # occupant, found 30 >= 10, and rejected c as pool-full.
        c = tip_capped("0xc", gas_price=40, tip_cap=10)
        result = pool.add(c)
        assert result.outcome is AddOutcome.ADMITTED_PENDING
        assert [t.hash for t in result.evicted] == [a.hash]
        assert a.hash not in pool
        assert b.hash in pool
        assert c.hash in pool

    def test_unchanged_base_fee_keeps_heaps(self):
        pool = self.make_pool()
        a = tip_capped("0xa", gas_price=100, tip_cap=2)
        assert pool.add(a).is_pending
        pool.apply_block([], new_base_fee=0)  # no change: nothing rebuilt
        assert a.hash in pool

    def test_check_invariants_catches_a_stale_heap_key(self):
        """The admission loop reads a victim's bid from its heap key, so
        a key that is not its transaction's bid must not pass unseen."""
        pool = self.make_pool()
        a = tip_capped("0xa", gas_price=100, tip_cap=2)
        assert pool.add(a).is_pending
        pool.check_invariants()
        pool.base_fee = 30  # a base-fee change that skips the re-key
        with pytest.raises(MempoolError, match="heap key"):
            pool.check_invariants()
        pool.apply_block([], new_base_fee=40)  # a change re-keys
        pool.check_invariants()
        price, seq, tx_hash = pool._pending_heap[0]
        pool._pending_heap[0] = (price + 1, seq, tx_hash)  # forced stale
        with pytest.raises(MempoolError, match="heap key"):
            pool.check_invariants()


class TestKnownTxCacheBound:
    def test_prune_is_fifo(self):
        cache = KnownTxCache()
        for i in range(6):
            cache.add(f"h{i}")
        assert cache.prune(4) == 2
        assert list(cache) == ["h2", "h3", "h4", "h5"]
        cache.discard("h3")
        assert "h3" not in cache
        assert cache.prune(4) == 0

    def test_node_bounds_per_peer_cache(self, wallet, factory):
        network = Network(seed=11)
        config = NodeConfig(policy=GETH.scaled(4096), known_tx_limit=8)
        a = network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        hashes = []
        for _ in range(20):
            tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            a.receive_transaction("b", tx)
            hashes.append(tx.hash)
        # FIFO bound: only the newest eight survive.
        assert [a.knows("b", h) for h in hashes] == [False] * 12 + [True] * 8

    def test_unlimited_cache_when_configured(self, wallet, factory):
        network = Network(seed=12)
        config = NodeConfig(policy=GETH.scaled(4096), known_tx_limit=None)
        a = network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        hashes = []
        for _ in range(20):
            tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            a.receive_transaction("b", tx)
            hashes.append(tx.hash)
        assert all(a.knows("b", h) for h in hashes)


class TestAnnounceHoldPruning:
    def test_flush_sweeps_expired_holds(self, wallet, factory):
        network = Network(seed=13)
        config = NodeConfig(policy=GETH.scaled(4096))
        a = network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        # Pile up more expired hold entries than the sweep threshold, as a
        # long gossip run used to before they leaked forever.
        for i in range(_ANNOUNCE_PRUNE_THRESHOLD + 10):
            a._announce_requested[f"h{i}"] = -1.0
        a._announce_requested["live"] = 1e9
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        a.submit_transaction(tx)  # queues a broadcast, scheduling a flush
        network.sim.run()
        assert len(a._announce_requested) == 1
        assert "live" in a._announce_requested

    def test_small_maps_are_left_alone(self, wallet, factory):
        network = Network(seed=14)
        config = NodeConfig(policy=GETH.scaled(4096))
        a = network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        a._announce_requested["stale"] = -1.0  # expired but below threshold
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        a.submit_transaction(tx)
        network.sim.run()
        assert "stale" in a._announce_requested


class TestDeliveryGuards:
    """The epoch fast path must never skip a guard that would have fired."""

    def test_disconnect_while_in_flight_drops(self):
        network = Network(seed=17)
        config = NodeConfig(policy=GETH.scaled(64))
        network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")  # queues the two Status handshakes
        network.disconnect("a", "b")
        network.sim.run()
        assert network.drops_by_reason.get("link_vanished") == 2
        assert network.messages_dropped == 2
