"""Tests for blocks, the canonical chain and the miner."""

import pytest

from repro.eth.account import Wallet
from repro.eth.chain import Block, Chain
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import (
    INTRINSIC_GAS,
    DynamicFeeTransaction,
    Transaction,
    TransactionFactory,
    gwei,
)


@pytest.fixture
def small_chain():
    """A chain whose blocks hold at most 4 plain transfers."""
    return Chain(gas_limit=4 * INTRINSIC_GAS)


class TestChain:
    def test_append_advances_height_and_nonces(self, small_chain, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        block = small_chain.append("miner-1", 10.0, [tx])
        assert small_chain.height == 1
        assert small_chain.head is block
        assert small_chain.confirmed_nonce(tx.sender) == 1
        assert small_chain.is_included(tx.hash)

    def test_block_fullness(self, small_chain, wallet, factory):
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            for _ in range(4)
        ]
        full = small_chain.append("m", 0.0, txs)
        assert full.is_full
        partial = small_chain.append("m", 1.0, txs[:2])
        assert not partial.is_full

    def test_min_included_price(self, small_chain, wallet):
        txs = [
            Transaction(sender=wallet.fresh_account().address, nonce=0, gas_price=p)
            for p in (300, 100, 200)
        ]
        block = small_chain.append("m", 0.0, txs)
        assert block.min_included_price() == 100

    def test_empty_block_min_price_is_none(self, small_chain):
        block = small_chain.append("m", 0.0, [])
        assert block.min_included_price() is None

    def test_fees_paid_by(self, small_chain, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=100)
        small_chain.append("m", 0.0, [tx])
        assert small_chain.fees_paid_by({tx.sender}) == 100 * INTRINSIC_GAS
        assert small_chain.fees_paid_by({"0xother"}) == 0

    def test_blocks_in_window(self, small_chain):
        for t in (1.0, 5.0, 9.0):
            small_chain.append("m", t, [])
        assert [b.timestamp for b in small_chain.blocks_in_window(2.0, 9.0)] == [
            5.0,
            9.0,
        ]


class TestBaseFee:
    def test_full_block_raises_base_fee(self):
        chain = Chain(gas_limit=4 * INTRINSIC_GAS, initial_base_fee=1000)
        wallet = Wallet("w")
        factory = TransactionFactory()
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            for _ in range(4)
        ]
        chain.append("m", 0.0, txs)
        assert chain.base_fee > 1000

    def test_empty_block_lowers_base_fee(self):
        chain = Chain(gas_limit=4 * INTRINSIC_GAS, initial_base_fee=1000)
        chain.append("m", 0.0, [])
        assert chain.base_fee < 1000

    def test_half_full_block_keeps_base_fee(self):
        chain = Chain(gas_limit=4 * INTRINSIC_GAS, initial_base_fee=1000)
        wallet = Wallet("w")
        factory = TransactionFactory()
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            for _ in range(2)
        ]
        chain.append("m", 0.0, txs)
        assert chain.base_fee == 1000

    def test_zero_base_fee_stays_zero(self):
        chain = Chain(gas_limit=4 * INTRINSIC_GAS, initial_base_fee=0)
        chain.append("m", 0.0, [])
        assert chain.base_fee == 0


def build_mining_network(gas_limit_txs=3):
    network = Network(seed=4)
    network.chain = Chain(gas_limit=gas_limit_txs * INTRINSIC_GAS)
    config = NodeConfig(policy=GETH.scaled(64))
    for i in range(3):
        network.create_node(f"n{i}", config)
    network.connect("n0", "n1")
    network.connect("n1", "n2")
    return network


class TestMiner:
    def test_miner_picks_highest_prices_first(self, wallet, factory):
        network = build_mining_network(gas_limit_txs=2)
        node = network.node("n0")
        prices = [gwei(1), gwei(5), gwei(3)]
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=p) for p in prices
        ]
        for tx in txs:
            node.submit_transaction(tx)
        miner = Miner(node, network.chain, block_interval=10.0)
        block = miner.mine_block()
        assert [t.gas_price for t in block.txs] == [gwei(5), gwei(3)]

    def test_min_gas_price_floor_excludes_dust(self, wallet, factory):
        network = build_mining_network()
        node = network.node("n0")
        cheap = factory.transfer(wallet.fresh_account(), gas_price=10)
        node.submit_transaction(cheap)
        miner = Miner(node, network.chain, min_gas_price=100)
        block = miner.mine_block()
        assert block.txs == ()
        assert cheap.hash in node.mempool  # left pending, not dropped

    def test_block_gossip_cleans_remote_mempools(self, wallet, factory):
        network = build_mining_network()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(2.0)  # propagate to all pools
        assert tx.hash in network.node("n2").mempool
        miner = Miner(network.node("n0"), network.chain)
        miner.mine_block()
        network.run(2.0)  # block gossip
        assert tx.hash not in network.node("n2").mempool
        assert network.node("n2").head_number == 1
        assert network.node("n2").confirmed_nonce(tx.sender) == 1

    def test_never_includes_future_transactions(self, wallet, factory):
        network = build_mining_network()
        node = network.node("n0")
        future = factory.future(wallet.fresh_account(), gas_price=gwei(100))
        node.submit_transaction(future)
        miner = Miner(node, network.chain)
        block = miner.mine_block()
        assert future.hash not in {t.hash for t in block.txs}

    def test_never_includes_already_mined(self, wallet, factory):
        network = build_mining_network()
        node = network.node("n0")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        node.submit_transaction(tx)
        miner = Miner(node, network.chain)
        first = miner.mine_block()
        assert tx.hash in {t.hash for t in first.txs}
        # Simulate the pool not having pruned yet, then mine again.
        second = miner.mine_block()
        assert tx.hash not in {t.hash for t in second.txs}

    def test_periodic_mining(self, wallet, factory):
        network = build_mining_network()
        miner = Miner(
            network.node("n0"), network.chain, block_interval=5.0, poisson=False
        )
        miner.start(initial_delay=5.0)
        network.run(26.0)
        assert network.chain.height == 5
        miner.stop()
        network.run(20.0)
        assert network.chain.height == 5


def dyn_tx(wallet, max_fee, priority_fee):
    """An EIP-1559 transfer from a fresh account."""
    return DynamicFeeTransaction(
        sender=wallet.fresh_account().address,
        nonce=0,
        gas_price=max_fee,
        max_fee=max_fee,
        priority_fee=priority_fee,
    )


class TestMiner1559:
    def test_miner_orders_by_effective_price_under_base_fee(self, wallet):
        """With a base fee active, a capped-max-fee transaction pays less
        than a high-tip one even if its max fee is bigger; the miner must
        order by *effective* price."""
        from repro.eth.chain import Chain
        from repro.eth.policies import GETH

        network = Network(seed=14)
        network.chain = Chain(
            gas_limit=1 * INTRINSIC_GAS, initial_base_fee=gwei(1.0)
        )
        policy = GETH.scaled(64).with_base_fee_enforcement()
        node = network.create_node("m", NodeConfig(policy=policy))
        node.mempool.base_fee = gwei(1.0)
        # Big max fee, tiny tip: effective = base + 0.01 = 1.01 gwei.
        low_tip = dyn_tx(wallet, max_fee=gwei(5.0), priority_fee=gwei(0.01))
        # Smaller max fee, fat tip: effective = base + 1.0 = 2.0 gwei.
        high_tip = dyn_tx(wallet, max_fee=gwei(2.0), priority_fee=gwei(1.0))
        node.submit_transaction(low_tip)
        node.submit_transaction(high_tip)
        miner = Miner(node, network.chain)
        block = miner.mine_block()
        assert [tx.hash for tx in block.txs] == [high_tip.hash]

    def test_underpriced_1559_tx_never_mined(self, wallet):
        from repro.eth.chain import Chain
        from repro.eth.policies import GETH

        network = Network(seed=15)
        network.chain = Chain(
            gas_limit=4 * INTRINSIC_GAS, initial_base_fee=gwei(2.0)
        )
        policy = GETH.scaled(64).with_base_fee_enforcement()
        node = network.create_node("m", NodeConfig(policy=policy))
        # Pool admitted it earlier at a lower base fee...
        cheap = dyn_tx(wallet, max_fee=gwei(1.0), priority_fee=gwei(0.5))
        node.mempool.add(cheap)
        # ...but the current base fee exceeds its max fee: not minable.
        block = Miner(node, network.chain).mine_block()
        assert cheap.hash not in {tx.hash for tx in block.txs}


class TestBlockIdentity:
    def test_block_hash_depends_on_contents(self, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=1)
        a = Block(number=1, miner="m", timestamp=0.0, txs=(tx,))
        b = Block(number=1, miner="m", timestamp=0.0, txs=())
        assert a.hash != b.hash
