"""Tests for transaction propagation: push, announcements, future
non-forwarding, known-tx de-duplication."""


from repro.eth.messages import NewPooledTransactionHashes, Transactions
from repro.eth.network import Network
from repro.eth.node import ANNOUNCE_HOLD, NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import Transaction, gwei


def make_chain_network(n=4, **config_overrides):
    """n nodes in a line with explicit config."""
    network = Network(seed=11)
    config = NodeConfig(policy=GETH.scaled(64), **config_overrides)
    for i in range(n):
        network.create_node(f"n{i}", config)
    for i in range(n - 1):
        network.connect(f"n{i}", f"n{i + 1}")
    return network


class TestPushPropagation:
    def test_pending_tx_floods_whole_line(self, wallet, factory):
        network = make_chain_network(5)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        for i in range(5):
            assert tx.hash in network.node(f"n{i}").mempool

    def test_future_tx_is_not_forwarded(self, wallet, factory):
        network = make_chain_network(3)
        future = factory.future(wallet.fresh_account(), gas_price=gwei(5))
        network.node("n0").submit_transaction(future)
        network.run(10.0)
        assert future.hash in network.node("n0").mempool
        assert future.hash not in network.node("n1").mempool

    def test_future_forwarder_misbehaviour(self, wallet, factory):
        """The non-default setting pre-processing filters out (§6.2.1)."""
        network = make_chain_network(3, forwards_future=True)
        future = factory.future(wallet.fresh_account(), gas_price=gwei(5))
        network.node("n0").submit_transaction(future)
        network.run(10.0)
        assert future.hash in network.node("n1").mempool

    def test_non_relaying_node_blocks_propagation(self, wallet, factory):
        network = Network(seed=2)
        relay_config = NodeConfig(policy=GETH.scaled(64))
        silent_config = NodeConfig(policy=GETH.scaled(64), relays_transactions=False)
        network.create_node("a", relay_config)
        network.create_node("mute", silent_config)
        network.create_node("b", relay_config)
        network.connect("a", "mute")
        network.connect("mute", "b")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("a").submit_transaction(tx)
        network.run(10.0)
        assert tx.hash in network.node("mute").mempool  # admitted
        assert tx.hash not in network.node("b").mempool  # never forwarded

    def test_rejected_tx_is_not_forwarded(self, wallet, factory):
        network = make_chain_network(3)
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(5.0)
        # An insufficient replacement bump is rejected at n1 and stops there.
        weak = Transaction(sender=account.address, nonce=0, gas_price=int(gwei(1.02)))
        network.node("n1").receive_transaction("n0", weak)
        network.run(5.0)
        assert weak.hash not in network.node("n2").mempool

    def test_replacement_propagates(self, wallet, factory):
        network = make_chain_network(4)
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        stronger = Transaction(sender=account.address, nonce=0, gas_price=gwei(1.2))
        network.node("n0").submit_transaction(stronger)
        network.run(10.0)
        for i in range(4):
            pool = network.node(f"n{i}").mempool
            assert stronger.hash in pool
            assert original.hash not in pool


class TestKnownTxTracking:
    def test_no_push_back_to_origin(self, wallet, factory):
        network = make_chain_network(2, push_to_all=True)
        sender, receiver = network.node("n0"), network.node("n1")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        sender.submit_transaction(tx)
        network.run(5.0)
        before = network.messages_sent
        network.run(5.0)
        assert network.messages_sent == before  # no ping-pong

    def test_forget_known_transactions(self, wallet, factory):
        network = make_chain_network(2)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(5.0)
        assert network.node("n0").knows("n1", tx.hash)
        network.forget_known_transactions()
        assert not network.node("n0").knows("n1", tx.hash)


class TestAnnouncements:
    def test_announced_tx_is_requested_and_fetched(self, wallet, factory):
        network = make_chain_network(2, announce_only=True)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(5.0)
        assert tx.hash in network.node("n1").mempool
        kinds = network.messages_by_kind
        assert kinds.get("NewPooledTransactionHashes", 0) >= 1
        assert kinds.get("GetPooledTransactions", 0) >= 1
        assert kinds.get("PooledTransactions", 0) >= 1

    def test_hold_window_blocks_second_request(self, wallet, factory):
        """Within 5 s a node will not respond to other announcements of the
        same transaction (Section 2)."""
        network = Network(seed=5)
        config = NodeConfig(policy=GETH.scaled(64))
        for name in ("target", "x", "y"):
            network.create_node(name, config)
        network.connect("target", "x")
        network.connect("target", "y")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        target = network.node("target")
        target.handle_message("x", NewPooledTransactionHashes(hashes=(tx.hash,)))
        target.handle_message("y", NewPooledTransactionHashes(hashes=(tx.hash,)))
        network.run(1.0)
        assert network.messages_by_kind.get("GetPooledTransactions", 0) == 1

    def test_hold_expires_and_allows_rerequest(self, wallet, factory):
        network = Network(seed=5)
        config = NodeConfig(policy=GETH.scaled(64))
        for name in ("target", "x", "y"):
            network.create_node(name, config)
        network.connect("target", "x")
        network.connect("target", "y")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        target = network.node("target")
        target.handle_message("x", NewPooledTransactionHashes(hashes=(tx.hash,)))
        network.run(ANNOUNCE_HOLD + 1.0)  # hold expired, body never arrived
        target.handle_message("y", NewPooledTransactionHashes(hashes=(tx.hash,)))
        network.run(1.0)
        assert network.messages_by_kind.get("GetPooledTransactions", 0) == 2

    def test_known_tx_not_requested(self, wallet, factory):
        network = make_chain_network(2)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n1").submit_transaction(tx)
        network.run(2.0)
        requests_before = network.messages_by_kind.get("GetPooledTransactions", 0)
        network.node("n1").handle_message(
            "n0", NewPooledTransactionHashes(hashes=(tx.hash,))
        )
        network.run(2.0)
        assert (
            network.messages_by_kind.get("GetPooledTransactions", 0)
            == requests_before
        )

    def test_request_for_unknown_tx_gets_no_reply(self, wallet, factory):
        network = make_chain_network(2)
        from repro.eth.messages import GetPooledTransactions

        network.node("n0").handle_message(
            "n1", GetPooledTransactions(hashes=("0xdeadbeef",))
        )
        network.run(2.0)
        assert network.messages_by_kind.get("PooledTransactions", 0) == 0


class TestBatching:
    def test_pushes_are_batched_per_peer(self, wallet, factory):
        network = make_chain_network(2, push_to_all=True)
        txs = [
            factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            for _ in range(10)
        ]
        node = network.node("n0")
        for tx in txs:
            node.submit_transaction(tx)
        network.run(5.0)
        # All 10 submissions fit in one broadcast interval -> one packet.
        assert network.messages_by_kind.get("Transactions", 0) == 1
        assert all(tx.hash in network.node("n1").mempool for tx in txs)

    def test_direct_send_preserves_order(self, wallet, factory):
        network = make_chain_network(2)
        account = wallet.fresh_account()
        first = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        second = Transaction(sender=account.address, nonce=1, gas_price=gwei(1))
        network.node("n1").handle_message(
            "n0", Transactions(txs=(first, second))
        )
        assert network.node("n1").mempool.is_pending(second.hash)
