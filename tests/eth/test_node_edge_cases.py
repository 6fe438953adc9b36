"""Edge cases in node/network behaviour: churn, in-flight messages,
peer-state hygiene."""

import pytest

from repro.eth.messages import Transactions
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from tests.conftest import record_everything, trace_lines


@pytest.fixture
def pair_network(wallet, factory):
    network = Network(seed=44)
    config = NodeConfig(policy=GETH.scaled(64))
    network.create_node("a", config)
    network.create_node("b", config)
    network.create_node("c", config)
    network.connect("a", "b")
    network.connect("b", "c")
    return network


class TestChurn:
    def test_in_flight_message_after_disconnect_is_dropped(
        self, pair_network, wallet, factory
    ):
        pair_network.run(1.0)  # let the handshake Status messages land
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pair_network.send("a", "b", Transactions(txs=(tx,)))
        pair_network.disconnect("a", "b")  # message still in flight
        pair_network.run(5.0)
        # The link is gone, so the in-flight segment dies with it: a closed
        # TCP session delivers nothing, and neither do we.
        assert tx.hash not in pair_network.node("b").mempool
        assert pair_network.messages_dropped == 1
        assert pair_network.drops_by_reason == {"link_vanished": 1}

    def test_in_flight_drop_emits_trace_record(self, wallet, factory):
        from repro.sim.engine import Simulator

        network = Network(sim=Simulator(seed=44))
        obs = record_everything(network)
        config = NodeConfig(policy=GETH.scaled(64))
        network.create_node("a", config)
        network.create_node("b", config)
        network.connect("a", "b")
        network.run(1.0)  # let the handshake Status messages land
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.send("a", "b", Transactions(txs=(tx,)))
        network.disconnect("a", "b")
        network.run(5.0)
        drops = [line for line in trace_lines(obs.events) if "|drop|" in line]
        assert len(drops) == 1
        assert drops[0].endswith("(link_vanished)")

    def test_queued_broadcast_to_removed_peer_is_dropped(
        self, pair_network, wallet, factory
    ):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        node_b = pair_network.node("b")
        node_b.submit_transaction(tx)  # queues pushes to a and c
        pair_network.disconnect("b", "c")  # before the flush fires
        pair_network.run(5.0)
        assert tx.hash in pair_network.node("a").mempool
        assert tx.hash not in pair_network.node("c").mempool

    def test_reconnect_restarts_clean_peer_state(self, pair_network, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        pair_network.node("a").submit_transaction(tx)
        pair_network.run(5.0)
        assert pair_network.node("a").knows("b", tx.hash)
        pair_network.disconnect("a", "b")
        pair_network.connect("a", "b")
        assert not pair_network.node("a").knows("b", tx.hash)


class TestSupernodeEdgeCases:
    def test_duplicate_observation_kept_once(self, pair_network, wallet, factory):
        supernode = Supernode.join(pair_network)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        supernode.handle_message("a", Transactions(txs=(tx,)))
        supernode.handle_message("a", Transactions(txs=(tx,)))
        assert len(supernode.observations) == 1

    def test_send_empty_batch_is_noop(self, pair_network):
        supernode = Supernode.join(pair_network)
        before = pair_network.messages_sent
        supernode.send_transactions("a", [])
        assert pair_network.messages_sent == before

    def test_join_twice_with_different_ids(self, pair_network):
        first = Supernode.join(pair_network, node_id="m1")
        second = Supernode.join(pair_network, node_id="m2")
        # m2 connects to all nodes including m1 (it was present already).
        assert pair_network.are_connected("m1", "m2")
        assert first.degree == 4
        assert pair_network.ground_truth_graph().number_of_nodes() == 3
