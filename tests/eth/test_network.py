"""Tests for the network container: wiring, transport, ground truth."""

import pytest

from repro.errors import (
    LinkExistsError,
    NetworkError,
    NotConnectedError,
    UnknownNodeError,
)
from repro.eth.messages import Status, Transactions
from repro.eth.network import Network, fully_connect
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei


class TestWiring:
    def test_connect_creates_bidirectional_peering(self, triangle_network):
        assert triangle_network.are_connected("n0", "n1")
        assert "n1" in triangle_network.node("n0").peer_ids
        assert "n0" in triangle_network.node("n1").peer_ids

    def test_duplicate_link_rejected(self, triangle_network):
        with pytest.raises(LinkExistsError):
            triangle_network.connect("n0", "n1")

    def test_self_link_rejected(self, triangle_network):
        with pytest.raises(NetworkError):
            triangle_network.connect("n0", "n0")

    def test_unknown_node_rejected(self, triangle_network):
        with pytest.raises(UnknownNodeError):
            triangle_network.connect("n0", "ghost")

    def test_duplicate_node_id_rejected(self, triangle_network):
        with pytest.raises(NetworkError):
            triangle_network.create_node("n0")

    def test_peer_limit_enforced_without_force(self):
        network = Network(seed=0)
        config = NodeConfig(policy=GETH.scaled(16), max_peers=1)
        for name in ("a", "b", "c"):
            network.create_node(name, config)
        network.connect("a", "b")
        with pytest.raises(NetworkError):
            network.connect("a", "c")
        network.connect("a", "c", force=True)  # supernode-style override
        assert network.node("a").degree == 2

    def test_disconnect(self, triangle_network):
        triangle_network.disconnect("n0", "n1")
        assert not triangle_network.are_connected("n0", "n1")
        with pytest.raises(NotConnectedError):
            triangle_network.disconnect("n0", "n1")

    def test_fully_connect_helper(self):
        network = Network(seed=0)
        for name in ("a", "b", "c", "d"):
            network.create_node(name)
        fully_connect(network, ["a", "b", "c", "d"])
        assert network.link_count == 6


class TestTransport:
    def test_send_requires_link(self, triangle_network, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        msg = Transactions(txs=(tx,))
        with pytest.raises(NotConnectedError):
            triangle_network.send("n0", "n0", msg)
        network = triangle_network
        network.disconnect("n0", "n2")
        with pytest.raises(NotConnectedError):
            network.send("n0", "n2", msg)

    def test_messages_arrive_after_latency(self, line_network, wallet, factory):
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        line_network.send("n0", "n1", Transactions(txs=(tx,)))
        assert tx.hash not in line_network.node("n1").mempool
        line_network.run(1.0)
        assert tx.hash in line_network.node("n1").mempool

    def test_message_counters(self, line_network, wallet, factory):
        # Wiring already produced two Status handshakes per link.
        assert line_network.messages_by_kind["Status"] == 6
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        line_network.send("n0", "n1", Transactions(txs=(tx,)))
        assert line_network.messages_by_kind["Transactions"] == 1

    def test_a_pass_that_raises_counts_no_message(self):
        """``send_batch`` raises at its first unknown target; the entries
        before it were never queued, so they are not counted by kind
        either."""
        network = Network(seed=0)
        for name in ("a", "b"):
            network.create_node(name)
        network.connect("a", "b")
        assert network.messages_by_kind == {"Status": 2}
        assert network.messages_sent == 2
        status = Status(client_version="probe")
        with pytest.raises(UnknownNodeError):
            network.send_batch("a", [("b", status), ("c", status)])
        network.create_node("c")
        with pytest.raises(NotConnectedError):
            network.send_batch("a", [("b", status), ("c", status)])
        assert network.messages_by_kind == {"Status": 2}
        assert network.messages_sent == 2

    def test_handshake_exchanges_client_versions(self, line_network):
        line_network.run(2.0)
        assert (
            line_network.node("n0").peer_versions["n1"]
            == line_network.node("n1").config.client_version
        )
        assert "n0" in line_network.node("n1").peer_versions


class TestGroundTruth:
    def test_graph_matches_links(self, triangle_network):
        graph = triangle_network.ground_truth_graph()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3

    def test_supernode_excluded_by_default(self, triangle_network):
        supernode = Supernode.join(triangle_network)
        graph = triangle_network.ground_truth_graph()
        assert supernode.id not in graph
        assert graph.number_of_edges() == 3
        included = triangle_network.ground_truth_graph(include_supernodes=True)
        assert supernode.id in included
        assert included.number_of_edges() == 6

    def test_ground_truth_edges_excludes_supernode_links(self, triangle_network):
        Supernode.join(triangle_network)
        edges = triangle_network.ground_truth_edges()
        assert len(edges) == 3
        assert all("supernode" not in "".join(e) for e in edges)

    def test_measurable_node_ids(self, triangle_network):
        Supernode.join(triangle_network)
        assert sorted(triangle_network.measurable_node_ids()) == ["n0", "n1", "n2"]


class TestDeterminism:
    def test_same_seed_same_message_timeline(self, wallet, factory):
        def run_once():
            network = Network(seed=33)
            config = NodeConfig(policy=GETH.scaled(32))
            for i in range(5):
                network.create_node(f"n{i}", config)
            for i in range(4):
                network.connect(f"n{i}", f"n{i + 1}")
            from repro.eth.account import Wallet
            from repro.eth.transaction import TransactionFactory

            tx = TransactionFactory().transfer(
                Wallet("det").fresh_account(), gas_price=gwei(1)
            )
            network.node("n0").submit_transaction(tx)
            network.run(10.0)
            return network.messages_sent, network.sim.executed_events

        assert run_once() == run_once()
