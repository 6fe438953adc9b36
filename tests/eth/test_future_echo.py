"""The Rinkeby future-echo quirk (Appendix D) and its harmlessness to M."""

import pytest

from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools


@pytest.fixture
def echo_network(factory, wallet):
    network = Network(seed=91)
    base = GETH.scaled(128)
    network.create_node("echo", NodeConfig(policy=base, echoes_future_to_sender=True))
    network.create_node("b", NodeConfig(policy=base))
    network.create_node("c", NodeConfig(policy=base))
    network.connect("echo", "b")
    network.connect("b", "c")
    network.connect("echo", "c")
    return network


class TestFutureEcho:
    def test_future_tx_echoed_back_to_sender(self, echo_network, wallet, factory):
        supernode = Supernode.join(echo_network)
        future = factory.future(wallet.fresh_account(), gas_price=gwei(2.0))
        supernode.send_transactions("echo", [future])
        echo_network.run(2.0)
        # The echo node bounced the future back; M observed it.
        assert supernode.observed_from("echo", future.hash)

    def test_normal_node_does_not_echo(self, echo_network, wallet, factory):
        supernode = Supernode.join(echo_network)
        future = factory.future(wallet.fresh_account(), gas_price=gwei(2.0))
        supernode.send_transactions("b", [future])
        echo_network.run(2.0)
        assert not supernode.observed_from("b", future.hash)

    def test_echo_does_not_break_measurement(self, echo_network):
        """The paper fixed this by discarding echoed futures on M; our
        supernode's observation-based detection keys on txA's hash, so
        echoes are absorbed without special-casing."""
        prefill_mempools(echo_network, median_price=gwei(1.0))
        supernode = Supernode.join(echo_network)
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        assert measure_one_link(echo_network, supernode, "echo", "b", config).detected
        supernode.clear_observations()
        echo_network.forget_known_transactions()
        # Echoed floods must not create phantom edges either.
        assert measure_one_link(echo_network, supernode, "b", "echo", config).detected

    def test_pending_txs_not_echoed(self, echo_network, wallet, factory):
        supernode = Supernode.join(echo_network)
        pending = factory.transfer(wallet.fresh_account(), gas_price=gwei(2.0))
        supernode.send_transactions("echo", [pending])
        echo_network.run(2.0)
        # Pending transactions follow normal relay rules (never back to
        # the sender), so M sees nothing from the echo node itself.
        assert not supernode.observed_from("echo", pending.hash)
