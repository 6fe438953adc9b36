"""Appendix E end-to-end: TopoShot on an EIP-1559 fee-market network.

"As long as we ensure the max fee in measurement transactions is above the
base fee, the measurement process is not affected by the presence of
EIP1559."
"""


from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools


def fee_market_network(seed=71, base_fee=gwei(0.5)):
    network = Network(seed=seed)
    policy = GETH.scaled(128).with_base_fee_enforcement()
    config = NodeConfig(policy=policy)
    ids = [f"n{i}" for i in range(6)]
    for node_id in ids:
        network.create_node(node_id, config)
    for i in range(len(ids)):
        network.connect(ids[i], ids[(i + 1) % len(ids)])
    network.connect("n0", "n3")
    for node_id in ids:
        network.node(node_id).mempool.base_fee = base_fee
    prefill_mempools(network, median_price=gwei(1.0), sigma=0.3)
    supernode = Supernode.join(network)
    supernode.mempool.base_fee = base_fee
    return network, supernode


class TestToposhotUnder1559:
    def test_true_link_detected_when_y_above_base_fee(self):
        network, supernode = fee_market_network()
        assert measure_one_link(network, supernode, "n0", "n1").detected

    def test_non_link_not_detected(self):
        network, supernode = fee_market_network()
        assert not measure_one_link(network, supernode, "n0", "n2").detected

    def test_measurement_fails_closed_when_y_below_base_fee(self):
        """A mis-estimated Y below the base fee gets every measurement
        transaction dropped at admission — a setup failure, not a false
        answer."""
        network, supernode = fee_market_network(base_fee=gwei(2.0))
        config = MeasurementConfig(gas_price_y=gwei(1.0))
        record = measure_one_link(network, supernode, "n0", "n1", config)
        assert not record.detected
        assert not record.setup_ok
        assert record.tx_hash  # txA was sent to A...
        assert record.tx_hash not in network.node("n0").mempool  # ...and never took
