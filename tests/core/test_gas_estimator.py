"""Tests for Y estimation (Section 5.2.1)."""

from repro.core.config import DEFAULT_GAS_PRICE_Y, MeasurementConfig
from repro.core.gas_estimator import estimate_y
from repro.eth.node import Node, NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import Transaction
from repro.sim.engine import Simulator


def node_with_prices(prices):
    node = Node("n", Simulator(seed=0), NodeConfig(policy=GETH.scaled(64)))
    for index, price in enumerate(prices):
        node.mempool.add(
            Transaction(sender=f"0xsender{index}", nonce=0, gas_price=price)
        )
    return node


class TestEstimateY:
    def test_explicit_config_wins(self):
        node = node_with_prices([100, 200, 300])
        config = MeasurementConfig(gas_price_y=777)
        assert estimate_y(node, config) == 777

    def test_median_of_pending(self):
        node = node_with_prices([100, 300, 200])
        assert estimate_y(node, MeasurementConfig()) == 200

    def test_even_count_averages_middle_pair(self):
        node = node_with_prices([100, 200, 300, 400])
        assert estimate_y(node, MeasurementConfig()) == 250

    def test_empty_pool_falls_back_to_default(self):
        node = node_with_prices([])
        assert estimate_y(node, MeasurementConfig()) == DEFAULT_GAS_PRICE_Y
