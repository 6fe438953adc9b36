"""Estimating the measurement gas price ``Y`` (Section 5.2.1).

"To estimate a proper Gas price in the presence of current transactions, we
rank all pending transactions in the mempool of Node M by their Gas prices,
and use the median Gas price for txC. [...] We apply the estimation method
before every measurement study and obtain Y dynamically."
"""

from __future__ import annotations

from repro.core.config import DEFAULT_GAS_PRICE_Y, MeasurementConfig
from repro.eth.node import Node


def estimate_y(measurement_node: Node, config: MeasurementConfig) -> int:
    """Resolve ``Y`` for a run.

    Order of precedence: an explicit ``config.gas_price_y``; the median
    pending gas price observed in the measurement node's own mempool; and
    finally ``DEFAULT_GAS_PRICE_Y`` on an empty pool (the
    "underwhelmed testnet" situation of Section 6.2.1, where background
    transactions must be injected before measuring).

    Under a live fee market (``Network.install_fee_market``) the estimate
    is clamped up so that even the cheapest probe ``txB = (1 - R/2) * Y``
    clears the current admission floor — an explicit ``gas_price_y`` is
    respected as-is (the caller pinned it deliberately).
    """
    if config.gas_price_y is not None:
        return config.gas_price_y
    median = measurement_node.mempool.median_pending_price()
    if median is not None and median > 0:
        y = median
    else:
        y = DEFAULT_GAS_PRICE_Y
    return clamp_y_to_fee_floor(measurement_node, config, y)


def clamp_y_to_fee_floor(
    node: Node, config: MeasurementConfig, y: int
) -> int:
    """Raise ``y`` until txB clears the live fee-market floor, if any.

    No-op when the node's network has no market installed (the seed
    behavior, which keeps golden fingerprints untouched).
    """
    network = getattr(node, "network", None)
    market = getattr(network, "fee_market", None)
    if market is None:
        return y
    from repro.eth.fee_market import min_measurement_y

    floor = market.floor_for(node.sim.now)
    return max(y, min_measurement_y(floor, config.replace_bump))
