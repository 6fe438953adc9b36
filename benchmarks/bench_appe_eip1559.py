"""Appendix E: TopoShot under EIP-1559 fee markets.

Paper: the mempool prices by max fee and drops transactions whose max fee
falls below the base fee; "as long as we ensure the max fee in measurement
transactions is above the base fee, the measurement process is not
affected by the presence of EIP1559."

Reproduction: the same link measured across a base-fee sweep; detection
must hold whenever Y clears the base fee and fail closed (never falsely
positive) once the base fee overtakes Y.
"""

import pytest

from benchmarks.harness import emit, run_once
from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools

Y = gwei(1.0)
BASE_FEES = (0, gwei(0.25), gwei(0.5), gwei(0.9), gwei(1.5), gwei(3.0))


def measure_with_base_fee(base_fee: int):
    network = Network(seed=88)
    policy = GETH.scaled(256).with_base_fee_enforcement()
    ids = [f"n{i}" for i in range(6)]
    for node_id in ids:
        network.create_node(node_id, NodeConfig(policy=policy))
    for i in range(len(ids)):
        network.connect(ids[i], ids[(i + 1) % len(ids)])
    network.connect("n0", "n3")
    for node_id in ids:
        network.node(node_id).mempool.base_fee = base_fee
    # Background traffic priced around Y, as on a real network where Y is
    # estimated as the pool median; transactions under the base fee are
    # rejected at admission, exactly as Appendix E describes.
    prefill_mempools(network, median_price=gwei(1.0), sigma=0.3)
    supernode = Supernode.join(network)
    supernode.mempool.base_fee = base_fee
    config = MeasurementConfig(gas_price_y=Y)
    true_link = measure_one_link(network, supernode, "n0", "n1", config)
    supernode.clear_observations()
    network.forget_known_transactions()
    non_link = measure_one_link(network, supernode, "n0", "n2", config)
    return true_link.detected, non_link.detected


def sweep():
    return [(fee, *measure_with_base_fee(fee)) for fee in BASE_FEES]


@pytest.mark.benchmark(group="appe")
def test_appe_eip1559_base_fee_sweep(benchmark):
    rows = run_once(benchmark, sweep)
    lines = [f"Y = {Y / 1e9:.2f} gwei", f"{'base fee (gwei)':>16} {'true link':>10} {'non-link':>9}"]
    for fee, true_hit, false_hit in rows:
        lines.append(
            f"{fee / 1e9:>16.2f} {str(true_hit):>10} {str(false_hit):>9}"
        )
        assert not false_hit  # precision survives any base fee
        if fee < Y:
            assert true_hit  # measurement unaffected while Y clears base fee
        else:
            assert not true_hit  # fails closed once Y is underpriced
    lines.append("")
    lines.append(
        "paper: EIP-1559 does not affect the measurement while the "
        "measurement max fee stays above the base fee"
    )
    emit("appe_eip1559", "\n".join(lines))
