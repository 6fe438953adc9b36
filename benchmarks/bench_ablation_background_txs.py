"""Ablation: background transactions on under-loaded testnets (§6.2.1).

Paper: "however low Gas price we set for txC, the transaction will always
be included in the next block, leaving no time for accurate measurement.
To overcome this problem, we launch another node that sends a number of
background transactions."

Reproduction: a testnet with an active miner and roomy blocks. Without
background traffic, txC is mined mid-measurement and the link is missed;
with the background workload keeping blocks busy above Y, the measurement
succeeds.
"""

import pytest

from benchmarks.harness import emit, run_once
from repro.core.config import MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.account import Wallet
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.workloads import prefill_mempools


def build(with_background: bool):
    network = Network(seed=23)
    config = NodeConfig(policy=GETH.scaled(256))
    ids = [f"n{i}" for i in range(6)]
    for node_id in ids:
        network.create_node(node_id, config)
    for i in range(len(ids)):
        network.connect(ids[i], ids[(i + 1) % len(ids)])
    network.connect("n0", "n3")
    network.chain.gas_limit = 5 * INTRINSIC_GAS
    if with_background:
        # The §6.2.1 trick: populate pools with higher-priced traffic so
        # blocks stay busy above Y and txC is never the best candidate.
        prefill_mempools(network, median_price=gwei(5.0), sigma=0.2)
    miner = Miner(network.node("n4"), network.chain, block_interval=4.0,
                  poisson=False)
    miner.start(initial_delay=4.0)
    supernode = Supernode.join(network)
    return network, supernode


def run_both():
    results = {}
    for label, with_background in (
        ("under-loaded (no background)", False),
        ("with background transactions", True),
    ):
        network, supernode = build(with_background)
        config = MeasurementConfig(gas_price_y=gwei(1.0))
        wallet = Wallet("ablation-background")
        record = measure_one_link(network, supernode, "n0", "n1", config, wallet)
        # The probe's first account is its seed: txC, txB and txA all
        # spend its nonce 0, so one of them was mined iff it advanced.
        seed = next(iter(wallet))
        results[label] = (
            record.detected,
            network.chain.confirmed_nonce(seed.address) > 0,
        )
    return results


@pytest.mark.benchmark(group="ablation-background")
def test_ablation_background_transactions(benchmark):
    results = run_once(benchmark, run_both)
    lines = [f"{'condition':<32} {'link found':>11} {'seed mined mid-run':>19}"]
    for label, (connected, mined) in results.items():
        lines.append(f"{label:<32} {str(connected):>11} {str(mined):>19}")
    lines.append("")
    lines.append(
        "paper: on under-loaded testnets txC is always mined immediately; "
        "background transactions keep it pending for the measurement window"
    )
    emit("ablation_background_txs", "\n".join(lines))

    no_bg = results["under-loaded (no background)"]
    with_bg = results["with background transactions"]
    assert not no_bg[0] and no_bg[1]  # missed because the seed was mined
    assert with_bg[0] and not with_bg[1]  # trick restores the measurement
