"""Empirical check of Theorem C.2: with conditions V1/V2 verified, the
blocks produced with the measurement running contain exactly the same
third-party transactions as the deterministic hypothetical world without
measurement."""


from repro.core.config import MeasurementConfig
from repro.core.noninterference import check_conditions, compare_worlds
from repro.core.primitive import measure_one_link
from repro.eth.account import Wallet
from repro.eth.chain import Chain
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.workloads import prefill_mempools


def build_world(measure: bool, seed: int = 55):
    """One deterministic world: 5 nodes, one miner producing small full
    blocks from high-priced background txs, optional measurement."""
    network = Network(seed=seed)
    network.chain = Chain(gas_limit=8 * INTRINSIC_GAS)
    config = NodeConfig(policy=GETH.scaled(256))
    ids = [f"n{i}" for i in range(5)]
    for node_id in ids:
        network.create_node(node_id, config)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            network.connect(a, b)
    # Background pool: plenty of transactions priced well above Y so every
    # block is full of >Y0 transactions (V1 and V2 hold by construction).
    prefill_mempools(network, median_price=gwei(10.0), sigma=0.2)
    supernode = Supernode.join(network)
    miner = Miner(
        network.node("n0"),
        network.chain,
        block_interval=6.0,
        min_gas_price=gwei(2.0),
        poisson=False,
    )
    miner.start(initial_delay=6.0)

    senders = set()
    if measure:
        config_m = MeasurementConfig.for_policy(
            GETH.scaled(256), gas_price_y=gwei(1.0)
        )
        wallet = Wallet("measurement")
        assert measure_one_link(network, supernode, "n1", "n2", config_m, wallet).detected
        senders.update(account.address for account in wallet)
    network.run(60.0 - network.sim.now)
    return network, senders


class TestTwoWorlds:
    def test_blocks_identical_modulo_measurement_senders(self):
        measured_net, senders = build_world(measure=True)
        hypothetical_net, _ = build_world(measure=False)
        comparison = compare_worlds(
            measured_net.chain.blocks,
            hypothetical_net.chain.blocks,
            ignore_senders=senders,
        )
        assert comparison.blocks_compared >= 5
        assert comparison.identical, comparison.summary()

    def test_v1_v2_verified_in_measured_world(self):
        measured_net, _ = build_world(measure=True)
        report = check_conditions(
            measured_net.chain, t1=0.0, t2=30.0, y0=gwei(1.0), expiry=30.0
        )
        assert report.non_interfering, report.summary()

    def test_violation_detected_when_y_too_high(self):
        """If Y0 were set above included prices, V2 must flag it — the
        monitor is not a rubber stamp."""
        measured_net, _ = build_world(measure=True)
        report = check_conditions(
            measured_net.chain, t1=0.0, t2=30.0, y0=gwei(1000.0), expiry=30.0
        )
        assert not report.v2_prices_above_y0
