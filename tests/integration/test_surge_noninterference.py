"""V1/V2 non-interference re-verified under live surge pricing.

The fee market changes what can go wrong during a measurement: a surging
admission floor can silently reject txB and turn a probe into a false
negative. These worlds re-run the Theorem C.2 machinery with a market
installed — V1/V2 must still verify, the surge-band companion check must
attest that every probe price stayed admissible, and the measurement
itself must still find the link.
"""

import pytest

from repro.core.adaptive import choose_adaptive_y
from repro.core.config import MeasurementConfig
from repro.core.gas_estimator import estimate_y
from repro.core.noninterference import (
    NonInterferenceMonitor,
    check_conditions,
    check_surge_band,
    compare_worlds,
)
from repro.core.primitive import measure_one_link
from repro.errors import MeasurementError
from repro.eth.account import Wallet
from repro.eth.chain import Chain
from repro.eth.fee_market import (
    TARGET_OCCUPANCY,
    FeeMarket,
    FeeMarketConfig,
    min_measurement_y,
)
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.workloads import prefill_mempools


def build_world(measure: bool, seed: int = 77):
    """Five fully connected nodes, full pools, a live fee market, and a
    miner producing small full blocks — the measured world optionally runs
    one link measurement priced by the floor-aware estimator."""
    network = Network(seed=seed)
    network.chain = Chain(gas_limit=8 * INTRINSIC_GAS)
    config = NodeConfig(policy=GETH.scaled(256))
    ids = [f"n{i}" for i in range(5)]
    for node_id in ids:
        network.create_node(node_id, config)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            network.connect(a, b)
    network.install_fee_market(
        FeeMarket(FeeMarketConfig(update_interval=0.5))
    )
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

    market = network.fee_market
    senders = set()
    y0 = gwei(10.0)
    window = (0.0, 0.0)
    if measure:
        config_m = MeasurementConfig.for_policy(GETH.scaled(256))
        y0 = estimate_y(supernode, config_m)
        config_m = config_m.with_gas_price(y0)
        monitor = NonInterferenceMonitor(
            network.chain,
            y0=y0,
            market=market,
            replace_bump=config_m.replace_bump,
        )
        monitor.start(network.sim.now)
        wallet = Wallet("measurement")
        record = measure_one_link(network, supernode, "n1", "n2", config_m, wallet)
        monitor.stop(network.sim.now)
        window = (monitor._t1, monitor._t2)
        senders.update(account.address for account in wallet)
        assert record.detected
        build_world.monitor = monitor  # stashed for the verify tests
    network.run(60.0 - network.sim.now)
    return network, senders, y0, window


class TestSurgeWorld:
    def test_pools_surge_and_measurement_still_detects(self):
        network, _, y0, _ = build_world(measure=True)
        market = network.fee_market
        # Full pools: surge pricing is engaged for the quote the whole run.
        assert market.occupancy > TARGET_OCCUPANCY
        assert market.surge > 1.0
        # The floor-aware estimate keeps the cheapest probe admissible.
        floor = market.floor
        assert int(y0 * 0.95) >= floor

    def test_v1_v2_verified_under_surge(self):
        network, _, y0, window = build_world(measure=True)
        report = check_conditions(
            network.chain, t1=window[0], t2=window[1], y0=int(y0 * 0.9),
            expiry=30.0,
        )
        assert report.non_interfering, report.summary()

    def test_surge_band_clear_for_floor_aware_y(self):
        network, _, y0, window = build_world(measure=True)
        monitor = build_world.monitor
        band = monitor.verify_surge()
        assert band.samples_checked > 0
        assert band.admissible_throughout, band.summary()
        assert band.peak_floor <= band.tx_b_price

    def test_surge_band_flags_underpriced_y(self):
        network, _, _, window = build_world(measure=True)
        market = network.fee_market
        # A naive Y chosen below the floor's clearance must be flagged.
        naive_y = min_measurement_y(market.floor, 0.1) // 2
        band = check_surge_band(
            market, window[0], window[1], naive_y, replace_bump=0.1
        )
        assert not band.admissible_throughout
        assert band.peak_floor > band.tx_b_price

    def test_blocks_identical_modulo_measurement_senders(self):
        measured, senders, _, _ = build_world(measure=True)
        hypothetical, _, _, _ = build_world(measure=False)
        comparison = compare_worlds(
            measured.chain.blocks,
            hypothetical.chain.blocks,
            ignore_senders=senders,
        )
        assert comparison.blocks_compared >= 5
        assert comparison.identical, comparison.summary()


class TestFloorAwareEstimators:
    def test_estimate_y_clamps_to_market_floor(self):
        network, _, _, _ = build_world(measure=False)
        supernode = next(
            network.node(nid) for nid in network.supernode_ids
        )
        config = MeasurementConfig.for_policy(GETH.scaled(256))
        y = estimate_y(supernode, config)
        floor = network.fee_market.floor_for(network.sim.now)
        assert int(y * (1.0 - config.replace_bump / 2.0)) >= floor

    def test_explicit_y_bypasses_clamp(self):
        network, _, _, _ = build_world(measure=False)
        supernode = next(
            network.node(nid) for nid in network.supernode_ids
        )
        config = MeasurementConfig.for_policy(
            GETH.scaled(256)
        ).with_gas_price(123)
        assert estimate_y(supernode, config) == 123

    def test_adaptive_y_raises_when_floor_closes_band(self):
        network, _, _, _ = build_world(measure=False)
        observer = network.node("n1")
        # A market floor pinned above the inclusion floor closes the band.
        network.fee_market.floor = network.chain.base_fee + gwei(50.0)
        network.fee_market.last_update = network.sim.now + 10**6
        with pytest.raises(MeasurementError):
            choose_adaptive_y(network.chain, observer)
