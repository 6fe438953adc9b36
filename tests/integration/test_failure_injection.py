"""Failure injection: measurement behaviour under hostile conditions.

Each test deliberately violates one of TopoShot's preconditions and checks
the tool degrades the way the paper predicts — never with false positives.
"""


from repro.core.campaign import TopoShot
from repro.core.config import FLOOD_WAIT, MeasurementConfig
from repro.core.primitive import measure_one_link
from repro.eth.miner import Miner
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import INTRINSIC_GAS, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools


def triangle(seed=61, capacity=128):
    network = Network(seed=seed)
    config = NodeConfig(policy=GETH.scaled(capacity))
    for name in ("a", "b", "c"):
        network.create_node(name, config)
    network.connect("a", "b")
    network.connect("b", "c")
    network.connect("a", "c")
    return network


class TestEmptyPools:
    def test_flood_self_fills_an_empty_pool(self):
        """With Z >= L the flood itself fills an empty pool to the brim and
        then evicts txC — consistent with Figure 7's finding that recall
        stays 100% whenever mempool_size - pending <= Z. The under-loaded
        testnet problem (Section 6.2.1) is therefore *mining*, covered by
        TestMinedSeed below, not eviction."""
        network = triangle()
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(
            GETH.scaled(128), gas_price_y=gwei(1.0)
        )
        assert measure_one_link(network, supernode, "a", "b", config).detected

    def test_undersized_flood_on_empty_pool_fails_closed(self):
        """...but a flood smaller than the pool's free space never fills
        it, no eviction fires, and the probe reports a setup failure
        (the Figure 7 cliff: recall 0 when mempool - pending > Z)."""
        network = triangle()
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(
            GETH.scaled(128), gas_price_y=gwei(1.0)
        ).with_future_count(32)
        record = measure_one_link(network, supernode, "a", "b", config)
        assert not record.detected
        assert not record.setup_ok

    def test_background_fill_restores_measurement(self):
        network = triangle()
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        assert measure_one_link(network, supernode, "a", "b").detected


class TestMinedSeed:
    def test_aggressive_miner_kills_txc_and_measurement_fails_closed(self):
        """When txC is mined mid-measurement (the 'always included in the
        next block' Ropsten problem), the probe reports a setup failure,
        not a bogus edge."""
        network = triangle()
        network.chain.gas_limit = 400 * INTRINSIC_GAS  # swallow everything
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        miner = Miner(network.node("c"), network.chain, block_interval=2.0,
                      poisson=False)
        miner.start(initial_delay=2.0)
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        record = measure_one_link(network, supernode, "a", "b", config)
        assert not record.detected  # fails closed

    def test_price_floor_miner_leaves_txc_alone(self):
        """With block space scarce (full blocks above Y), measurement
        proceeds normally while mining runs."""
        network = triangle(capacity=256)
        network.chain.gas_limit = 4 * INTRINSIC_GAS
        prefill_mempools(network, median_price=gwei(10.0), sigma=0.2)
        supernode = Supernode.join(network)
        miner = Miner(
            network.node("c"),
            network.chain,
            block_interval=5.0,
            min_gas_price=gwei(2.0),
            poisson=False,
        )
        miner.start(initial_delay=5.0)
        config = MeasurementConfig.for_policy(
            GETH.scaled(256), gas_price_y=gwei(1.0)
        )
        assert measure_one_link(network, supernode, "a", "b", config).detected


class TestHostileNetworks:
    def test_nethermind_heavy_network_loses_isolation_precision(self):
        """Ablation: R=0 clients (unfiltered!) re-propagate txA and can
        manufacture false positives — why TopoShot targets only R>0
        clients and why the paper calls R=0 a flaw."""
        network = quick_network(
            n_nodes=16, seed=62, nethermind_fraction=0.4
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        # Bypass pre-processing: measure everyone, including R=0 clients.
        measurement = shot.measure_network(preprocess=False)
        assert measurement.score.precision < 1.0

    def test_preprocessing_helps_but_cannot_fix_r0_bystanders(self):
        """Pre-processing removes R=0 clients from the *target* set, but
        they remain third-party relays whose equal-price replacement still
        leaks txA — a residual false-positive channel the paper's 100%
        precision claim implicitly relies on R=0 clients being rare
        (1.5% of the 2021 mainnet)."""
        false_positives = 0
        for seed in (63, 64, 65):
            network = quick_network(
                n_nodes=16, seed=seed, nethermind_fraction=0.4
            )
            prefill_mempools(network)
            shot = TopoShot.attach(network)
            filtered = shot.measure_network(preprocess=True)
            false_positives += filtered.score.false_positives
            # The damage stays bounded even at this hostile share.
            assert filtered.score.precision >= 0.85, seed
        # Targets are clean, yet the R=0 *relays* still leak txA
        # transactions somewhere in the sweep.
        assert false_positives > 0

    def test_precision_perfect_at_realistic_r0_share(self):
        """At the mainnet's actual ~1.5% Nethermind share, precision holds."""
        network = quick_network(
            n_nodes=16, seed=64, nethermind_fraction=0.015
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        measurement = shot.measure_network()
        assert measurement.score.precision == 1.0

    def test_future_forwarders_without_filtering_hurt(self):
        network = quick_network(
            n_nodes=16, seed=63, fraction_future_forwarders=0.3
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        unfiltered = shot.measure_network(preprocess=False)
        # Forwarded floods leak evictions onto third parties; at minimum
        # the measurement loses its clean behaviour — and filtering fixes it.
        network2 = quick_network(
            n_nodes=16, seed=63, fraction_future_forwarders=0.3
        )
        prefill_mempools(network2)
        shot2 = TopoShot.attach(network2)
        filtered = shot2.measure_network(preprocess=True)
        assert filtered.score.precision == 1.0
        assert filtered.score.precision >= unfiltered.score.precision


class TestChurnDuringMeasurement:
    def test_disconnection_mid_measurement_fails_closed(self):
        """A link that disappears between Step 1 and Step 3 must not be
        reported (the paper's >95%-stable-peers observation bounds how
        often this happens in practice)."""
        network = triangle()
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        # Disconnect right after the flood wait.
        network.sim.schedule(
            FLOOD_WAIT + 0.5, lambda: network.disconnect("a", "b")
        )
        assert not measure_one_link(network, supernode, "a", "b", config).detected
