"""Tests for the pre-processing phase (Sections 5.2.3 and 6.2.1)."""

import pytest

from repro.core.config import MeasurementConfig
from repro.core.preprocess import (
    calibrate_future_count,
    detect_future_forwarders,
    preprocess_targets,
)
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH, NETHERMIND
from repro.eth.supernode import Supernode
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools


@pytest.fixture
def mixed_network():
    """A hand-built network with one of each misbehaviour."""
    network = Network(seed=31)
    base = GETH.scaled(128)
    network.create_node("good-1", NodeConfig(policy=base))
    network.create_node("good-2", NodeConfig(policy=base))
    network.create_node(
        "forwarder", NodeConfig(policy=base, forwards_future=True)
    )
    network.create_node(
        "no-rpc", NodeConfig(policy=base, responds_to_rpc=False)
    )
    network.create_node(
        "nethermind",
        NodeConfig(policy=NETHERMIND.scaled(64), client_version="Nethermind/v1.10"),
    )
    ids = ["good-1", "good-2", "forwarder", "no-rpc", "nethermind"]
    for i in range(len(ids) - 1):
        network.connect(ids[i], ids[i + 1])
    prefill_mempools(network, median_price=gwei(1.0))
    supernode = Supernode.join(network)
    return network, supernode, ids


class TestPreprocess:
    def test_all_rejection_categories(self, mixed_network):
        network, supernode, ids = mixed_network
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        report = preprocess_targets(network, supernode, ids, config)
        assert report.rejected_client == ["nethermind"]
        assert report.rejected_unresponsive == ["no-rpc"]
        assert report.rejected_future_forwarders == ["forwarder"]
        assert sorted(report.accepted) == ["good-1", "good-2"]

    def test_summary_counts(self, mixed_network):
        network, supernode, ids = mixed_network
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        report = preprocess_targets(network, supernode, ids, config)
        assert "accepted=2" in report.summary()
        assert len(report.rejected) == 3

    def test_checks_can_be_disabled(self, mixed_network):
        network, supernode, ids = mixed_network
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        report = preprocess_targets(
            network,
            supernode,
            ids,
            config,
            check_future_forwarding=False,
            check_responsiveness=False,
        )
        assert "forwarder" in report.accepted
        assert "no-rpc" in report.accepted
        assert "nethermind" not in report.accepted  # version filter stays

    def test_monitor_node_detached_after_probe(self, mixed_network):
        network, supernode, ids = mixed_network
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        before = set(network.node_ids)
        detect_future_forwarders(
            network, supernode, ids, config, Wallet("probe")
        )
        monitors = set(network.node_ids) - before
        assert all(network.node(m).degree == 0 for m in monitors)


class TestInjectionFaults:
    """A forwarding probe that cannot be injected rejects its candidate
    (not proven harmless) instead of aborting the campaign."""

    @staticmethod
    def campaign(n_nodes, plan, warm_up=0.0):
        from repro.core.campaign import TopoShot
        from repro.netgen.ethereum import quick_network

        network = quick_network(n_nodes=n_nodes, seed=13)
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        network.install_faults(plan)
        network.run(warm_up)
        return shot, shot.measure_network()

    def check(self, shot, measurement, expected):
        report = shot.last_preprocess
        assert report.rejected_degraded == expected
        assert measurement.skipped_nodes == expected
        assert f"degraded-endpoint={len(expected)}" in report.summary()
        assert not set(expected) & set(measurement.node_ids)
        assert measurement.score is not None and measurement.edges

    def test_send_timeouts_during_preprocessing(self):
        from repro.sim.faults import FaultPlan

        shot, measurement = self.campaign(24, FaultPlan(send_timeout_rate=0.1))
        self.check(
            shot,
            measurement,
            ["testnet-0000", "testnet-0014", "testnet-0020", "testnet-0021"],
        )

    def test_churned_supernode_link_during_preprocessing(self):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan(
            churn_rate=1.0, churn_downtime=60.0, churn_supernode_links=True
        )
        # 15 s of churn takes the supernode's link to testnet-0014 down
        # before pre-processing starts.
        shot, measurement = self.campaign(16, plan, warm_up=15.0)
        self.check(shot, measurement, ["testnet-0014"])


class TestCalibration:
    def test_finds_minimal_sufficient_z(self):
        """The speculative-B' calibration discovers a big custom pool."""
        network = Network(seed=32)
        base = GETH.scaled(128)
        network.create_node("target", NodeConfig(policy=base.with_capacity(512)))
        network.create_node("local-b", NodeConfig(policy=base))
        network.create_node("c1", NodeConfig(policy=base))
        network.connect("target", "local-b")
        network.connect("target", "c1")
        network.connect("local-b", "c1")
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(base)
        found = calibrate_future_count(
            network, supernode, "target", "local-b", config, [128, 384, 700]
        )
        # The default Z=128 cannot reach txC's eviction rank (~median of a
        # 512-slot pool); the first sufficient candidate is discovered.
        assert found == 384

    def test_returns_none_when_nothing_works(self):
        network = Network(seed=33)
        base = GETH.scaled(128)
        # Target that never relays: no Z can make the link visible.
        network.create_node(
            "target", NodeConfig(policy=base, relays_transactions=False)
        )
        network.create_node("local-b", NodeConfig(policy=base))
        network.connect("target", "local-b")
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(base)
        assert (
            calibrate_future_count(
                network, supernode, "target", "local-b", config, [128]
            )
            is None
        )

    def test_requires_known_link(self):
        network = Network(seed=34)
        base = GETH.scaled(128)
        network.create_node("target", NodeConfig(policy=base))
        network.create_node("local-b", NodeConfig(policy=base))
        supernode = Supernode.join(network)
        config = MeasurementConfig.for_policy(base)
        with pytest.raises(ValueError):
            calibrate_future_count(
                network, supernode, "target", "local-b", config, [128]
            )
