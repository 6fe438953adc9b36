"""Tests for per-target flood-size calibration inside campaigns (§5.2.3)."""

import pytest

from repro.core.campaign import TopoShot
from repro.core.config import FUTURE_NONCE_GAP
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import gwei
from repro.netgen.workloads import prefill_mempools


@pytest.fixture
def network_with_big_pool_node():
    """Six nodes; 'big' runs a 4x mempool that defeats the default flood."""
    network = Network(seed=51)
    base = GETH.scaled(128)
    ids = []
    for i in range(5):
        ids.append(f"n{i}")
        network.create_node(f"n{i}", NodeConfig(policy=base))
    network.create_node("big", NodeConfig(policy=base.with_capacity(512)))
    ids.append("big")
    for i in range(len(ids)):
        network.connect(ids[i], ids[(i + 1) % len(ids)])
    network.connect("n0", "n3")
    network.connect("big", "n1")
    prefill_mempools(network, median_price=gwei(1.0))
    return network


class TestZOverrides:
    def test_without_override_big_node_links_missed(
        self, network_with_big_pool_node
    ):
        network = network_with_big_pool_node
        shot = TopoShot.attach(network)
        measurement = shot.measure_network(preprocess=False)
        missed = {
            frozenset(edge)
            for edge in network.ground_truth_edges()
            if "big" in edge
        } - measurement.edges
        assert missed  # default Z cannot flush the 4x pool

    def test_override_recovers_big_node_links(self, network_with_big_pool_node):
        network = network_with_big_pool_node
        shot = TopoShot.attach(network)
        shot.set_z_override("big", 700)
        measurement = shot.measure_network(preprocess=False)
        big_edges = {
            frozenset(edge)
            for edge in network.ground_truth_edges()
            if "big" in edge
        }
        assert big_edges <= measurement.edges
        assert measurement.score.precision == 1.0

    def test_calibrate_target_discovers_and_stores_override(
        self, network_with_big_pool_node
    ):
        network = network_with_big_pool_node
        shot = TopoShot.attach(network)
        found = shot.calibrate_target("big", "n1", z_values=[128, 400, 700])
        assert found is not None
        assert found > shot.config.future_count
        assert shot.z_overrides["big"] == found

    def test_override_below_default_is_ignored(self, network_with_big_pool_node):
        network = network_with_big_pool_node
        shot = TopoShot.attach(network)
        shot.set_z_override("n0", 16)
        from repro.core.schedule import build_schedule

        iteration = build_schedule(network.measurable_node_ids(), 2)[0]
        assert shot._config_for_iteration(iteration.edges).future_count == (
            shot.config.future_count
        )

    def test_measure_pairs_floods_with_the_override(
        self, network_with_big_pool_node
    ):
        """Pair-list rounds run on the campaign's runner, so a delta round
        touching a calibrated node floods with its Z, not the default."""
        from repro.obs import Observability, wiring

        network = network_with_big_pool_node
        obs = Observability()
        shot = TopoShot.attach(network, obs=obs)
        shot.set_z_override("big", 700)
        big_links = [
            tuple(sorted(link))
            for link in network.ground_truth_edges()
            if "big" in link
        ]
        detected = shot.measure_pairs(big_links).edges
        assert detected == {frozenset(link) for link in big_links}
        sent = obs.metrics.counter(wiring.CAMPAIGN_TXS).value
        assert sent >= 700 > shot.config.future_count


class TestOnePerProbeConfig:
    """Serial probes — cross-validation, ``measure_link`` — flood with the
    same per-round config the campaign loop resolves, so a calibrated
    target's override reaches them too."""

    BIG, PEER = "testnet-0003", "testnet-0001"  # a true edge; BIG runs 281 slots

    @staticmethod
    def shot():
        from repro.netgen.ethereum import NetworkSpec, generate_network

        network = generate_network(
            NetworkSpec(
                n_nodes=16, seed=5, mempool_capacity=128,
                fraction_custom_capacity=0.25,
            )
        )
        prefill_mempools(network)
        shot = TopoShot.attach(network)
        shot.config = shot.config.with_cross_validation(3)
        return shot

    def suspect(self, shot):
        """A campaign tally holding the one edge, claimed over a broken
        isolation envelope — so hardening must cross-validate it."""
        from repro.core.results import EdgeEvidence

        assert shot.network.are_connected(self.BIG, self.PEER)
        capacity = shot.network.node(self.BIG).config.policy.capacity
        assert capacity == 281 > shot.config.future_count
        measurement, _ = shot.open([self.PEER, self.BIG], preprocess=False)
        claimed = EdgeEvidence(
            source=self.PEER, sink=self.BIG, tx_hash="0xa",
            extra_observers=("testnet-0002",),
        )
        measurement.edges.add(claimed.edge)
        measurement.evidence[claimed.edge] = claimed
        return measurement, claimed.edge, capacity

    def test_cross_validation_honours_the_z_override(self):
        from repro.core.results import CONFIDENCE_CROSS_VALIDATED

        shot = self.shot()
        measurement, suspect, capacity = self.suspect(shot)
        shot.set_z_override(self.BIG, capacity)
        shot.close(measurement, validate=False)
        assert measurement.edge_confidence[suspect] == CONFIDENCE_CROSS_VALIDATED
        assert suspect in measurement.edges and not measurement.quarantined

    def test_without_the_override_the_true_edge_is_quarantined(self):
        """The override, not luck, decides: Z=128 cannot evict txC from a
        281-slot pool, so all three cross-validation probes fail."""
        shot = self.shot()
        measurement, suspect, _ = self.suspect(shot)
        shot.close(measurement, validate=False)
        assert measurement.quarantined == {suspect}

    def test_measure_link_honours_the_z_override(self):
        shot = self.shot()
        assert not any(r.detected for r in shot.measure_link(self.PEER, self.BIG))
        shot.set_z_override(self.BIG, 281)
        assert shot.measure_link(self.PEER, self.BIG)[-1].detected

    def test_no_override_no_adaptive_flood_is_the_session_config(self):
        shot = self.shot()
        assert shot._config_for_iteration([(self.PEER, self.BIG)]) is shot.config

    def test_the_override_floods_only_the_overridden_pool(self, monkeypatch):
        """A round touching the calibrated 281-slot node builds the large
        flood, but its 128-slot neighbours are sent only what their pools
        have room for (before flood trimming every node of such a round
        received all 281 futures) — and the edges are the ones the large
        flood sent to everybody finds."""
        from repro.core import primitive
        from repro.core.adaptive import flood_room

        def campaign():
            shot = self.shot()
            shot.set_z_override(self.BIG, 281)
            network, supernode = shot.network, shot.supernode
            default = [
                nid
                for nid in network.measurable_node_ids()
                if network.node(nid).config.policy.capacity == 128
            ]
            rounds = {}  # whole sim second -> {node: (futures sent, its room)}
            send = supernode.send_transactions

            def recording_send(peer_id, txs):
                futures = [
                    tx for tx in txs if tx.nonce >= FUTURE_NONCE_GAP
                ]
                if futures:
                    room = flood_room(network.node(peer_id), futures[0].gas_price)
                    this_round = rounds.setdefault(int(network.sim.now), {})
                    this_round[peer_id] = (len(futures), room)
                send(peer_id, txs)

            supernode.send_transactions = recording_send
            others = [nid for nid in default if nid != self.PEER][:4]
            measurement = shot.measure_network(
                targets=[self.BIG, self.PEER, *others], preprocess=False
            )
            return measurement, [r for r in rounds.values() if self.BIG in r]

        measurement, big_rounds = campaign()
        assert measurement.score.recall == 1.0
        assert big_rounds
        margin = primitive.flood_margin(281)
        for floods in big_rounds:
            sent, room = floods.pop(self.BIG)
            assert sent == min(281, room + margin) > 128  # its large flood
            assert len(floods) == 5
            for sent, room in floods.values():
                assert sent == room + margin < 128
        monkeypatch.setattr(primitive, "trim_flood", lambda node, flood: (flood, False))
        untrimmed, everyone = campaign()
        assert {sent for floods in everyone for sent, _ in floods.values()} == {281}
        assert untrimmed.edges == measurement.edges
        assert untrimmed.transactions_sent > measurement.transactions_sent
