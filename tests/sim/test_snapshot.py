"""Snapshot/reset layer: restore must be bit-exact and refuse unsafe use.

The contract that the sharded executor leans on (see docs/parallelism.md):
after ``restore``, replaying the same workload produces the *identical*
event sequence — same edges, same simulated clock, same RNG draws — and a
snapshot survives any number of restores.
"""

import pytest

from repro.core.campaign import TopoShot
from repro.errors import SnapshotError
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools


def _build(n_nodes=12, seed=7):
    network = quick_network(n_nodes=n_nodes, seed=seed)
    prefill_mempools(network)
    shot = TopoShot.attach(network)
    shot.preprocess()
    network.settle()
    return network, shot


class TestRestoreBitIdentity:
    def test_measurement_replays_identically_after_restore(self):
        network, shot = _build()
        state = shot.snapshot_state()
        first = shot.measure_network(preprocess=False)
        first_now = network.sim.now

        shot.restore_state(state)
        second = shot.measure_network(preprocess=False)

        assert second.edges == first.edges
        assert str(second.score) == str(first.score)
        assert second.duration == first.duration
        assert network.sim.now == first_now

    def test_snapshot_survives_multiple_restores(self):
        network, shot = _build()
        state = shot.snapshot_state()
        reference = shot.measure_network(preprocess=False)
        for _ in range(3):
            shot.restore_state(state)
            replay = shot.measure_network(preprocess=False)
            assert replay.edges == reference.edges
            assert replay.duration == reference.duration

    def test_restore_rewinds_wallet_and_mempools(self):
        network, shot = _build()
        state = shot.snapshot_state()
        pools_before = {
            node_id: len(network.node(node_id).mempool)
            for node_id in network.measurable_node_ids()
        }
        nonce_before = shot.wallet.fresh_account().label

        shot.measure_network(preprocess=False)
        shot.restore_state(state)

        assert {
            node_id: len(network.node(node_id).mempool)
            for node_id in network.measurable_node_ids()
        } == pools_before
        # The wallet's fresh-account counter rewound too: the next fresh
        # account is the same one handed out right after the snapshot.
        assert shot.wallet.fresh_account().label == nonce_before


class TestSnapshotPreconditions:
    def test_pending_events_rejected(self):
        network, shot = _build()
        network.sim.schedule(1.0, lambda: None, label="pending")
        with pytest.raises(SnapshotError):
            network.snapshot()
        network.settle()
        network.snapshot()  # fine once drained

    def test_armed_fault_plan_rejected(self):
        from repro.sim.faults import FaultPlan

        network, shot = _build()
        network.install_faults(FaultPlan(loss_rate=0.1))
        with pytest.raises(SnapshotError):
            network.snapshot()
        network.clear_faults()
        network.snapshot()  # fine once disarmed

    def test_restore_rejects_changed_node_set(self):
        from repro.eth.node import Node

        network, shot = _build()
        state = network.snapshot()
        network.add_node(Node("intruder", network.sim))
        with pytest.raises(SnapshotError):
            network.restore(state)

    def test_restore_rejects_advanced_chain(self):
        from repro.eth.chain import Block

        network, shot = _build()
        state = network.snapshot()
        network.chain.blocks.append(
            Block(
                number=network.chain.height,
                miner="test-miner",
                timestamp=network.sim.now,
                txs=(),
            )
        )
        with pytest.raises(SnapshotError):
            network.restore(state)


class TestAdversarialComposition:
    """Snapshots compose with installed behaviors (and refuse everything
    else): same behavior set -> bit-exact replay, changed set -> error."""

    def _build_byzantine(self):
        from repro.eth.behaviors import BehaviorMix

        network, shot = _build(n_nodes=12, seed=7)
        network.install_behaviors(BehaviorMix.uniform(0.3))
        network.settle()
        return network, shot

    def test_byzantine_measurement_replays_identically(self):
        network, shot = self._build_byzantine()
        state = shot.snapshot_state()
        first = shot.measure_network(preprocess=False)
        actions_first = sum(network.behaviors.counts.values())

        shot.restore_state(state)
        assert sum(network.behaviors.counts.values()) < actions_first or actions_first == 0
        second = shot.measure_network(preprocess=False)

        assert second.edges == first.edges
        assert str(second.score) == str(first.score)
        assert sum(network.behaviors.counts.values()) == actions_first
        assert network.behaviors.counts  # the adversary actually acted

    def test_restore_rejects_cleared_behaviors(self):
        network, shot = self._build_byzantine()
        state = network.snapshot()
        network.clear_behaviors()
        with pytest.raises(SnapshotError):
            network.restore(state)

    def test_restore_rejects_behaviors_installed_after_snapshot(self):
        from repro.eth.behaviors import BehaviorMix

        network, shot = _build(n_nodes=12, seed=7)
        state = network.snapshot()
        network.install_behaviors(BehaviorMix.uniform(0.3))
        with pytest.raises(SnapshotError):
            network.restore(state)

    def test_snapshot_rejects_installed_invariants(self):
        network, shot = _build(n_nodes=12, seed=7)
        state = network.snapshot()
        network.install_invariants()
        with pytest.raises(SnapshotError):
            network.snapshot()
        with pytest.raises(SnapshotError):
            network.restore(state)
        network.clear_invariants()
        network.restore(state)  # fine again

    def test_armed_faults_with_behaviors_still_rejected(self):
        from repro.sim.faults import FaultPlan

        network, shot = self._build_byzantine()
        network.install_faults(FaultPlan(loss_rate=0.1))
        with pytest.raises(SnapshotError):
            network.snapshot()
        network.clear_faults()
        network.snapshot()
