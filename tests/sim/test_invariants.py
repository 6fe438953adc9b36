"""Tests for the runtime invariant checker (repro.sim.invariants)."""

import pytest

from repro.core.campaign import TopoShot
from repro.errors import InvariantViolationError, SimulationError, SnapshotError
from repro.eth.behaviors import BehaviorMix, BehaviorSet
from repro.eth.messages import Transactions
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.transaction import Transaction, gwei
from repro.netgen.ethereum import quick_network
from repro.netgen.workloads import prefill_mempools
from repro.sim.invariants import InvariantChecker


def make_line(n=3, seed=11):
    network = Network(seed=seed)
    config = NodeConfig(policy=GETH.scaled(64))
    for i in range(n):
        network.create_node(f"n{i}", config)
    for i in range(n - 1):
        network.connect(f"n{i}", f"n{i + 1}")
    return network


def install_behavior(network, node_id, kind, **mix_knobs):
    """Targeted install with the network-level registry wired up, so the
    checker classifies the node as Byzantine (what install_behaviors does,
    minus the random draw)."""
    behavior_set = BehaviorSet(network, BehaviorMix(**mix_knobs))
    behavior_set.install_on(network.node(node_id), kind)
    network.behaviors = behavior_set
    return behavior_set


class TestLifecycle:
    def test_install_and_clear_restore_delivery_callback(self):
        network = make_line(2)
        assert network._deliver_cb == network._deliver
        checker = network.install_invariants()
        assert network.invariants is checker
        assert network._deliver_cb != network._deliver
        network.clear_invariants()
        assert network.invariants is None
        assert network._deliver_cb == network._deliver
        assert all(not node.tx_observers for node in network.nodes.values())

    def test_double_attach_refused(self):
        network = make_line(2)
        checker = network.install_invariants()
        with pytest.raises(SimulationError):
            checker.attach(make_line(2, seed=12))

    def test_snapshot_refused_while_installed(self):
        network = make_line(2)
        network.settle()
        state = network.snapshot()
        network.install_invariants()
        with pytest.raises(SnapshotError):
            network.snapshot()
        with pytest.raises(SnapshotError):
            network.restore(state)
        network.clear_invariants()
        network.restore(state)  # fine once cleared

    def test_bad_full_check_every_refused(self):
        with pytest.raises(SimulationError):
            InvariantChecker(full_check_every=-1)


class TestHonestRunsAreClean:
    def test_propagation_run_reports_zero_violations(self, wallet, factory):
        network = make_line(4)
        checker = network.install_invariants(strict=True)
        for _ in range(5):
            tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
            network.node("n0").submit_transaction(tx)
            network.run(5.0)
        assert checker.total_violations == 0
        assert checker.summary() == "invariants: no violations"

    def test_full_measurement_reports_zero_violations(self):
        # The acceptance bar: an all-honest, fault-free TopoShot campaign
        # never trips a single invariant, in strict mode.
        network = quick_network(n_nodes=10, seed=3)
        prefill_mempools(network)
        checker = network.install_invariants(strict=True)
        shot = TopoShot.attach(network)
        measurement = shot.measure_network()
        assert measurement.edges  # the run actually measured something
        assert checker.total_violations == 0

    def test_forget_known_transactions_resets_link_state(self, wallet, factory):
        # The campaign wipes per-peer known-tx caches between iterations;
        # an honest re-push after the wipe must not read as duplicate_push.
        network = make_line(2)
        checker = network.install_invariants()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        node = network.node("n0")
        node.submit_transaction(tx)
        network.run(5.0)
        network.forget_known_transactions()
        node.broadcast_transaction(tx)
        network.run(5.0)
        assert checker.counts.get("duplicate_push", 0) == 0


class TestViolationDetection:
    def test_spoof_relay_flags_relay_unpooled_as_byzantine(
        self, wallet, factory
    ):
        network = make_line(3)
        behavior_set = install_behavior(network, "n1", "spoof_relay")
        # The injector pushes a body it never pooled; mark it Byzantine
        # too so only the adversary model is on trial here.
        behavior_set.install_on(network.node("n0"), "spoof_relay")
        checker = network.install_invariants()
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        weak = Transaction(
            sender=account.address, nonce=0, gas_price=int(gwei(1.02))
        )
        network.send("n0", "n1", Transactions(txs=(weak,)))
        network.run(10.0)
        assert checker.counts["relay_unpooled"] >= 1
        assert checker.honest_counts.get("relay_unpooled", 0) == 0
        assert any(
            v.byzantine and v.node == "n1" and v.invariant == "relay_unpooled"
            for v in checker.violations
        )

    def test_nonconforming_replacer_flags_replacement_bump(
        self, wallet, factory
    ):
        network = make_line(2)
        install_behavior(network, "n1", "nonconforming_replacer")
        checker = network.install_invariants()
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        weak = Transaction(
            sender=account.address, nonce=0, gas_price=int(gwei(1.02))
        )
        network.send("n0", "n1", Transactions(txs=(weak,)))
        network.run(10.0)
        # The R=0 node replaced below its *conforming* policy's bump.
        assert checker.counts["replacement_bump"] >= 1
        assert checker.honest_counts.get("replacement_bump", 0) == 0

    def test_duplicate_spammer_flags_duplicate_push(self, wallet, factory):
        network = make_line(3)
        install_behavior(network, "n1", "duplicate_spammer", spam_rate=1.0)
        checker = network.install_invariants()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        assert checker.counts.get("duplicate_push", 0) >= 1
        assert checker.honest_counts.get("duplicate_push", 0) == 0

    def test_isolation_guard_fires_off_target(self, wallet, factory):
        network = make_line(3)
        checker = network.install_invariants()
        account = wallet.fresh_account()
        tx_c = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(tx_c)
        network.run(10.0)
        checker.guard_isolation(tx_c.hash, frozenset({"n1"}))
        replacement = Transaction(
            sender=account.address, nonce=0, gas_price=gwei(1.2)
        )
        network.node("n0").submit_transaction(replacement)
        network.run(10.0)
        offenders = {
            v.node for v in checker.violations if v.invariant == "isolation"
        }
        assert "n0" in offenders or "n2" in offenders
        assert "n1" not in offenders


class TestStrictMode:
    def test_honest_violation_raises(self, wallet, factory):
        network = make_line(2)
        network.install_invariants(strict=True)
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        # n0 never pooled this body, yet pushes it: a simulator bug by
        # construction, which strict mode turns into a hard failure.
        network.send("n0", "n1", Transactions(txs=(tx,)))
        with pytest.raises(InvariantViolationError):
            network.run(5.0)

    def test_byzantine_violation_is_record_only(self, wallet, factory):
        network = make_line(3)
        behavior_set = install_behavior(network, "n1", "spoof_relay")
        behavior_set.install_on(network.node("n0"), "spoof_relay")
        checker = network.install_invariants(strict=True)
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        weak = Transaction(
            sender=account.address, nonce=0, gas_price=int(gwei(1.02))
        )
        network.send("n0", "n1", Transactions(txs=(weak,)))
        network.run(10.0)  # no raise: the adversary model is working
        assert checker.counts["relay_unpooled"] >= 1
        assert checker.honest_violations == 0
