"""Tests for the Byzantine per-node behavior model (repro.eth.behaviors)."""

import pytest

from repro.errors import BehaviorPlanError
from repro.eth.behaviors import (
    BEHAVIOR_KINDS,
    BehaviorMix,
    BehaviorSet,
    _censored,
    assign_behaviors,
)
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.messages import Transactions
from repro.eth.supernode import Supernode
from repro.eth.transaction import Transaction, gwei
from repro.netgen.ethereum import quick_network


def make_line(n=3, seed=11, **config_overrides):
    network = Network(seed=seed)
    config = NodeConfig(policy=GETH.scaled(64), **config_overrides)
    for i in range(n):
        network.create_node(f"n{i}", config)
    for i in range(n - 1):
        network.connect(f"n{i}", f"n{i + 1}")
    return network


class TestBehaviorMix:
    def test_fraction_out_of_range_raises(self):
        with pytest.raises(BehaviorPlanError):
            BehaviorMix(censor=1.5)
        with pytest.raises(BehaviorPlanError):
            BehaviorMix(spoof_relay=-0.1)

    def test_fractions_summing_over_one_raise(self):
        with pytest.raises(BehaviorPlanError):
            BehaviorMix(censor=0.6, spoof_relay=0.5)

    def test_bad_knobs_raise(self):
        with pytest.raises(BehaviorPlanError):
            BehaviorMix(censor_selectivity=2.0)
        with pytest.raises(BehaviorPlanError):
            BehaviorMix(spam_fanout=0)

    def test_uniform_spreads_evenly(self):
        mix = BehaviorMix.uniform(0.6)
        assert sum(getattr(mix, k) for k in BEHAVIOR_KINDS) == pytest.approx(0.6)
        shares = {getattr(mix, kind) for kind in BEHAVIOR_KINDS}
        assert len(shares) == 1  # all kinds get the same share

    def test_from_spec_parses(self):
        mix = BehaviorMix.from_spec("spoof_relay:0.2, censor:0.1")
        assert mix.spoof_relay == pytest.approx(0.2)
        assert mix.censor == pytest.approx(0.1)
        assert mix.lazy_relay == 0.0

    @pytest.mark.parametrize(
        "spec", ["", "gremlin:0.2", "censor=0.1", "censor:lots"]
    )
    def test_from_spec_rejects_garbage(self, spec):
        with pytest.raises(BehaviorPlanError):
            BehaviorMix.from_spec(spec)

    def test_scaled_keeps_relative_weights(self):
        mix = BehaviorMix(spoof_relay=0.4, censor=0.2).scaled(0.5)
        assert mix.spoof_relay == pytest.approx(0.2)
        assert mix.censor == pytest.approx(0.1)
        with pytest.raises(BehaviorPlanError):
            mix.scaled(-1.0)

    def test_describe_and_enabled(self):
        assert BehaviorMix().describe() == "all-honest"
        assert not BehaviorMix().enabled
        mix = BehaviorMix(censor=0.25)
        assert mix.enabled
        assert "censor=0.250" in mix.describe()


class TestAssignment:
    def test_assignment_is_a_function_of_seed_and_mix(self):
        mix = BehaviorMix.uniform(0.5)
        first = assign_behaviors(quick_network(n_nodes=16, seed=3), mix)
        second = assign_behaviors(quick_network(n_nodes=16, seed=3), mix)
        assert first == second
        assert first  # a 50% mix on 16 nodes draws someone

    def test_different_seed_differs(self):
        mix = BehaviorMix.uniform(0.5)
        a = assign_behaviors(quick_network(n_nodes=16, seed=3), mix)
        b = assign_behaviors(quick_network(n_nodes=16, seed=4), mix)
        assert a != b

    def test_supernodes_never_drawn(self):
        network = quick_network(n_nodes=12, seed=5)
        Supernode.join(network)
        assignment = assign_behaviors(network, BehaviorMix.uniform(1.0))
        assert not set(assignment) & network.supernode_ids
        # fraction 1.0 covers every eligible node
        assert set(assignment) == set(network.node_ids) - network.supernode_ids

    def test_install_behaviors_sets_signature_deterministically(self):
        mix = BehaviorMix.uniform(0.5)
        nets = [quick_network(n_nodes=16, seed=3) for _ in range(2)]
        sigs = [net.install_behaviors(mix).signature() for net in nets]
        assert sigs[0] == sigs[1]
        for net in nets:
            net.clear_behaviors()
            assert net.behaviors is None


class TestInstallLifecycle:
    def test_install_and_uninstall_restore_node_exactly(self):
        network = make_line(3)
        node = network.node("n1")
        original_dispatch = dict(node._dispatch)
        original_policy = node.mempool.policy
        original_config = node.config
        behavior_set = BehaviorSet(network, BehaviorMix())
        for kind in BEHAVIOR_KINDS:
            behavior_set.install_on(node, kind=kind)
            assert behavior_set.assignments == {node.id: kind}
            behavior_set.uninstall_all()
            assert behavior_set.assignments == {}
            assert node._dispatch == original_dispatch
            assert node.mempool.policy is original_policy
            assert node.config is original_config
            assert "broadcast_transaction" not in node.__dict__

    def test_double_install_raises(self):
        network = make_line(2)
        behavior_set = BehaviorSet(network, BehaviorMix())
        behavior_set.install_on(network.node("n0"), "censor")
        with pytest.raises(BehaviorPlanError):
            behavior_set.install_on(network.node("n0"), "lazy_relay")

    def test_supernode_install_refused(self):
        network = quick_network(n_nodes=8, seed=2)
        supernode = Supernode.join(network)
        behavior_set = BehaviorSet(network, BehaviorMix())
        with pytest.raises(BehaviorPlanError):
            behavior_set.install_on(network.node(supernode.id), "censor")

    def test_unknown_kind_refused(self):
        network = make_line(2)
        behavior_set = BehaviorSet(network, BehaviorMix())
        with pytest.raises(BehaviorPlanError):
            behavior_set.install_on(network.node("n0"), "gremlin")


class TestBehaviorEffects:
    def test_censor_drops_matching_hashes(self, wallet, factory):
        network = make_line(3)
        behavior_set = BehaviorSet(
            network, BehaviorMix(censor_selectivity=1.0)
        )
        behavior_set.install_on(network.node("n1"), "censor")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        assert _censored(tx.hash, 1.0)
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        assert tx.hash in network.node("n1").mempool  # admitted...
        assert tx.hash not in network.node("n2").mempool  # ...never relayed
        assert behavior_set.counts["censor"] >= 1

    def test_lazy_relay_announces_but_never_serves(self, wallet, factory):
        network = make_line(2)
        behavior_set = BehaviorSet(network, BehaviorMix())
        behavior_set.install_on(network.node("n0"), "lazy_relay")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        assert tx.hash not in network.node("n1").mempool
        assert behavior_set.counts["lazy_relay"] >= 1  # dropped the request

    def test_lazy_relay_campaign_is_pinned(self):
        """``lazy_relay`` rides the node's own ``announce_only`` branch; this
        triple was recorded with the hand-copied mask scan it replaced, so
        the two are the same gossip, draw for draw."""
        import hashlib
        import json

        from repro.core.campaign import TopoShot
        from repro.netgen.workloads import prefill_mempools

        network = quick_network(n_nodes=24, seed=1)
        prefill_mempools(network)
        network.install_behaviors(BehaviorMix(lazy_relay=0.3, censor=0.1))
        measurement = TopoShot.attach(network).measure_network()
        edges = sorted(sorted(e) for e in measurement.edges)
        assert (
            network.sim.executed_events,
            network.messages_sent,
            hashlib.sha256(json.dumps(edges).encode("utf-8")).hexdigest(),
            network.behaviors.counts,
        ) == (
            38538,
            36836,
            "e17ce6e4cea7abce382abb18bc41eab0e91ea7ef33472ec7a77168c556a4719d",
            {"censor": 956, "lazy_relay": 1314},
        )

    def test_spoof_relay_carries_rejected_tx_to_nonconforming_peer(
        self, wallet, factory
    ):
        # The false-positive chain the hardened verdicts must defeat: a
        # spoofing relay re-broadcasts a body its own pool rejected, and a
        # R=0 neighbour admits the under-bumped replacement.
        network = make_line(3)
        behavior_set = BehaviorSet(network, BehaviorMix())
        behavior_set.install_on(network.node("n1"), "spoof_relay")
        behavior_set.install_on(network.node("n2"), "nonconforming_replacer")
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        weak = Transaction(
            sender=account.address, nonce=0, gas_price=int(gwei(1.02))
        )
        network.send("n0", "n1", Transactions(txs=(weak,)))
        network.run(10.0)
        assert weak.hash not in network.node("n1").mempool  # n1 rejected it
        assert weak.hash in network.node("n2").mempool  # ...yet n2 got it
        assert behavior_set.counts["spoof_relay"] >= 1
        assert behavior_set.counts["nonconforming_replacer"] >= 1

    def test_honest_line_blocks_the_same_chain(self, wallet, factory):
        network = make_line(3)
        account = wallet.fresh_account()
        original = Transaction(sender=account.address, nonce=0, gas_price=gwei(1))
        network.node("n0").submit_transaction(original)
        network.run(10.0)
        weak = Transaction(
            sender=account.address, nonce=0, gas_price=int(gwei(1.02))
        )
        network.send("n0", "n1", Transactions(txs=(weak,)))
        network.run(10.0)
        assert weak.hash not in network.node("n2").mempool

    def test_stale_client_forwards_future_transactions(self, wallet, factory):
        network = make_line(3)
        behavior_set = BehaviorSet(network, BehaviorMix())
        behavior_set.install_on(network.node("n0"), "stale_client")
        future = factory.future(wallet.fresh_account(), gas_price=gwei(5))
        network.node("n0").submit_transaction(future)
        network.run(10.0)
        assert future.hash in network.node("n1").mempool

    def test_duplicate_spammer_repushes_known_bodies(self, wallet, factory):
        network = make_line(3)
        behavior_set = BehaviorSet(
            network, BehaviorMix(spam_rate=1.0, spam_fanout=2)
        )
        behavior_set.install_on(network.node("n1"), "duplicate_spammer")
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        assert behavior_set.counts["duplicate_spammer"] >= 1

    def test_uninstalled_network_behaves_honestly_again(self, wallet, factory):
        network = make_line(3)
        behavior_set = BehaviorSet(
            network, BehaviorMix(censor_selectivity=1.0)
        )
        behavior_set.install_on(network.node("n1"), "censor")
        behavior_set.uninstall_all()
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        network.node("n0").submit_transaction(tx)
        network.run(10.0)
        assert tx.hash in network.node("n2").mempool


class TestComposition:
    def test_behaviors_compose_with_fault_plan(self, wallet, factory):
        from repro.sim.faults import FaultPlan

        network = quick_network(n_nodes=10, seed=6)
        network.install_behaviors(BehaviorMix.uniform(0.3))
        network.install_faults(FaultPlan(loss_rate=0.05))
        tx = factory.transfer(wallet.fresh_account(), gas_price=gwei(1))
        first = sorted(network.measurable_node_ids())[0]
        network.node(first).submit_transaction(tx)
        network.run(20.0)  # nothing blows up; weather + adversary coexist
        network.clear_faults()
        network.clear_behaviors()
        assert network.behaviors is None and network.faults is None
