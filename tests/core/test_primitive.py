"""Tests for the serial measureOneLink primitive (Section 5.2).

These run on a 14-node Ethereum-like network with pre-filled pools and
check the paper's headline guarantees: perfect precision on non-links,
detection of true links, correct mempool states at each step, and the
known failure modes (larger pools, custom bumps, silent nodes).
"""

import pytest

from repro.core.config import RETRY_BACKOFF, RETRY_BACKOFF_FACTOR, MeasurementConfig
from repro.core.gas_estimator import estimate_y
from repro.core.primitive import (
    build_future_flood,
    measure_link_with_repeats,
    measure_one_link,
    rebid,
)
from repro.core.results import EdgeEvidence
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.node import NodeConfig
from repro.eth.policies import GETH
from repro.eth.supernode import Supernode
from repro.eth.transaction import TransactionFactory, gwei
from repro.netgen.workloads import prefill_mempools
from tests.conftest import pairs_of


class TestDetection:
    def test_true_links_detected(self, measured_network):
        network, supernode, truth = measured_network
        for a, b in pairs_of(truth, connected=True, limit=5):
            record = measure_one_link(network, supernode, a, b)
            assert record.detected, (a, b, record)
            supernode.clear_observations()
            network.forget_known_transactions()

    def test_non_links_never_detected(self, measured_network):
        """The 100% precision guarantee."""
        network, supernode, truth = measured_network
        for a, b in pairs_of(truth, connected=False, limit=5):
            record = measure_one_link(network, supernode, a, b)
            assert not record.detected, (a, b)
            assert record.setup_ok
            supernode.clear_observations()
            network.forget_known_transactions()

    def test_detection_is_direction_symmetric(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        assert measure_one_link(network, supernode, a, b).detected
        supernode.clear_observations()
        network.forget_known_transactions()
        assert measure_one_link(network, supernode, b, a).detected

    def test_self_measurement_rejected(self, measured_network):
        network, supernode, _ = measured_network
        with pytest.raises(ValueError):
            measure_one_link(network, supernode, "testnet-0001", "testnet-0001")

    def test_supernode_cannot_be_a_target(self, measured_network):
        network, supernode, _ = measured_network
        with pytest.raises(ValueError):
            measure_one_link(network, supernode, supernode.id, "testnet-0001")
        with pytest.raises(ValueError):
            measure_one_link(network, supernode, "testnet-0001", supernode.id)


class SentSpy:
    """Records every batch M sends: txC is the first batch, txB the last
    transaction of the second (the flood for B comes ahead of it), txA the
    last of the third."""

    def __init__(self, supernode, monkeypatch):
        self.batches = []
        send = supernode.send_transactions

        def spy(peer_id, txs):
            self.batches.append(list(txs))
            return send(peer_id, txs)

        monkeypatch.setattr(supernode, "send_transactions", spy)

    @property
    def tx_c(self):
        (tx_c,) = self.batches[0]
        return tx_c.hash

    @property
    def tx_b(self):
        return self.batches[1][-1].hash


class TestProtocolStates:
    """Step-by-step invariants from the correctness analysis (5.2.1)."""

    def test_txc_floods_and_gets_evicted_on_targets(self, measured_network, monkeypatch):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        sent = SentSpy(supernode, monkeypatch)
        record = measure_one_link(network, supernode, a, b)
        assert record.flood_confirmed  # txC reached B before Step 2
        # After the run, txC must be gone from both targets...
        assert sent.tx_c not in network.node(a).mempool
        assert sent.tx_c not in network.node(b).mempool
        # ...but still present on some third-party node C.
        others = [
            nid
            for nid in network.measurable_node_ids()
            if nid not in (a, b)
        ]
        assert any(
            sent.tx_c in network.node(nid).mempool for nid in others
        )

    def test_sent_transactions_are_the_probe(self, measured_network, monkeypatch):
        """The spy reads what the primitive sent: txA is the record's
        hash and the last of the third batch; all three share txC's
        sender and nonce."""
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        sent = SentSpy(supernode, monkeypatch)
        record = measure_one_link(network, supernode, a, b)
        assert len(sent.batches) == 3
        tx_c, tx_b, tx_a = (batch[-1] for batch in sent.batches)
        assert tx_a.hash == record.tx_hash
        assert len({(tx.sender, tx.nonce) for tx in (tx_c, tx_b, tx_a)}) == 1
        assert tx_b.gas_price < tx_c.gas_price < tx_a.gas_price

    def test_txa_replaces_txb_on_connected_sink(self, measured_network, monkeypatch):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        sent = SentSpy(supernode, monkeypatch)
        record = measure_one_link(network, supernode, a, b)
        sink_pool = network.node(b).mempool
        assert record.tx_hash in sink_pool
        assert sent.tx_b not in sink_pool

    def test_txb_survives_on_unconnected_sink(self, measured_network, monkeypatch):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=False, limit=1)
        sent = SentSpy(supernode, monkeypatch)
        record = measure_one_link(network, supernode, a, b)
        sink_pool = network.node(b).mempool
        assert sent.tx_b in sink_pool
        assert record.tx_hash not in sink_pool

    def test_txa_never_lands_on_third_parties(self, measured_network):
        """Isolation: txA exists only on A (and B when connected)."""
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        record = measure_one_link(network, supernode, a, b)
        for nid in network.measurable_node_ids():
            if nid in (a, b):
                continue
            assert record.tx_hash not in network.node(nid).mempool, nid

    def test_flood_futures_never_propagate(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        config = MeasurementConfig.for_policy(
            network.node(a).config.policy
        )
        wallet = Wallet("flood-check")
        factory = TransactionFactory()
        y = estimate_y(supernode, config)
        flood = build_future_flood(wallet, factory, config, y)
        supernode.send_transactions(a, flood)
        network.run(5.0)
        flood_hashes = {tx.hash for tx in flood}
        for nid in network.measurable_node_ids():
            if nid == a:
                continue
            pool = network.node(nid).mempool
            assert not any(h in pool for h in flood_hashes), nid


class TestFailureModes:
    """The recall culprits of Section 6.1, reproduced deliberately."""

    def _two_node_net(self, b_policy):
        network = Network(seed=21)
        default = NodeConfig(policy=GETH.scaled(128))
        network.create_node("a", default)
        network.create_node("b", NodeConfig(policy=b_policy))
        network.create_node("c", default)
        network.connect("a", "b")
        network.connect("a", "c")
        network.connect("b", "c")
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        return network, supernode

    def test_oversized_mempool_causes_false_negative(self, monkeypatch):
        """Custom L >> Z: the flood cannot evict txC (Figure 7's cliff)."""
        network, supernode = self._two_node_net(GETH.scaled(128).with_capacity(512))
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        sent = SentSpy(supernode, monkeypatch)
        record = measure_one_link(network, supernode, "a", "b", config)
        assert not record.detected
        assert not record.setup_ok
        assert sent.tx_b not in network.node("b").mempool  # B's set-up failed

    def test_larger_flood_recovers_the_link(self):
        """...and a big enough Z recovers it (the Fig 4a mechanism)."""
        network, supernode = self._two_node_net(GETH.scaled(128).with_capacity(512))
        config = MeasurementConfig.for_policy(GETH.scaled(128)).with_future_count(
            700
        )
        assert measure_one_link(network, supernode, "a", "b", config).detected

    def test_custom_replacement_bump_causes_false_negative(self):
        """Custom R=25%: txA's 10.5% bump cannot replace txB on the sink."""
        network, supernode = self._two_node_net(GETH.scaled(128).with_bump(0.25))
        config = MeasurementConfig.for_policy(GETH.scaled(128))
        assert not measure_one_link(network, supernode, "a", "b", config).detected

    def test_non_relaying_source_causes_false_negative(self):
        network = Network(seed=22)
        default = NodeConfig(policy=GETH.scaled(128))
        network.create_node("a", NodeConfig(
            policy=GETH.scaled(128), relays_transactions=False
        ))
        network.create_node("b", default)
        network.create_node("c", default)
        network.connect("a", "b")
        network.connect("a", "c")
        network.connect("b", "c")
        prefill_mempools(network, median_price=gwei(1.0))
        supernode = Supernode.join(network)
        assert not measure_one_link(network, supernode, "a", "b").detected


class TestRepeats:
    def test_repeats_stop_early_on_positive(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=True, limit=1)
        config = MeasurementConfig.for_policy(
            network.node(a).config.policy
        ).with_repeats(3)
        records = measure_link_with_repeats(network, supernode, a, b, config)
        assert len(records) == 1  # first attempt already positive

    def test_repeats_exhaust_on_negative(self, measured_network):
        network, supernode, truth = measured_network
        (a, b), = pairs_of(truth, connected=False, limit=1)
        config = MeasurementConfig.for_policy(
            network.node(a).config.policy
        ).with_repeats(3)
        refreshes = []
        records = measure_link_with_repeats(
            network, supernode, a, b, config, refresh=lambda: refreshes.append(1)
        )
        assert len(records) == 3
        assert not any(r.detected for r in records)
        assert len(refreshes) == 3


class TestRebid:
    def test_rebid_keeps_identity(self, factory, wallet):
        original = factory.transfer(wallet.fresh_account(), gas_price=1000)
        cheaper = rebid(factory, original, 950)
        assert cheaper.sender == original.sender
        assert cheaper.nonce == original.nonce
        assert cheaper.gas_price == 950
        assert cheaper.hash != original.hash


class TestRetryBackoff:
    @pytest.mark.parametrize("backoff,factor", [(RETRY_BACKOFF, RETRY_BACKOFF_FACTOR)])
    def test_setup_retry_waits_are_the_geometric_schedule(
        self, measured_network, monkeypatch, backoff, factor
    ):
        """The setup-failure retry loop waits ``RETRY_BACKOFF *
        RETRY_BACKOFF_FACTOR**k`` (``core.config.retry_delay``); the
        simulated clock after three retries is float-identical to
        accumulating the wait by repeated multiplication."""
        import repro.core.primitive as primitive

        network, supernode, _ = measured_network
        failed = EdgeEvidence(
            source="a", sink="b", tx_hash="",
            detected=False, setup_ok=False, flood_confirmed=False,
        )
        monkeypatch.setattr(
            primitive, "measure_one_link", lambda *args, **kwargs: failed
        )
        config = MeasurementConfig().with_retries(3)
        expected, wait = network.sim.now, backoff
        for _ in range(3):
            expected += wait
            wait *= factor
        records = measure_link_with_repeats(network, supernode, "a", "b", config)
        assert len(records) == 4  # three retried setups + the one repeat
        assert network.sim.now == expected


class TestOneLoopAtKOne:
    """The serial repeat/retry loop is the one-pair case of the loop
    ``measurePar`` rounds run through: the same scripted verdicts cost the
    same rounds, the same waits and the same refreshes either way."""

    @staticmethod
    def scripted(script):
        """Records for a script of ``fail`` (set-up failure) /
        ``weak`` (txC never confirmed on the sink) / ``no`` / ``yes``."""
        return [
            EdgeEvidence(
                source="a", sink="b", tx_hash="",
                detected=step == "yes",
                setup_ok=step != "fail",
                flood_confirmed=step != "weak",
            )
            for step in script
        ]

    @staticmethod
    def world():
        network = Network(seed=3)
        network.create_node("a", NodeConfig(policy=GETH.scaled(64)))
        network.create_node("b", NodeConfig(policy=GETH.scaled(64)))
        return network, Supernode.join(network)

    @pytest.mark.parametrize(
        "script",
        [
            ("fail", "weak", "no", "yes"),  # retry, retry, repeat, settled
            ("fail", "weak", "fail", "no"),  # budget gone: failures cost repeats
            ("no", "fail", "no"),  # a repeat first, then a retry
        ],
    )
    def test_serial_and_one_pair_parallel_loops_agree(self, monkeypatch, script):
        import repro.core.parallel as parallel
        import repro.core.primitive as primitive

        config = MeasurementConfig().with_repeats(2).with_retries(2)

        def run(drive):
            network, supernode = self.world()
            pending = self.scripted(script)
            rounds, refreshes = [], []

            def next_record(*args, **kwargs):
                rounds.append(network.sim.now)
                return pending.pop(0)

            drive(network, supernode, next_record, lambda: refreshes.append(network.sim.now))
            assert not pending  # the whole script was consumed, no more
            return rounds, refreshes, network.sim.now

        def serial(network, supernode, next_record, refresh):
            monkeypatch.setattr(primitive, "measure_one_link", next_record)
            measure_link_with_repeats(network, supernode, "a", "b", config, refresh=refresh)

        def one_pair(network, supernode, next_record, refresh):
            def stub(*args, **kwargs):
                record = next_record()
                return parallel.ParallelProbeReport(outcomes=[record])

            monkeypatch.setattr(parallel, "measure_par", stub)
            parallel.measure_par_with_repeats(
                network, supernode, [("a", "b")], config, refresh=refresh
            )

        serial_rounds, serial_refreshes, serial_end = run(serial)
        pair_rounds, pair_refreshes, pair_end = run(one_pair)
        assert serial_rounds == pair_rounds
        assert serial_end == pair_end
        # Between rounds the clean-up is the loop's own; the serial entry
        # adds its trailing one when the pair leaves undetected.
        trailing = 0 if script[-1] == "yes" else 1
        assert serial_refreshes[: len(serial_refreshes) - trailing] == pair_refreshes
        assert len(pair_refreshes) == len(script) - 1
